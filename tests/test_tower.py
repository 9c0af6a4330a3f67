"""Weight-set recursion vs closed form, fixed-point enumeration, Euler classes."""

import pytest

from jetres.exactalg import ResourceLimitError
from jetres.tower import Weight, basis_weights, enumerate_fixed_points, euler_value
from oracles import (
    ValidationError,
    euler_class,
    evaluate,
    fixed_point,
    is_homogeneous,
    lambda_context,
    total_degree,
    weight_poly,
    weight_set_closed,
    weight_set_recursive,
)


def W(*coeffs):
    return Weight(tuple(coeffs))


def as_set(weights):
    return {w.coeffs for w in weights}


def test_empty_prefix_is_basis():
    assert as_set(weight_set_recursive([], 3)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_first_level_set():
    got = weight_set_recursive([W(1, 0, 0)], 3)
    assert as_set(got) == {(1, 0, 0), (-1, 1, 0), (-1, 0, 1)}


def test_second_level_set():
    got = weight_set_recursive([W(1, 0, 0), W(-1, 1, 0)], 3)
    assert as_set(got) == {(2, -1, 0), (-1, 1, 0), (0, -1, 1)}


def test_closed_form_examples():
    got = weight_set_closed([W(1, 0, 0), W(1, 0, 0)], 3)
    assert as_set(got) == {(1, 0, 0), (-2, 1, 0), (-2, 0, 1)}
    got = weight_set_closed([W(0, 0, 1), W(0, 0, 1)], 3)
    assert as_set(got) == {(1, 0, -2), (0, 1, -2), (0, 0, 1)}


def test_closed_equals_recursive_exhaustive():
    # every valid prefix, n <= 4, depth <= 4
    for n in (2, 3, 4):
        frontier = [[]]
        for _ in range(4):
            nxt = []
            for prefix in frontier:
                current = weight_set_recursive(prefix, n)
                closed = weight_set_closed(prefix, n)
                assert current == closed, (n, prefix)
                assert len(current) == n
                for w in current:
                    nxt.append(prefix + [w])
            frontier = nxt


def test_enumeration_counts():
    assert len(enumerate_fixed_points(3, 1)) == 3
    assert len(enumerate_fixed_points(3, 2)) == 9
    assert len(enumerate_fixed_points(2, 5)) == 32
    pts = enumerate_fixed_points(3, 2)
    assert len({fp.weights for fp in pts}) == 9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_is_the_validated_dfs(n):
    # the one-DFS enumeration builds its points without re-walking their
    # chains: they must be the validated fixed points in the same order, with
    # the tangent weights w - w_j read off the closed-form weight sets
    for k in range(1, 5):
        chains, tangents = [], []

        def rec(prefix, tangent):
            if len(prefix) == k:
                chains.append(fixed_point(prefix, n))
                tangents.append(tuple(tangent))
                return
            closed = weight_set_closed(prefix, n)
            for w in weight_set_recursive(prefix, n):
                rec(prefix + [w], tangent + [v - w for v in closed if v != w])

        rec([], [])
        points = enumerate_fixed_points(n, k)
        assert points == chains
        assert [fp.tangent for fp in points] == tangents
        assert [fp.tangent for fp in chains] == tangents


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_fixed_points(2, 5, point_cap=16)


def test_invalid_prefix_rejected():
    with pytest.raises(ValidationError):
        weight_set_recursive([W(1, 1, 0)], 3)
    with pytest.raises(ValidationError):
        fixed_point((W(1, 0, 0), W(1, 1, 0)), 3)


def test_table_n3_k3_all_rows():
    # the nine depth-2 weight sets for n = 3, keyed by explicit prefixes
    lam = basis_weights(3)
    explicit = [
        ([lam[0], lam[0]], {(1, 0, 0), (-2, 1, 0), (-2, 0, 1)}),
        ([lam[0], W(-1, 1, 0)], {(2, -1, 0), (-1, 1, 0), (0, -1, 1)}),
        ([lam[0], W(-1, 0, 1)], {(2, 0, -1), (0, 1, -1), (-1, 0, 1)}),
        ([lam[1], W(1, -1, 0)], {(1, -1, 0), (-1, 2, 0), (-1, 0, 1)}),
        ([lam[1], lam[1]], {(1, -2, 0), (0, 1, 0), (0, -2, 1)}),
        ([lam[1], W(0, -1, 1)], {(1, 0, -1), (0, 2, -1), (0, -1, 1)}),
        ([lam[2], W(1, 0, -1)], {(1, 0, -1), (-1, 1, 0), (-1, 0, 2)}),
        ([lam[2], W(0, 1, -1)], {(1, -1, 0), (0, 1, -1), (0, -1, 2)}),
        ([lam[2], lam[2]], {(1, 0, -2), (0, 1, -2), (0, 0, 1)}),
    ]
    for prefix, expected in explicit:
        assert as_set(weight_set_recursive(prefix, 3)) == expected
        assert as_set(weight_set_closed(prefix, 3)) == expected


def test_euler_class_p1():
    fp = fixed_point((W(1, 0),), 2)
    ctx = lambda_context(2)
    assert euler_class(fp) == weight_poly(W(-1, 1), ctx)


def test_euler_class_p2_point():
    # at the second coordinate point of the plane the tangent weights are
    # L1 - L2 and L3 - L2
    fp = fixed_point((W(0, 1, 0),), 3)
    ctx = lambda_context(3)
    expected = weight_poly(W(1, -1, 0), ctx) * weight_poly(W(0, -1, 1), ctx)
    assert euler_class(fp) == expected


def test_euler_class_degree():
    n, k = 3, 3
    for fp in enumerate_fixed_points(n, k):
        ec = euler_class(fp)
        assert total_degree(ec) == k * (n - 1)
        assert is_homogeneous(ec)


def test_euler_value_matches_class():
    lams = [1, 5, -2]
    ctx = lambda_context(3)
    for fp in enumerate_fixed_points(3, 2):
        sym = evaluate(euler_class(fp), {"L1": 1, "L2": 5, "L3": -2})
        assert sym == euler_value(fp, lams)
