"""Fixed-point sums: the six-point Grassmannian demo and fibre integrals."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetres.localization
from jetres.exactalg import MultiPoly, Q, VarContext
from jetres.localization import (
    DegenerateWeightsError,
    fibre_integral_fixed_points,
    payload_integral_fixed_points,
)
from jetres.polyparse import parse_poly
from jetres.residue import (
    ResidueForm,
    hypersurface_integrand,
    integrate_over_X,
    residue_expand,
    residue_stepwise,
    tower_context,
)
from jetres.tower import enumerate_fixed_points, euler_value, weight_value
from oracles import LocalizationDatum, abbv_sum, grassmannian_fixed_point_data


def test_grassmannian_symbolic_is_one():
    total = abbv_sum(grassmannian_fixed_point_data())
    assert total.is_polynomial
    assert total == 1


def test_grassmannian_permutations_and_numeric():
    rng = random.Random(2)
    data = grassmannian_fixed_point_data()
    for _ in range(5):
        shuffled = list(data)
        rng.shuffle(shuffled)
        assert abbv_sum(shuffled) == 1
    for _ in range(5):
        mus = []
        while len(set(mus)) != 4:
            mus = [Q(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(4)]
        assert abbv_sum(grassmannian_fixed_point_data(mus)) == 1


def test_single_point_fraction():
    ctx = VarContext(("M1",))
    v = MultiPoly.variable(ctx, "M1") + 1
    e = MultiPoly.variable(ctx, "M1")
    frac = abbv_sum([LocalizationDatum(v, e)])
    assert not frac.is_polynomial
    assert frac.numerator == v and frac.denominator == e


def test_plane_top_power_sums_to_one():
    # sum of L_j^2 over the three points of the plane, against the
    # single-variable residue of z^2/prod(L_i - z)
    ctx = tower_context(1)
    z = MultiPoly.variable(ctx, "z1")
    lams = [Q(0), Q(1), Q(2)]
    sum_route = fibre_integral_fixed_points(3, 1, z**2, lams)
    factors = [(MultiPoly.const(ctx, l) - z, 1) for l in lams]
    res_route = residue_expand(ResidueForm(z**2, factors, ("z1",)))
    assert sum_route == res_route == MultiPoly.const(ctx, 1)


def test_projective_line_taut_class():
    # the fibre integral of u over the line is -1 in these conventions
    ctx = tower_context(1)
    z = MultiPoly.variable(ctx, "z1")
    for lams in ([Q(0), Q(1)], [Q(3, 2), Q(-7)], [Q(5), Q(11, 3)]):
        assert fibre_integral_fixed_points(2, 1, z, lams) == MultiPoly.const(ctx, -1)


def test_two_level_fibre_tower_hand_values():
    # two-step tower of lines over a point (n = 2, k = 2): with V_1 the
    # rank-2 bundle O(-1)-extension of the line's tangent sheaf, the level-2
    # class pushes down by u^2 -> s_1(V_1) = -xi, so the fibre integrals are
    #   u2^2 -> -1,   u1*u2 -> 1,   u1^2 -> 0 (pullback of a line class)
    ctx = tower_context(2)
    z1 = MultiPoly.variable(ctx, "z1")
    z2 = MultiPoly.variable(ctx, "z2")
    lams = [Q(1), Q(7, 2)]
    assert fibre_integral_fixed_points(2, 2, z2**2, lams) == MultiPoly.const(ctx, -1)
    assert fibre_integral_fixed_points(2, 2, z1 * z2, lams) == MultiPoly.const(ctx, 1)
    assert fibre_integral_fixed_points(2, 2, z1**2, lams).is_zero


def test_projective_space_residue_identity_random():
    # sum_i P(L_i)/prod_{j!=i}(L_j-L_i) equals the single-variable residue of
    # P(z)/prod_j(L_j-z), for any P of degree at most n-1 (both vanish above
    # the constant when deg P < n-1... the identity holds degree by degree)
    rng = random.Random(77)
    for n in (2, 3, 4):
        ctx = tower_context(1)
        z = MultiPoly.variable(ctx, "z1")
        for _ in range(10):
            lams = distinct_lambdas(rng, n)
            deg = rng.randint(0, n - 1)
            P = MultiPoly.zero(ctx)
            for p in range(deg + 1):
                P = P + Q(rng.randint(-9, 9)) * z**p
            lhs = fibre_integral_fixed_points(n, 1, P, lams)
            factors = [(MultiPoly.const(ctx, l) - z, 1) for l in lams]
            rhs = residue_expand(ResidueForm(P, factors, ("z1",)))
            assert lhs == rhs


def random_homogeneous(rng, ctx, zvars, deg, with_h=False):
    names = list(zvars) + (["h"] if with_h else [])
    terms = {}
    for combo in itertools.combinations_with_replacement(names, deg):
        c = rng.randint(-4, 4)
        if not c:
            continue
        e = [0] * len(ctx)
        for v in combo:
            e[ctx.index(v)] += 1
        terms[tuple(e)] = Q(c)
    return MultiPoly(ctx, terms)


def distinct_lambdas(rng, n):
    while True:
        vals = [Q(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
        if len(set(vals)) == n and all(vals):
            return vals


def fibre_integral_retry(n, k, P, rng):
    # random weights can still collide deeper in the tower; redraw when the
    # degenerate-weights guard fires
    while True:
        try:
            return fibre_integral_fixed_points(n, k, P, distinct_lambdas(rng, n))
        except DegenerateWeightsError:
            continue


def test_lambda_independence():
    rng = random.Random(31)
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        P = random_homogeneous(rng, ctx, zvars, k * (n - 1))
        values = [fibre_integral_retry(n, k, P, rng) for _ in range(5)]
        assert all(v == values[0] for v in values)


def test_low_degree_integrates_to_zero():
    rng = random.Random(32)
    for n, k in ((3, 2), (2, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        for deg in range(k * (n - 1)):
            P = random_homogeneous(rng, ctx, zvars, deg)
            assert fibre_integral_retry(n, k, P, rng).is_zero


def test_repeated_lambdas_rejected():
    ctx = tower_context(2)
    P = MultiPoly.variable(ctx, "z1") * MultiPoly.variable(ctx, "z2")
    with pytest.raises(DegenerateWeightsError):
        fibre_integral_fixed_points(2, 2, P, [Q(1), Q(1)])


def test_weight_collision_detected():
    # lambda = (1, 2) makes the depth-2 weight L2 - L1 collide with L1; the
    # Euler class vanishes there whatever the payload, zero included
    ctx = tower_context(2)
    P = MultiPoly.variable(ctx, "z1") * MultiPoly.variable(ctx, "z2")
    for payload in (P, MultiPoly.zero(ctx)):
        with pytest.raises(DegenerateWeightsError):
            fibre_integral_fixed_points(2, 2, payload, [Q(1), Q(2)])


def _substitution_oracle(n, k, P, lams):
    """Reference: substitute each fixed point's weights into P, divide by its Euler class."""
    total = MultiPoly.zero(P.ctx)
    for fp in enumerate_fixed_points(n, k):
        # the weights are numbers, so the order of the substitutions is immaterial
        at_fp = P
        for i, w in enumerate(fp.weights, start=1):
            at_fp = at_fp.substitute(f"z{i}", weight_value(w, lams))
        total = total + at_fp * (Q(1) / euler_value(fp, lams))
    return total


@st.composite
def localization_cases(draw):
    """(n, k, P, lambdas): P with z, h and d terms of any degree, possibly zero."""
    n, k = draw(st.sampled_from([2, 3, 4])), draw(st.sampled_from([1, 2, 3]))
    exponents = st.tuples(*[st.integers(0, 4)] * k, st.integers(0, 2), st.integers(0, 2))
    coeffs = st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
    P = MultiPoly(tower_context(k), draw(st.dictionaries(exponents, coeffs, max_size=8)))
    lams = draw(st.lists(st.builds(Q, st.integers(-12, 12), st.integers(1, 6)),
                         min_size=n, max_size=n))
    return n, k, P, lams


@given(localization_cases())
def test_fixed_point_sum_is_the_substitution_sum(case):
    n, k, P, lams = case
    degenerate = len(set(lams)) < n or any(
        euler_value(fp, lams) == 0 for fp in enumerate_fixed_points(n, k)
    )
    if degenerate:
        with pytest.raises(DegenerateWeightsError):
            fibre_integral_fixed_points(n, k, P, lams)
    else:
        assert fibre_integral_fixed_points(n, k, P, lams) == _substitution_oracle(n, k, P, lams)


def test_fixed_point_sum_is_the_substitution_sum_on_the_routes_shape():
    # n = 4, k = 4 as in the benchmark's fibre-integral job: a dense degree-12
    # power in z, plus h-carrying terms whose non-z monomial (h*d, h^2) comes
    # with two z-degrees, rational coefficients of different denominators in
    # one group, and rational lambdas (D = 60)
    ctx = tower_context(4)
    P = (parse_poly("(3*u1-2*u2+u4)^12 + 5*u1^4*u2*u3^3*u4^4 + d*h*(u1^3*u2^2*u4^8 - 4*u3^14)"
                    " + h^2*(2*u2*u4^12 + u1^5)", ctx) * Q(1, 7)
         + parse_poly("d*h*u1^3*u2^2*u3*u4^7 + u3^12", ctx) * Q(2, 5)
         + parse_poly("h^2*u2^3*u3^10", ctx) * Q(1, 9))
    lams = [Q(1, 2), Q(13, 3), Q(-7, 5), Q(29, 4)]
    value = fibre_integral_fixed_points(4, 4, P, lams)
    assert value == _substitution_oracle(4, 4, P, lams)
    assert {e[4:] for e in value.terms} == {(0, 0), (1, 1), (2, 0)}


def _level_values(n, k, lams):
    """Each level's tangent values over all fixed points."""
    return [[weight_value(t, lams) for fp in enumerate_fixed_points(n, k)
             for t in fp.tangent[j * (n - 1) : (j + 1) * (n - 1)]] for j in range(k)]


def test_collision_at_the_deepest_level_only(monkeypatch):
    # at lambda = (-4, -3, -1) every Euler factor of levels 1 and 2 is nonzero
    # and only a level-3 tangent value vanishes
    n, k, lams = 3, 3, [-4, -3, -1]
    levels = _level_values(n, k, lams)
    assert all(0 not in values for values in levels[:-1]) and 0 in levels[-1]
    P = parse_poly("(u1+2*u2-3*u3+h)^9+d*u3^6", tower_context(k))
    with pytest.raises(DegenerateWeightsError):
        fibre_integral_fixed_points(n, k, P, lams)

    # the payload route draws these lambdas first, rejects them and redraws
    expected = payload_integral_fixed_points(n, k, P)
    drawn = []

    class DegenerateFirst(random.Random):
        def sample(self, population, count):
            drawn.append(list(lams) if not drawn else super().sample(population, count))
            return drawn[-1]

    monkeypatch.setattr(jetres.localization, "Random", DegenerateFirst)
    assert payload_integral_fixed_points(n, k, P) == expected
    assert drawn[0] == lams and len(drawn) == 5  # p(3) + 1 = 4 draws kept


@st.composite
def tower_payloads(draw, n, k):
    """P(z, h, d) over the k-tower above X, mixing degree-matched terms
    (z-degree g, h-degree b <= n, g + b = n + k(n-1)), terms one degree off,
    terms with h^(n+1) and powers of d."""
    dim = n + k * (n - 1)
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        b = draw(st.integers(0, n + 1))
        g = max(0, dim - b + draw(st.sampled_from([0, 0, -1, 1])))
        z = [0] * k
        for j in draw(st.lists(st.integers(0, k - 1), min_size=g, max_size=g)):
            z[j] += 1
        terms[(*z, b, draw(st.integers(0, 2)))] = draw(
            st.builds(Q, st.integers(-9, 9), st.integers(1, 6)))
    return MultiPoly(tower_context(k), terms)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=20)
@given(data=st.data())
def test_payload_integral_is_the_residue_route(n, k, data):
    P = data.draw(tower_payloads(n, k))
    expected = integrate_over_X(residue_expand(hypersurface_integrand(n, k, P)), n)
    assert payload_integral_fixed_points(n, k, P) == expected


@pytest.mark.parametrize(
    "n, k, text",
    [(1, 3, "u1+2*u3-h+d*h"), (2, 2, "(u1-u2+d*h)^4+u1^3-h^3*u2"), (3, 1, "(2*u1-h)^5*d+h^4"),
     (2, 3, "(u1+u2-2*u3+h)^5+d^2*u3^4*h")],
)
def test_payload_integral_is_the_stepwise_route(n, k, text):
    P = parse_poly(text, tower_context(k))
    expected = integrate_over_X(residue_stepwise(hypersurface_integrand(n, k, P)), n)
    assert payload_integral_fixed_points(n, k, P) == expected
