"""Intersection polynomial pipeline, lattice estimates, Euler characteristics."""

import itertools
import json
import math
import pathlib
import random

import pytest

from jetres.exactalg import DPoly, Q
from jetres.ggl import (
    GGLConfig,
    ample_condition,
    assemble_intersection_from_tables,
    b0,
    build_intersection_polynomial,
    payload_closed_form,
    canonical_config,
    chi_structure_sheaf,
    defect,
    estimate_checks,
    euler_characteristic,
    euler_characteristic_k1_pushforward,
    expansion_diagnostics,
    fujiwara_certificate,
    ggl_threshold_check,
    lambda_plus_member,
    lambda_plus_member_bruteforce,
    s_constant,
)

CORPUS = pathlib.Path(__file__).parent / "corpus"


def test_s_constant_values():
    assert s_constant(2, 2, 0).constant() == -6
    # n = k specialization: S = 2 - 2n^2 + n^2(n+2) delta minus n^2 delta d
    for n in (2, 3):
        delta = Q(1, 7)
        S = s_constant(n, n, delta)
        d_free = S.coefficient_of({"d": 0}).constant()
        d_coef = S.coefficient_of({"d": 1}).constant()
        assert d_free == 2 - 2 * n**2 + n**2 * (n + 2) * delta
        assert d_coef == -(n**2) * delta
    # direct evaluation at numbers
    S = s_constant(2, 2, Q(1, 2**17))
    assert S.evaluate({"d": 10**6}) == 2 - 4 * (2 + Q(1, 2**17) * (10**6 - 4))


def test_b0_values():
    assert b0(2, (1, 1)) == 6
    assert b0(2, (65536, 256)) == 6 * Q(2) ** 48
    assert b0(3, (1, 1, 1)) == 1680


def test_defect_examples():
    assert defect((1, -1)) == 1
    assert lambda_plus_member((1, -1))
    assert lambda_plus_member((-1, 0)) and not lambda_plus_member((1, 0))
    for n in (2, 3, 4, 5):
        for l in range(1, n + 1):
            il = [0] * (n - l) + [-1] * l
            assert defect(il) == -l * (l + 1) // 2


def test_lambda_plus_vs_bruteforce():
    for n in (2, 3):
        for i in itertools.product(range(-3, 4), repeat=n):
            assert lambda_plus_member(i) == lambda_plus_member_bruteforce(i, 8), i


def _member_by_adjacent_flow(i):
    # independent decision route: adjacent-root flows f_t >= 0 with
    # i_t = f_t - f_(t-1) - b_t; greedy minimal flows f_t = max(0, f_(t-1)+i_t)
    f = 0
    for x in i[:-1]:
        f = max(0, f + x)
    return f + i[-1] <= 0


def test_lambda_plus_n4_against_flow_oracle():
    for i in itertools.product(range(-3, 4), repeat=4):
        assert lambda_plus_member(i) == _member_by_adjacent_flow(i), i


def test_decomposition_count_bound():
    # number of cone points with zero sum and defect m is at most (n-1)^m
    for n in (2, 3, 4):
        for m in range(1, 6):
            count = 0
            # zero-sum cone points are root combinations: enumerate adjacent
            # flows f in [0..m]^(n-1) with sum of defects = m
            seen = set()
            for f in itertools.product(range(m + 1), repeat=n - 1):
                if sum(f) != m:
                    continue
                i = tuple(
                    (f[t] if t < n - 1 else 0) - (f[t - 1] if t >= 1 else 0)
                    for t in range(n)
                )
                if defect(i, n) == m and sum(i) == 0:
                    seen.add(i)
            assert len(seen) <= (n - 1) ** m


def test_fujiwara_examples():
    assert not fujiwara_certificate(DPoly([1, 1, 1]), 1)
    assert fujiwara_certificate(DPoly([1, 1, 1]), 2)
    assert not fujiwara_certificate(DPoly([-10, 1]), 10)
    assert fujiwara_certificate(DPoly([-10, 1]), 11)
    with pytest.raises(ValueError):
        fujiwara_certificate(DPoly([]), 1)


def test_fujiwara_soundness_random():
    rng = random.Random(12)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 4)
        coeffs = [Q(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)] + [
            Q(rng.randint(1, 20))
        ]
        p = DPoly(coeffs)
        D = Q(rng.randint(1, 30))
        if not fujiwara_certificate(p, D):
            continue
        checked += 1
        for _ in range(100):
            d = 2 * D + Q(rng.randint(1, 10**6), rng.randint(1, 100))
            assert p(d) > 0


def test_build_intersection_polynomial_n2():
    cfg = canonical_config(2)
    assert cfg.a == (2**16, 2**8) and cfg.delta == Q(1, 2**17)
    I, p = build_intersection_polynomial(cfg)
    assert I == DPoly([0]) + DPoly([0] + list(p.coeffs))  # I = d * p exactly
    assert p.degree() == 2
    assert p[2] > b0(2, cfg.a) / 2


def test_two_route_equality_small_config():
    # tiny weights, delta = 0: residue route equals the Segre route
    from jetres.ggl import intersection_payload
    from jetres.residue import (
        demailly_integrand,
        hypersurface_integrand,
        integrate_over_X,
        residue_expand,
        segre_hypersurface,
    )

    cfg = GGLConfig(n=2, k=2, a=(3, 1), delta=Q(0))
    P = intersection_payload(cfg)
    v1 = integrate_over_X(residue_expand(hypersurface_integrand(2, 2, P)), 2)
    v2 = integrate_over_X(residue_expand(demailly_integrand(2, 2, P, segre_hypersurface(2))), 2)
    assert v1 == v2
    I, p = build_intersection_polynomial(cfg)
    assert v1 == I


def test_coefficient_route_equality_n2():
    cfg = canonical_config(2)
    I, _ = build_intersection_polynomial(cfg)
    table = expansion_diagnostics(2, defect_cap=10)
    assert assemble_intersection_from_tables(table) == I


@pytest.mark.slow
def test_coefficient_route_equality_n3():
    cfg = canonical_config(3)
    I, _ = build_intersection_polynomial(cfg)
    table = expansion_diagnostics(3, defect_cap=20)
    assert assemble_intersection_from_tables(table) == I


def test_coefficient_tables_match_recorded_n2():
    # all five tables, entry for entry, at defect caps 4 and 10
    recorded = json.loads((CORPUS / "expected_tables_n2.json").read_text())
    for cap, tables in recorded.items():
        table = expansion_diagnostics(2, defect_cap=int(cap))
        for name, rows in tables.items():
            expected = {(tuple(z), s, t): Q(c) for z, s, t, c in rows}
            assert getattr(table, name) == expected, (cap, name)


def test_payload_closed_form_spot_values():
    cfg = canonical_config(2)
    table = expansion_diagnostics(2, defect_cap=4)
    for (z, s, t), c in table.b.items():
        if t:
            continue
        assert payload_closed_form(cfg, z, s) == c


def test_estimates_n2():
    rep = estimate_checks(2)
    assert rep.all_passed, rep.summary()
    names = [name for name, ok, req, _ in rep.checks]
    assert any("p_n > B0/2" in n for n in names)


def test_threshold_n2():
    rep = ggl_threshold_check(2)
    assert rep.certificate
    assert rep.bound == 3 * 2**16
    assert all(ok for _, ok in rep.spot_checks)
    assert rep.spot_checks[0][0] == 6 * 2**16 + 1


def test_threshold_n3():
    rep = ggl_threshold_check(3)
    assert rep.certificate
    assert all(ok for _, ok in rep.spot_checks)


@pytest.mark.slow
def test_threshold_n4():
    rep = ggl_threshold_check(4)
    assert rep.certificate
    assert all(ok for _, ok in rep.spot_checks)
    assert rep.intersection.degree() == 5


def test_ample_condition():
    for n in (2, 3, 5):
        assert ample_condition((n**16, n**8)) == "relatively_ample"
    assert ample_condition((2, 1)) == "relatively_nef"
    assert ample_condition((1, 2)) == "neither"
    assert ample_condition((27, 9, 3)) == "relatively_ample"  # 3x chain is non-strict
    assert ample_condition((30, 10, 5)) == "relatively_nef"  # a_(k-1) = 2 a_k boundary
    assert ample_condition((27, 9, 5)) == "neither"  # last step fails both ways
    assert ample_condition((26, 9, 1)) == "neither"  # broken 3x chain
    assert ample_condition((27, 9, 1)) == "relatively_ample"
    assert ample_condition((5,)) == "relatively_ample"
    with pytest.raises(ValueError):
        ample_condition(())


def test_chi_structure_sheaf_classical():
    assert chi_structure_sheaf(2) == DPoly([0, Q(11, 6), -1, Q(1, 6)])
    chi3 = chi_structure_sheaf(3)
    for d in (1, 2, 3, 5, 6, 9):
        assert chi3(d) == 1 - math.comb(d - 1, 4)


def test_euler_characteristic_k1_oracle():
    for a1 in (0, 1, 2, 3, 5):
        assert euler_characteristic(2, 1, (a1,)) == euler_characteristic_k1_pushforward(2, a1)


def test_euler_characteristic_k1_oracle_n3():
    for a1 in (0, 2, 4):
        assert euler_characteristic(3, 1, (a1,)) == euler_characteristic_k1_pushforward(3, a1)


@pytest.mark.slow
def test_euler_characteristic_n3_k2_truncation_stable():
    dim = 3 + 2 * 2
    base = euler_characteristic(3, 2, (9, 3))
    assert euler_characteristic(3, 2, (9, 3), budget=dim + 3 + 2) == base


def test_euler_characteristic_zero_weights():
    chi0 = chi_structure_sheaf(2)
    for k in (1, 2):
        assert euler_characteristic(2, k, (0,) * k) == chi0


def test_euler_characteristic_trailing_zero_reduces_level():
    for a1 in (1, 3, 5):
        assert euler_characteristic(2, 2, (a1, 0)) == euler_characteristic(2, 1, (a1,))


def test_euler_characteristic_truncation_stable():
    for k in (1, 2):
        a = (3, 1)[:k]
        dim = 2 + k
        base = euler_characteristic(2, k, a)
        assert euler_characteristic(2, k, a, budget=dim + 2 + 2) == base
        assert euler_characteristic(2, k, a, budget=dim + 2 + 4) == base


def test_config_validation():
    with pytest.raises(ValueError):
        GGLConfig(n=1, k=1, a=(1,), delta=Q(0))
    with pytest.raises(ValueError):
        GGLConfig(n=2, k=2, a=(1,), delta=Q(0))
    with pytest.raises(ValueError):
        GGLConfig(n=2, k=2, a=(0, 1), delta=Q(0))
    with pytest.raises(ValueError):
        GGLConfig(n=2, k=2, a=(1, 1), delta=Q(-1))
