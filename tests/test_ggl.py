"""Intersection polynomial pipeline, lattice estimates, Euler characteristics."""

import itertools
import json
import math
import pathlib
import random
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

import jetres.exactalg
from jetres.exactalg import (
    DPoly,
    JetresError,
    MultiPoly,
    Q,
    ResourceLimitError,
    _flat,
    _graded,
    _graded_mul,
)
from jetres.ggl import (
    GGLConfig,
    _flat_terms,
    _todd_power,
    ample_condition,
    assemble_intersection_from_tables,
    b0,
    build_intersection_polynomial,
    payload_closed_form,
    canonical_config,
    defect,
    estimate_checks,
    euler_characteristic,
    euler_payload,
    expansion_diagnostics,
    fujiwara_certificate,
    ggl_threshold_check,
    intersection_payload,
    lambda_plus_member,
    s_constant,
)
from jetres.localization import payload_integral_fixed_points
from jetres.residue import (
    _tower_factors,
    hypersurface_integrand,
    integral_over_tower,
    tower_context,
)
from oracles import (
    chi_structure_sheaf,
    euler_characteristic_k1_pushforward,
    lambda_plus_member_bruteforce,
    naive_mul,
    segre_hypersurface,
)

CORPUS = pathlib.Path(__file__).parent / "corpus"


def test_s_constant_values():
    assert s_constant(2, 2, 0) == DPoly([-6])
    # n = k specialization: S = 2 - 2n^2 + n^2(n+2) delta minus n^2 delta d
    for n in (2, 3):
        delta = Q(1, 7)
        S = s_constant(n, n, delta)
        assert S[0] == 2 - 2 * n**2 + n**2 * (n + 2) * delta
        assert S[1] == -(n**2) * delta
        assert S.degree() == 1
    # direct evaluation at numbers
    S = s_constant(2, 2, Q(1, 2**17))
    assert S(10**6) == 2 - 4 * (2 + Q(1, 2**17) * (10**6 - 4))


def test_b0_values():
    assert b0((1, 1)) == 6
    assert b0((65536, 256)) == 6 * Q(2) ** 48
    assert b0((1, 1, 1)) == 1680


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
                if defect(i) == m and sum(i) == 0:
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
    assert p[2] > b0(cfg.a) / 2


def test_two_route_equality_small_config():
    # tiny weights, delta = 0: residue route equals the Segre route
    from jetres.ggl import intersection_payload
    from jetres.residue import (
        demailly_integrand,
        hypersurface_integrand,
        integrate_over_X,
        residue_expand,
    )

    cfg = GGLConfig(n=2, k=2, a=(3, 1), delta=Q(0))
    P = intersection_payload(cfg)
    v1 = integrate_over_X(residue_expand(hypersurface_integrand(2, 2, P)), 2)
    v2 = integrate_over_X(residue_expand(demailly_integrand(2, 2, P, segre_hypersurface(2))), 2)
    assert v1 == v2
    I, p = build_intersection_polynomial(cfg)
    assert v1 == I


@pytest.mark.parametrize("n, k, a, delta", [
    (2, 2, (2, 1), Q(1, 10)), (3, 3, (6, 2, 1), Q(1, 100)), (2, 3, (9, 3, 1), Q(0))])
def test_intersection_is_homogeneous_in_the_weights(n, k, a, delta):
    # the payload is a product of (k + 1)(n - 1) + 1 factors linear in a, so
    # I(d; t a) = t^((k + 1)(n - 1) + 1) I(d; a)
    I, _ = build_intersection_polynomial(GGLConfig(n=n, k=k, a=a, delta=delta))
    degree = (k + 1) * (n - 1) + 1
    for t in (2, 3):
        cfg = GGLConfig(n=n, k=k, a=tuple(t * x for x in a), delta=delta)
        assert build_intersection_polynomial(cfg)[0] == I * t**degree
        if t == 3:
            assert integral_over_tower(n, k, intersection_payload(cfg)) == I * t**degree


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


@pytest.mark.slow
def test_coefficient_route_equality_n4():
    # a second route for n = 4 that shares nothing with the fixed-point walk
    I, _ = build_intersection_polynomial(canonical_config(4))
    assert assemble_intersection_from_tables(expansion_diagnostics(4, defect_cap=4)) == I
    checks = estimate_checks(4)
    assert all(ok for _, ok, required, _ in checks if required), checks


def test_coefficient_tables_match_recorded_n2():
    # all five tables, entry for entry, at defect caps 4 and 10; the kernel
    # a against the recorded entries with s + t <= n, the only ones it keeps
    recorded = json.loads((CORPUS / "expected_tables_n2.json").read_text())
    for cap, tables in recorded.items():
        table = expansion_diagnostics(2, defect_cap=int(cap))
        for name, rows in tables.items():
            expected = {(tuple(z), s, t): Q(c) for z, s, t, c in rows
                        if name != "a" or s + t <= 2}
            assert getattr(table, name) == expected, (cap, name)


def _kernel_in_the_old_order(table, defect_cap):
    """The kernel table as (a0 a1) a2, the product order before a0 went last,
    from the table's own factors, at the grade cap of expansion_diagnostics
    and the earlier truncation on s alone (h^(n+1) = 0), restricted to the
    entries with s + t <= n that the table keeps."""
    n = table.n
    cap = defect_cap + 2 * n * n
    weights = tuple(range(n, 0, -1)) + (n, n)

    def graded(tab):
        flat = MultiPoly(tower_context(n), {z + (s, t): c for (z, s, t), c in tab.items()})
        return _graded(flat, weights, cap, n, n)

    a01 = _graded_mul(graded(table.a0), graded(table.a1), cap)
    a, den = _flat(_graded_mul(a01, graded(table.a2), cap))
    return {(e[:n], e[n], e[n + 1]): Q(c, den) for e, c in a.items() if e[n] + e[n + 1] <= n}


@pytest.mark.parametrize("n, defect_cap", [(2, cap) for cap in range(5)] + [(3, 4)],
                         ids=[str(cap) for cap in range(5)] + ["n3-cap4"])
def test_kernel_table_is_the_old_product_order(n, defect_cap):
    table = expansion_diagnostics(n, defect_cap)
    assert table.a == _kernel_in_the_old_order(table, defect_cap)


def _factors_by_hand(n):
    """The kernel's factors written out by hand, each divided by its leading
    variable z_j, as graded buckets in the flat exponents (z_1..z_n, s, t) of
    z^i h^s dh^t: (numerators, denominators) of a0, a1 and a2."""
    weights = tuple(range(n, 0, -1)) + (n, n)

    def over_zj(j, lower, s=0, t=0):
        # 1 + (sum_i lower[i] z_i + h^s dh^t) / z_j
        terms = {(0,) * (n + 2): Q(1)}
        for i, c in lower.items():
            terms[tuple(int(u == i) - int(u == j) for u in range(1, n + 1)) + (0, 0)] = Q(c)
        if s or t:
            terms[tuple(-int(u == j) for u in range(1, n + 1)) + (s, t)] = Q(1)
        out = {}
        for e, c in terms.items():
            out.setdefault(sum(w * x for w, x in zip(weights, e)), {})[e] = c
        return out

    levels = range(1, n + 1)
    return {
        # z_[1..j] + dh
        "a0": ([over_zj(j, {i: 1 for i in range(1, j)}, t=1) for j in levels], []),
        # z_[t..j] over -z_t + z_[t+1..j], t < j
        "a1": ([over_zj(j, {i: 1 for i in range(t, j)}) for j in levels for t in range(1, j)],
               [over_zj(j, {t: -1, **{i: 1 for i in range(t + 1, j)}})
                for j in levels for t in range(1, j)]),
        # (z_[1..j] + h)^(n+2)
        "a2": ([], [over_zj(j, {i: 1 for i in range(1, j)}, s=1)
                    for j in levels for _ in range(n + 2)]),
    }


@pytest.mark.parametrize("n, defect_cap", [(2, cap) for cap in (0, 1, 2, 3, 4, 10)] + [(3, 4)],
                         ids=[str(cap) for cap in (0, 1, 2, 3, 4, 10)] + ["n3-cap4"])
def test_factor_tables_are_exact_laurent_coefficients(n, defect_cap):
    # each of a0, a1, a2 times its denominators is the product of its
    # numerators at every grade up to defect_cap + 2n^2 and up to every grade
    # the table holds: an entry past the series' cut would be a partial sum
    table = expansion_diagnostics(n, defect_cap)
    weights = tuple(range(n, 0, -1)) + (n, n)
    for name, (numerators, denominators) in _factors_by_hand(n).items():
        entries = {z + (s, t): c for (z, s, t), c in getattr(table, name).items()}
        grade = {e: sum(w * x for w, x in zip(weights, e)) for e in entries}
        cap = max([defect_cap + 2 * n * n, *grade.values()])
        lhs = {}
        for e, c in entries.items():
            lhs.setdefault(grade[e], {})[e] = c
        for f in denominators:
            lhs = naive_mul(lhs, f, cap, n, n)
        rhs = {0: {(0,) * (n + 2): Q(1)}}
        for f in numerators:
            rhs = naive_mul(rhs, f, cap, n, n)
        assert lhs == rhs, name


def test_kernel_table_pair_products(monkeypatch):
    # a deterministic work guard: the monomial pair products that the kernel
    # multiplies (those the truncation keeps) for the n = 3 tables, 57,757
    kernel = jetres.exactalg._mac
    pairs = 0

    def counted(acc, a, b, limit):
        nonlocal pairs
        keys = [k for k, _ in a]
        pairs += sum(bisect_left(keys, limit - k) for k, _ in b)
        return kernel(acc, a, b, limit)

    monkeypatch.setattr(jetres.exactalg, "_mac", counted)
    expansion_diagnostics(3, 4)
    assert 0 < pairs <= 59_000


def test_a_d_without_h_is_an_internal_fault():
    # every factor of the kernel holds d only as dh
    d = MultiPoly.variable(tower_context(2), "d")
    with pytest.raises(JetresError, match="internal: d without matching h"):
        _flat_terms(d, [0, 0])


def test_diagnostics_needs_n_at_least_2():
    with pytest.raises(ValueError, match="n must be >= 2"):
        expansion_diagnostics(1, 0)


def test_diagnostics_term_cap():
    # the largest product of the n = 2 tables at cap 4 has 73 terms
    with pytest.raises(ResourceLimitError, match="expansion_diagnostics exceeded 72 terms"):
        expansion_diagnostics(2, 4, max_terms=72)
    expansion_diagnostics(2, 4, max_terms=73)


def test_payload_closed_form_spot_values():
    cfg = canonical_config(2)
    table = expansion_diagnostics(2, defect_cap=4)
    for (z, s, t), c in table.b.items():
        if t:
            continue
        assert payload_closed_form(cfg, z, s) == c


def test_estimates_n2():
    checks = estimate_checks(2)
    assert all(ok for _, ok, required, _ in checks if required), checks
    names = [name for name, ok, req, _ in checks]
    assert any("p_n > B0/2" in n for n in names)


def test_threshold_n2():
    rep = ggl_threshold_check(canonical_config(2))
    assert rep.certificate
    assert rep.bound == 3 * 2**16
    assert all(ok for _, ok in rep.spot_checks)
    assert rep.spot_checks[0][0] == 6 * 2**16 + 1


def test_threshold_n3():
    rep = ggl_threshold_check(canonical_config(3))
    assert rep.certificate
    assert all(ok for _, ok in rep.spot_checks)


def test_threshold_n4():
    rep = ggl_threshold_check(canonical_config(4))
    assert rep.certificate
    assert all(ok for _, ok in rep.spot_checks)
    assert rep.intersection.degree() == 5


@pytest.mark.slow
def test_threshold_n5():
    rep = ggl_threshold_check(canonical_config(5))
    assert rep.certificate
    assert all(ok for _, ok in rep.spot_checks)
    assert rep.intersection.degree() == 6


@pytest.mark.slow
def test_threshold_n6_pins_p():
    # p(d) of the canonical n = 6 instance as `jetres ggl -n 6` printed it
    # (about 30 s, all by fixed points)
    recorded = json.loads((CORPUS / "p_ggl_n6.json").read_text())
    rep = ggl_threshold_check(canonical_config(6))
    assert rep.certificate
    assert all(ok for _, ok in rep.spot_checks)
    assert list(rep.p.coeffs) == [Q(int(c["num"]), int(c["den"])) for c in recorded["p"]]


@given(
    st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, 30), min_size=1, max_size=3),
        st.fractions(min_value=0, max_value=10, max_denominator=12),
    ))
)
def test_localization_matches_the_residue_route(case):
    n, a, delta = case
    cfg = GGLConfig(n=n, k=len(a), a=tuple(a), delta=delta)
    I, _ = build_intersection_polynomial(cfg)
    assert I == integral_over_tower(n, cfg.k, intersection_payload(cfg))


def test_localization_rejects_a_disagreeing_draw(monkeypatch):
    # n = 2 takes p(2) + 1 = 3 draws; with the e_i of the last one off by
    # one, the interpolant from the first two cannot fit it
    import jetres.localization as loc

    real, calls = loc._elementary, []

    def skewed(lams):
        calls.append(lams)
        e = real(lams)
        return e if len(calls) < 3 else [x + 1 for x in e]

    monkeypatch.setattr(loc, "_elementary", skewed)
    with pytest.raises(JetresError, match="not one symmetric polynomial"):
        build_intersection_polynomial(canonical_config(2))


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


def _convolved(x, y):
    return [sum(x[i] * y[g - i] for i in range(g + 1)) for g in range(len(x))]


def test_todd_power_is_the_power_of_the_todd_series():
    # Td(x) = x / (1 - e^(-x)) = 1 + x/2 + x^2/12 - x^4/720 + ...
    assert _todd_power(1, 6) == [1, Q(1, 2), Q(1, 12), 0, Q(-1, 720), 0, Q(1, 30240)]
    assert _todd_power(-1, 4) == [1, Q(-1, 2), Q(1, 6), Q(-1, 24), Q(1, 120)]
    assert _todd_power(0, 5) == [1, 0, 0, 0, 0, 0]
    for m in range(-4, 6):
        power = _todd_power(m, 9)
        assert _convolved(power, _todd_power(-m, 9)) == [1] + [0] * 9
        assert _convolved(power, _todd_power(1, 9)) == _todd_power(m + 1, 9)


def test_chi_structure_sheaf_classical():
    assert chi_structure_sheaf(2) == DPoly([0, Q(11, 6), -1, Q(1, 6)])
    chi3 = chi_structure_sheaf(3)
    for d in (1, 2, 3, 5, 6, 9):
        assert chi3(d) == 1 - math.comb(d - 1, 4)


class _FactorsRead(Exception):
    """Stops a job once it has read the integrand's factor list."""


@pytest.mark.parametrize("n, k", [(1, 3), (2, 2), (3, 3), (4, 4)])
def test_tables_and_chi_read_the_integrands_denominators(n, k, monkeypatch):
    # chi's Todd class and (at k = n) the diagnostics tables read the
    # hypersurface integrand's denominators, in its order
    read = []

    def spy(*args):
        read.append(_tower_factors(*args)[1])
        raise _FactorsRead

    monkeypatch.setattr("jetres.ggl._tower_factors", spy)
    jobs = [lambda: euler_payload.__wrapped__(n, k, (1,) * k)]  # past the cache
    if n == k:
        jobs.append(lambda: expansion_diagnostics(n, 0))
    for job in jobs:
        with pytest.raises(_FactorsRead):
            job()
    form = hypersurface_integrand(n, k, MultiPoly.const(tower_context(k), 1))
    assert read == [list(form.factors)] * len(jobs)


def test_euler_characteristic_k1_oracle():
    for a1 in (0, 1, 2, 3, 5):
        assert euler_characteristic(2, 1, (a1,)) == euler_characteristic_k1_pushforward(2, a1)


def test_euler_characteristic_k1_oracle_n3():
    for a1 in (0, 2, 4):
        assert euler_characteristic(3, 1, (a1,)) == euler_characteristic_k1_pushforward(3, a1)


def test_euler_characteristic_is_chi_of_o_minus_a():
    # chi(X_k, O_(X_k)(-a)) with z_j = c_1(O_(X_j)(1)) (Demailly's convention).
    # On a plane curve X_1 = X and O_(X_1)(1) = K_X, so a = (-m,) gives
    # chi(K_X^m) = (2m - 1)(g - 1) = (m - 1/2) d(d - 3)
    for m in range(4):
        assert euler_characteristic(1, 1, (-m,)) == DPoly([0, -3 * (m - Q(1, 2)), m - Q(1, 2)])
    # on a surface in P^3, O_(X_1)(1) pushes forward to Omega^1_X, and
    # O_(X_1)(-1) has no cohomology on the fibres
    omega1 = DPoly([0, Q(-7, 3), 2, Q(-2, 3)])
    assert omega1(4) == -20  # a quartic K3: chi(Omega^1) = -h^(1,1)
    assert euler_characteristic(2, 1, (0,)) == chi_structure_sheaf(2)
    assert euler_characteristic(2, 1, (-1,)) == omega1
    assert euler_characteristic(2, 1, (1,)).is_zero


@pytest.mark.slow
def test_euler_characteristic_n4_k4_pins_chi():
    # about 10 s; the value of the earlier route, which built the tower's
    # Todd class level by level and sent every degree up to dim + n to the
    # kernel, and of fixed-point localization on the same payload
    a = (65536, 4096, 256, 16)
    chi = euler_characteristic(4, 4, a)
    # the arguments euler_characteristic passes, so the cached payload is reused
    assert payload_integral_fixed_points(4, 4, euler_payload(4, 4, a)) == chi
    assert chi == DPoly([
        0,
        Q(26584056079425132797075803954594204710073001514657851, 20),
        Q(-4996352907494350595443177310737276649153727004079699, 8),
        Q(174135725873259236721472724696079230851899789397787, 8),
        Q(-274430666333629955850885449535341789644404050421, 8),
        Q(96000760945568303780641838451738205674719523, 40),
    ])


@pytest.mark.parametrize("a, chi", [
    ((27, 9, 3), DPoly([0, Q(755006045, 12), Q(-804844525, 24), Q(52753165, 12),
                        Q(-3779615, 24)])),
    # steep ample weights: chi vanishes for every d
    ((729, 27, 1), DPoly([0])),
], ids=["27-9-3", "729-27-1"])
def test_euler_characteristic_n3_k3_pins_chi(a, chi):
    # the values the Segre-cleared kernel gave before chi ran through
    # integral_over_tower
    assert euler_characteristic(3, 3, a) == chi


def test_euler_characteristic_zero_weights():
    chi0 = chi_structure_sheaf(2)
    for k in (1, 2):
        assert euler_characteristic(2, k, (0,) * k) == chi0


def test_euler_characteristic_trailing_zero_reduces_level():
    for a1 in (1, 3, 5):
        assert euler_characteristic(2, 2, (a1, 0)) == euler_characteristic(2, 1, (a1,))


def test_config_validation():
    # the canonical weights n^(8(n+1-i)) are not integers below n = 1
    for n in (1, 0, -1, -2):
        with pytest.raises(ValueError, match="n must be >= 2"):
            canonical_config(n)
    with pytest.raises(ValueError):
        GGLConfig(n=1, k=1, a=(1,), delta=Q(0))
    with pytest.raises(ValueError):
        GGLConfig(n=2, k=2, a=(1,), delta=Q(0))
    with pytest.raises(ValueError):
        GGLConfig(n=2, k=2, a=(0, 1), delta=Q(0))
    with pytest.raises(ValueError):
        GGLConfig(n=2, k=2, a=(1, 1), delta=Q(-1))
