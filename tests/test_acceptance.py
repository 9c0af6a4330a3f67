"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
and timings.  Every comparison is exact rational arithmetic; the stated time
budgets are asserted as hard ceilings.
"""

import itertools
import random
import time

import pytest

from jetres.exactalg import DPoly, MultiPoly, Q, VarContext
from jetres.ggl import (
    b0,
    build_intersection_polynomial,
    payload_closed_form,
    canonical_config,
    defect,
    estimate_checks,
    euler_characteristic,
    expansion_diagnostics,
    fujiwara_certificate,
    ggl_threshold_check,
    lambda_plus_member,
)
from jetres.localization import fibre_integral_fixed_points
from jetres.residue import (
    ResidueForm,
    demailly_integrand,
    fibre_residue_integrand,
    hypersurface_integrand,
    integrate_over_X,
    residue_expand,
    residue_stepwise,
    tower_context,
)
from jetres.tower import basis_weights
from oracles import (
    abbv_sum,
    constant,
    euler_characteristic_k1_pushforward,
    grassmannian_fixed_point_data,
    grassmannian_omega,
    segre_hypersurface,
    weight_set_closed,
    weight_set_recursive,
)


def announce(number: int, ok: bool, label: str, elapsed: float, budget: float) -> None:
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {number:02d}] {mark}  {label}  ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, label
    assert elapsed < budget, f"{label}: {elapsed:.2f}s over budget {budget}s"


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
    if not terms:
        terms[tuple(0 if v != zvars[0] else deg for v in ctx.names)] = Q(1)
    return MultiPoly(ctx, terms)


def safe_lambdas(rng, n, k):
    from jetres.tower import enumerate_fixed_points, euler_value

    while True:
        vals = [Q(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
        if len(set(vals)) != n or not all(vals):
            continue
        if all(euler_value(fp, vals) != 0 for fp in enumerate_fixed_points(n, k)):
            return vals


def test_criterion_01_grassmannian():
    start = time.monotonic()
    total = abbv_sum(grassmannian_fixed_point_data())
    ok = total == 1
    omega = grassmannian_omega()
    r1 = residue_expand(omega)
    r2 = residue_stepwise(omega)
    ok = ok and r1 == r2 == MultiPoly.const(omega.ctx, 2)
    integral = constant(r1) / 2
    ok = ok and integral == 1
    announce(1, ok, "six-point sum = 1; residue form = 2, halved integral = 1", time.monotonic() - start, 1.0)


def test_criterion_02_toy_residues():
    # The two worked two-variable examples, in degree-consistent form (each
    # residue needs total z-degree -2).  The first is the form whose
    # displayed expansion is sum (-1)^i z1^(i-1) z2^(-i-1); the second pins
    # the displayed series-product coefficient 3 = coeff of z1 z2^(-3) in
    # (1/z2^2)(1+z1/z2+...)(1+2z1/z2+...).  The literal difference-only pair
    # is degree-consistent but has no negative z1 powers in its expansion,
    # so both algorithms return 0 for it; that value is pinned as well.
    start = time.monotonic()
    ctx = VarContext(("z1", "z2"))
    z1 = MultiPoly.variable(ctx, "z1")
    z2 = MultiPoly.variable(ctx, "z2")
    one = MultiPoly.const(ctx, 1)
    first = ResidueForm(one, [(z1, 1), (z1 + z2, 1)], ("z1", "z2"))
    second = ResidueForm(z2**2, [(z1, 2), (z1 - z2, 1), (2 * z1 - z2, 1)], ("z1", "z2"))
    literal = ResidueForm(one, [(z1 - z2, 1), (2 * z1 - z2, 1)], ("z1", "z2"))
    ok = residue_expand(first) == residue_stepwise(first) == MultiPoly.const(ctx, 1)
    ok = ok and residue_expand(second) == residue_stepwise(second) == MultiPoly.const(ctx, 3)
    ok = ok and residue_expand(literal).is_zero and residue_stepwise(literal).is_zero
    announce(2, ok, "toy residues 1 and 3 by both algorithms (normalized forms)", time.monotonic() - start, 1.0)


def test_criterion_03_weight_table():
    start = time.monotonic()
    lam = basis_weights(3)
    rows = [
        ([lam[0], lam[0]], {(1, 0, 0), (-2, 1, 0), (-2, 0, 1)}),
        ([lam[0], lam[1] - lam[0]], {(2, -1, 0), (-1, 1, 0), (0, -1, 1)}),
        ([lam[0], lam[2] - lam[0]], {(2, 0, -1), (0, 1, -1), (-1, 0, 1)}),
        ([lam[1], lam[0] - lam[1]], {(1, -1, 0), (-1, 2, 0), (-1, 0, 1)}),
        ([lam[1], lam[1]], {(1, -2, 0), (0, 1, 0), (0, -2, 1)}),
        ([lam[1], lam[2] - lam[1]], {(1, 0, -1), (0, 2, -1), (0, -1, 1)}),
        ([lam[2], lam[0] - lam[2]], {(1, 0, -1), (-1, 1, 0), (-1, 0, 2)}),
        ([lam[2], lam[1] - lam[2]], {(1, -1, 0), (0, 1, -1), (0, -1, 2)}),
        ([lam[2], lam[2]], {(1, 0, -2), (0, 1, -2), (0, 0, 1)}),
    ]
    ok = True
    for prefix, expected in rows:
        rec = {w.coeffs for w in weight_set_recursive(prefix, 3)}
        clo = {w.coeffs for w in weight_set_closed(prefix, 3)}
        ok = ok and rec == expected and clo == expected
    announce(3, ok, "all nine depth-2 weight sets, recursive and closed form", time.monotonic() - start, 1.0)


def test_criterion_04_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        for _ in range(20):
            P = random_homogeneous(rng, ctx, zvars, k * (n - 1))
            lams = safe_lambdas(rng, n, k)
            fixed = fibre_integral_fixed_points(n, k, P, lams)
            form = fibre_residue_integrand(n, k, P, lams)
            expand = residue_expand(form)
            stepwise = residue_stepwise(form)
            ok = ok and fixed == expand == stepwise
            if not ok:
                break
    announce(4, ok, "fixed points = expansion = stepwise, 20 payloads per (n,k)", time.monotonic() - start, 300.0)


def test_criterion_05_lambda_independence_and_degree_selection():
    start = time.monotonic()
    rng = random.Random(55)
    ok = True
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        P = random_homogeneous(rng, ctx, zvars, k * (n - 1))
        values = [
            fibre_integral_fixed_points(n, k, P, safe_lambdas(rng, n, k)) for _ in range(5)
        ]
        ok = ok and all(v == values[0] for v in values)
    # degree-mismatched payloads integrate to zero through the full pipeline
    n, k = 2, 2
    ctx = tower_context(k)
    zvars = ["z1", "z2"]
    for deg in (2, 3, 5):
        P = random_homogeneous(rng, ctx, zvars, deg, with_h=True)
        value = integrate_over_X(residue_expand(hypersurface_integrand(n, k, P)), n)
        ok = ok and value.is_zero
    announce(5, ok, "weight independence (5 tuples) and degree selection", time.monotonic() - start, 60.0)


def test_criterion_06_route_equality_hypersurface():
    start = time.monotonic()
    rng = random.Random(66)
    ok = True
    n = 2
    for k in (1, 2):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        seg = segre_hypersurface(n)
        for _ in range(10):
            P = random_homogeneous(rng, ctx, zvars, n + k * (n - 1), with_h=True)
            direct = integrate_over_X(residue_expand(hypersurface_integrand(n, k, P)), n)
            via_segre = integrate_over_X(residue_expand(demailly_integrand(n, k, P, seg)), n)
            ok = ok and direct == via_segre
    announce(6, ok, "direct hypersurface route = Segre route, n=2, k in {1,2}", time.monotonic() - start, 120.0)


def test_criterion_07_scaled_threshold_instance():
    start = time.monotonic()
    cfg = canonical_config(2)
    ok = cfg.a == (2**16, 2**8) and cfg.delta == Q(1, 2**17)
    I, p = build_intersection_polynomial(cfg)
    ok = ok and p.degree() == 2
    ok = ok and I == DPoly([0, 1]) * p  # I(d) = d p(d) exactly
    bound = 3 * 2**16
    ok = ok and fujiwara_certificate(p, bound)
    for dval in (393217, 2 * 393216, 10 * 393216, 100 * 393216):
        ok = ok and I(dval) > 0
    announce(7, ok, "n=2 certificate at 3*2^16; positivity beyond 393216 + spot checks", time.monotonic() - start, 120.0)


def test_criterion_07_stretch_n3():
    # stretch goal: same instance at n = 3 (budget 2h; runs in seconds)
    start = time.monotonic()
    rep = ggl_threshold_check(canonical_config(3))
    ok = rep.certificate and all(flag for _, flag in rep.spot_checks)
    announce(7, ok, "stretch: n=3 certificate at 3*3^24 with spot checks", time.monotonic() - start, 7200.0)


def test_criterion_08_estimate_instances():
    start = time.monotonic()
    n = 2
    cfg = canonical_config(n)
    _, p = build_intersection_polynomial(cfg)
    B0 = b0(cfg.a)
    ok = p[n] > B0 / 2
    for l in (1, 2):
        ok = ok and abs(p[n - l]) < 3 * Q(n) ** (8 * l * n) * p[n]
    table = expansion_diagnostics(n, defect_cap=4)
    ok = ok and all(lambda_plus_member(z) for (z, s, t) in table.a)
    for tab in (table.a1, table.a2):
        for (z, s, t), c in tab.items():
            if s or t or sum(z) != 0:
                continue
            D = defect(z)
            if 1 <= D <= 4:
                ok = ok and abs(c) < Q(n) ** (3 * D)
    for (z, s, t), c in table.b.items():
        if t or abs(defect(z)) > 3:
            continue
        ok = ok and payload_closed_form(cfg, z, s) == c
    announce(8, ok, "n=2 estimates: dominance, coefficient bounds, closed payload form", time.monotonic() - start, 600.0)


def test_criterion_09_euler_characteristic():
    start = time.monotonic()
    n = 2
    ok = True
    for a1 in (0, 1, 3, 4):
        ok = ok and euler_characteristic(n, 1, (a1,)) == euler_characteristic_k1_pushforward(
            n, a1
        )
    announce(9, ok, "Euler characteristics: k=1 pushforward oracle", time.monotonic() - start, 300.0)


def test_criterion_10_headline_reduced_to_computable_instances():
    # The headline degeneracy statement is not machine-checkable; its
    # computable hypotheses are exactly the certificate and estimate
    # instances above, re-asserted here as the stand-in.
    start = time.monotonic()
    rep2 = ggl_threshold_check(canonical_config(2))
    est = estimate_checks(2)
    ok = rep2.certificate and all(ok for _, ok in rep2.spot_checks)
    ok = ok and all(passed for _, passed, required, _ in est if required)
    announce(10, ok, "computable hypotheses (items 7-8) stand in for the headline result", time.monotonic() - start, 600.0)
