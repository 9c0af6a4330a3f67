"""Iterated residues: engines against each other and against fixed points."""

import itertools
import random

import pytest

from jetres.exactalg import (
    ContextError,
    DPoly,
    HD_CTX,
    MultiPoly,
    Q,
    ResourceLimitError,
    VarContext,
)
from jetres.ggl import canonical_config, intersection_payload
from jetres.localization import fibre_integral_fixed_points
from jetres.residue import (
    NotResidueIntegrableError,
    ResidueForm,
    demailly_integrand,
    fibre_residue_integrand,
    grassmannian_omega,
    hypersurface_integrand,
    integral_over_tower,
    integrate_over_X,
    orientation_sign,
    reflect_payload,
    residue_expand,
    residue_stepwise,
    segre_hypersurface,
    tower_context,
    _plus_kernel,
    _zsum,
)

Z2CTX = VarContext(("z1", "z2"))
TZ1 = MultiPoly.variable(Z2CTX, "z1")
TZ2 = MultiPoly.variable(Z2CTX, "z2")


def both_engines(form):
    a = residue_expand(form)
    b = residue_stepwise(form)
    assert a == b, (a.to_text(), b.to_text())
    return a


def test_toy_residue_single_zero_pair():
    # 1/(z1 (z1+z2)): the two-variable form whose expansion on |z1| << |z2|
    # is sum (-1)^i z1^(i-1) z2^(-i-1); its residue is exactly 1
    form = ResidueForm(MultiPoly.const(Z2CTX, 1), [(TZ1, 1), (TZ1 + TZ2, 1)], ("z1", "z2"))
    assert both_engines(form) == 1


def test_toy_residue_weighted_pair():
    # z2^2/(z1^2 (z1-z2)(2 z1-z2)) = 3: the coefficient the worked example
    # extracts from (1/z2^2)(1+z1/z2+...)(1+2 z1/z2+...)
    form = ResidueForm(
        TZ2**2, [(TZ1, 2), (TZ1 - TZ2, 1), (2 * TZ1 - TZ2, 1)], ("z1", "z2")
    )
    assert both_engines(form) == 3


def test_toy_residue_literal_difference_pair_vanishes():
    # the two factors share their leading variable, so no negative z1 powers
    # ever appear and the residue is identically zero (both engines)
    form = ResidueForm(
        MultiPoly.const(Z2CTX, 1), [(TZ1 - TZ2, 1), (2 * TZ1 - TZ2, 1)], ("z1", "z2")
    )
    assert both_engines(form).is_zero


def test_toy_series_product_coefficients():
    # the expansion of 1/((z1-z2)(2 z1-z2)) on |z1| << |z2| is
    # (1/z2^2) sum_m (2^(m+1)-1) (z1/z2)^m; pin the coefficients by shifting
    # the target monomial with z2^(m+1)/z1^(m+1)
    for m in range(5):
        form = ResidueForm(
            TZ2 ** (m + 1),
            [(TZ1, m + 1), (TZ1 - TZ2, 1), (2 * TZ1 - TZ2, 1)],
            ("z1", "z2"),
        )
        assert both_engines(form) == 2 ** (m + 1) - 1


def test_orientation_normalization():
    # Res dz/(z1...zk) = (-1)^k under the single orientation constant
    for k in (1, 2, 3):
        ctx = VarContext(tuple(f"z{i}" for i in range(1, k + 1)))
        factors = [(MultiPoly.variable(ctx, f"z{i}"), 1) for i in range(1, k + 1)]
        form = ResidueForm(MultiPoly.const(ctx, 1), factors, ctx.names)
        assert both_engines(form) == orientation_sign(k)
        assert orientation_sign(k) == Q(-1) ** k


def test_grassmannian_form_both_engines():
    sym = grassmannian_omega()
    val = both_engines(sym)
    assert val == MultiPoly.const(sym.ctx, 2)
    num = grassmannian_omega([1, Q(3, 2), -2, 5])
    assert both_engines(num) == 2


def test_zfree_factor_rejected():
    ctx = VarContext(("z1", "h"))
    h = MultiPoly.variable(ctx, "h")
    form = ResidueForm(MultiPoly.const(ctx, 1), [(h + 1, 1)], ("z1",))
    with pytest.raises(NotResidueIntegrableError):
        residue_expand(form)
    with pytest.raises(NotResidueIntegrableError):
        residue_stepwise(form)


def test_nonlinear_factor_rejected():
    with pytest.raises(NotResidueIntegrableError):
        ResidueForm(MultiPoly.const(Z2CTX, 1), [(TZ1 * TZ2, 1)], ("z1", "z2"))


def random_residue_form(rng, k=3, coeff_ctx=()):
    ctx = VarContext(tuple(f"z{i}" for i in range(1, k + 1)) + tuple(coeff_ctx))
    factors = []
    for _ in range(rng.randint(k, k + 3)):
        while True:
            zc = [rng.randint(-2, 2) for _ in range(k)]
            if any(zc):
                break
        terms = {}
        for i, c in enumerate(zc):
            if c:
                e = [0] * len(ctx)
                e[i] = 1
                terms[tuple(e)] = Q(c)
        const = rng.randint(-3, 3)
        if const:
            terms[(0,) * len(ctx)] = Q(const)
        factors.append((MultiPoly(ctx, terms), 1))
    # moderate numerator
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * len(ctx)
        for i in range(k):
            e[i] = rng.randint(0, 2)
        terms[tuple(e)] = terms.get(tuple(e), Q(0)) + Q(rng.randint(-5, 5))
    numerator = MultiPoly(ctx, terms)
    if numerator.is_zero:
        numerator = MultiPoly.const(ctx, 1)
    return ResidueForm(numerator, factors, tuple(f"z{i}" for i in range(1, k + 1)))


def test_engines_agree_on_random_forms():
    rng = random.Random(100)
    done = 0
    while done < 50:
        k = rng.choice((1, 2, 3))
        form = random_residue_form(rng, k)
        a = residue_expand(form)
        b = residue_stepwise(form)
        assert a == b, (form.numerator.to_text(), a.to_text(), b.to_text())
        done += 1


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


def safe_lambdas(rng, n, k):
    # redraw until no weight collision occurs anywhere in the tower
    from jetres.tower import enumerate_fixed_points, euler_value

    while True:
        lams = distinct_lambdas(rng, n)
        if all(euler_value(fp, lams) != 0 for fp in enumerate_fixed_points(n, k)):
            return lams


def test_fibre_residue_equals_fixed_points_deep_tower():
    # four levels over the line: 16 chains, degree-4 payloads
    rng = random.Random(40)
    n, k = 2, 4
    ctx = tower_context(k)
    zvars = [f"z{i}" for i in range(1, k + 1)]
    for _ in range(3):
        P = random_homogeneous(rng, ctx, zvars, k * (n - 1))
        lams = safe_lambdas(rng, n, k)
        fp = fibre_integral_fixed_points(n, k, P, lams)
        assert fp == both_engines(fibre_residue_integrand(n, k, P, lams))


def test_fibre_residue_equals_fixed_points():
    rng = random.Random(41)
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        for _ in range(5):
            P = random_homogeneous(rng, ctx, zvars, k * (n - 1))
            lams = safe_lambdas(rng, n, k)
            fp = fibre_integral_fixed_points(n, k, P, lams)
            form = fibre_residue_integrand(n, k, P, lams)
            assert fp == both_engines(form)


def test_fibre_integrand_structure():
    # numerator sign-bearing factor count (k-1)k/2; z-only denominator factor
    # count (k-1)k/2; total degree of the fraction with the payload is -k
    for n, k in ((2, 2), (3, 3), (2, 4)):
        ctx = tower_context(k, n=n)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        P = MultiPoly.monomial(ctx, {"z1": k * (n - 1)})
        form = fibre_residue_integrand(n, k, P)
        z_only = [poly for poly, _ in form.factors if poly.variables_used() <= set(zvars)]
        assert len(z_only) == (k - 1) * k // 2
        assert len(form.factors) == (k - 1) * k // 2 + n * k
        num_deg = form.numerator.total_degree()
        assert num_deg == k * (n - 1) + (k - 1) * k // 2
        den_deg = sum(m for _, m in form.factors)
        assert num_deg - den_deg == -k


def test_fibre_residue_symbolic_lambdas_small():
    # symbolic weights at n=2, k=2: matches the numeric evaluation
    rng = random.Random(43)
    n, k = 2, 2
    ctx = tower_context(k, n=n)
    zvars = [f"z{i}" for i in range(1, k + 1)]
    P = random_homogeneous(rng, ctx, zvars, k * (n - 1))
    sym = residue_expand(fibre_residue_integrand(n, k, P))
    for _ in range(3):
        lams = distinct_lambdas(rng, n)
        numeric = sym.evaluate({"L1": lams[0], "L2": lams[1]})
        restricted = P.restrict(tower_context(k))
        direct = fibre_integral_fixed_points(n, k, restricted, lams)
        assert numeric == direct.constant()


def test_segre_hypersurface_values():
    seg = segre_hypersurface(1)
    h = MultiPoly.variable(HD_CTX, "h")
    d = MultiPoly.variable(HD_CTX, "d")
    assert seg == ((d - 3) * h,)
    # c * s = 1 mod h^(n+1) for n <= 6
    for n in range(1, 7):
        seg = segre_hypersurface(n)
        c = ((1 + h) ** (n + 2) * (1 + d * h).series_inverse(2 * n)).truncate("h", n)
        s = MultiPoly.const(HD_CTX, 1)
        for cls in seg:
            s = s + cls
        assert (c * s).truncate("h", n) == MultiPoly.const(HD_CTX, 1)
    # d = 0 placeholder: s(X) = (1+h)^-(n+2) truncated
    seg0 = segre_hypersurface(3, 0)
    inv = ((1 + h) ** 5).series_inverse(3).truncate("h", 3)
    total = MultiPoly.const(HD_CTX, 1)
    for cls in seg0:
        total = total + cls
    assert total == inv


def test_hypersurface_integrand_structure_n2_k2():
    ctx = tower_context(2)
    P = MultiPoly.monomial(ctx, {"z1": 2, "z2": 2})
    form = hypersurface_integrand(2, 2, P)
    z1 = MultiPoly.variable(ctx, "z1")
    z2 = MultiPoly.variable(ctx, "z2")
    h = MultiPoly.variable(ctx, "h")
    d = MultiPoly.variable(ctx, "d")
    # denominator (-z1+z2)(z1+h)^4(z1+z2+h)^4
    expected_factors = {(z2 - z1, 1), (z1 + h, 4), (z1 + z2 + h, 4)}
    assert set(form.factors) == expected_factors
    # numerator z1*z2*(z1+z2)*(z1+dh)(z1+z2+dh)*P, sign (+1)^k at k=2, cut to
    # h^b with b <= 2 and z1^a h^b with a + b <= M_1 + n - 1 = 4 + 1
    full = z1 * z2 * (z1 + z2) * (z1 + d * h) * (z1 + z2 + d * h) * P
    ih, i1 = ctx.index("h"), ctx.index("z1")
    expected = MultiPoly(
        ctx, {e: c for e, c in full.terms.items() if e[ih] <= 2 and e[i1] + e[ih] <= 5}
    )
    assert form.numerator == expected
    assert 0 < len(expected.terms) < len(full.truncate("h", 2).terms)


def test_route_equality_hypersurface_vs_segre():
    rng = random.Random(45)
    for k in (1, 2):
        n = 2
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        seg = segre_hypersurface(n)
        for _ in range(10):
            P = random_homogeneous(rng, ctx, zvars, n + k * (n - 1), with_h=True)
            v1 = integrate_over_X(residue_expand(hypersurface_integrand(n, k, P)), n)
            v2 = integrate_over_X(residue_expand(demailly_integrand(n, k, P, seg)), n)
            assert v1 == v2


def test_trivial_segre_matches_reflected_fibre_form():
    # s(X) = 1 (trivial tangent data): the Segre route equals the fibre
    # machinery with all weights zero, after bridging the two payload
    # conventions by z -> -z
    rng = random.Random(46)
    for n, k in ((2, 1), (2, 2), (3, 2)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        P = random_homogeneous(rng, ctx, zvars, k * (n - 1))
        via_segre = residue_expand(demailly_integrand(n, k, P, (MultiPoly.zero(HD_CTX),) * n))
        refl = reflect_payload(P, k)
        numerator = refl
        for t1 in range(2, k + 1):
            for t2 in range(t1, k + 1):
                numerator = numerator * (-_zsum(ctx, t1, t2))
        factors = []
        for s1 in range(1, k + 1):
            for s2 in range(s1 + 1, k + 1):
                factors.append(
                    (MultiPoly.variable(ctx, f"z{s1}") - _zsum(ctx, s1 + 1, s2), 1)
                )
        for j in range(1, k + 1):
            factors.append((-_zsum(ctx, 1, j), n))
        via_fibre = residue_expand(ResidueForm(numerator, factors, zvars))
        assert via_segre.restrict(HD_CTX) == via_fibre.restrict(HD_CTX)


def test_degree_mismatch_integrates_to_zero():
    rng = random.Random(47)
    n, k = 2, 2
    ctx = tower_context(k)
    zvars = [f"z{i}" for i in range(1, k + 1)]
    target = n + k * (n - 1)
    for deg in (target - 2, target - 1, target + 1):
        P = random_homogeneous(rng, ctx, zvars, deg, with_h=True)
        form = hypersurface_integrand(n, k, P)
        assert not form.degree_matched
        value = integrate_over_X(residue_expand(form), n)
        assert value.is_zero


def test_integrate_over_X_rules():
    # h^n integrates to d; every lower power has no top degree and every
    # higher one vanishes on X; a class may live in a larger context
    h = MultiPoly.variable(HD_CTX, "h")
    d = MultiPoly.variable(HD_CTX, "d")
    for n in (1, 2, 3):
        assert integrate_over_X(h**n, n) == DPoly([0, 1])
        for p in range(n):
            assert integrate_over_X(h**p * (1 + d), n).is_zero
        for p in (n + 1, n + 2):
            assert integrate_over_X(h**p * (2 + d), n).is_zero
        cls = (3 + 5 * d) * h**n + h ** (n - 1) + 7 * d * h ** (n + 1)
        assert integrate_over_X(cls, n) == DPoly([0, 3, 5])
        assert integrate_over_X(cls.embed(tower_context(2)), n) == DPoly([0, 3, 5])


def test_integrate_over_X_rejects_leftover_variables():
    ctx = tower_context(1)
    z1, h = MultiPoly.variable(ctx, "z1"), MultiPoly.variable(ctx, "h")
    with pytest.raises(ContextError, match="z1"):
        integrate_over_X(z1 * h + h**2, 2)


def test_k1_hypersurface_pipeline_values():
    # n = 2 hand-checked values for the honest tautological class
    ctx = tower_context(1)
    z1 = MultiPoly.variable(ctx, "z1")
    h = MultiPoly.variable(ctx, "h")
    cases = [
        (z1**3, DPoly([0, 10, -4])),
        (z1**2 * h, DPoly([0, -4, 1])),
        (z1 * h**2, DPoly([0, 1])),
        (h**3, DPoly([])),
    ]
    for P, expected in cases:
        assert integral_over_tower(2, 1, P) == expected
        stepwise = residue_stepwise(hypersurface_integrand(2, 1, P))
        assert integrate_over_X(stepwise, 2) == expected


def test_engines_agree_on_hypersurface_integrands():
    rng = random.Random(48)
    for n, k in ((2, 1), (2, 2)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        P = random_homogeneous(rng, ctx, zvars, n + k * (n - 1), with_h=True)
        form = hypersurface_integrand(n, k, P)
        both_engines(form)


def test_engines_agree_on_segre_integrands():
    rng = random.Random(50)
    for n, k in ((2, 1), (2, 2)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        seg = segre_hypersurface(n)
        P = random_homogeneous(rng, ctx, zvars, n + k * (n - 1), with_h=True)
        both_engines(demailly_integrand(n, k, P, seg))


def test_route_equality_hypersurface_vs_segre_n3():
    rng = random.Random(51)
    for n, k in ((3, 1), (3, 2), (2, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        seg = segre_hypersurface(n)
        P = random_homogeneous(rng, ctx, zvars, n + k * (n - 1), with_h=True)
        v1 = integrate_over_X(residue_expand(hypersurface_integrand(n, k, P)), n)
        v2 = integrate_over_X(residue_expand(demailly_integrand(n, k, P, seg)), n)
        assert v1 == v2


def test_demailly_degree_mismatch_integrates_to_zero():
    rng = random.Random(52)
    n, k = 2, 2
    ctx = tower_context(k)
    seg = segre_hypersurface(n)
    for deg in (2, 3, 5):
        P = random_homogeneous(rng, ctx, ["z1", "z2"], deg, with_h=True)
        form = demailly_integrand(n, k, P, seg)
        assert not form.degree_matched
        value = integrate_over_X(residue_expand(form), n)
        assert value.is_zero


def _pruned_at_the_end(n, k, P, level_factor, level_mult):
    """The builders' numerator multiplied out in full and cut once by the
    prefix rule: z^a h^b stays iff a_1 + ... + a_i + b <= M_i + n - i for
    i = 0..k-1, with M_i = i * level_mult + i(i-1)/2 (a level's denominator
    has multiplicity level_mult, the kernel factor -z_s1 + z_[s1+1..s2] is
    led by z_s2)."""
    numerator = _plus_kernel(P.ctx, n, k)[0] * P
    for j in range(1, k + 1):
        numerator = numerator * level_factor(_zsum(P.ctx, 1, j))
    slots = [P.ctx.index(v) for v in ["h"] + [f"z{i}" for i in range(1, k)]]

    def live(e):
        return all(
            sum(e[p] for p in slots[: i + 1]) <= i * level_mult + i * (i - 1) // 2 + n - i
            for i in range(k)
        )

    return numerator, MultiPoly(P.ctx, {e: c for e, c in numerator.terms.items() if live(e)})


def _builder_payloads():
    rng = random.Random(53)
    for n in (2, 3):
        yield n, n, intersection_payload(canonical_config(n))
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        yield n, k, random_homogeneous(rng, ctx, zvars, n + k * (n - 1), with_h=True)


def _builders_with_oracles(n, k, P):
    """(form, full numerator, pruned numerator) for the hypersurface and the
    Demailly builder."""
    h, d = MultiPoly.variable(P.ctx, "h"), MultiPoly.variable(P.ctx, "d")
    seg = segre_hypersurface(n)

    def cleared_tangent(w):
        out = w**n
        for i in range(1, n + 1):
            out = out + seg[i - 1].embed(P.ctx) * w ** (n - i)
        return out

    return [
        (hypersurface_integrand(n, k, P),
         *_pruned_at_the_end(n, k, P, lambda w: w * (w + d * h), n + 2)),
        (demailly_integrand(n, k, P, seg), *_pruned_at_the_end(n, k, P, cleared_tangent, 2 * n)),
    ]


@pytest.mark.parametrize("n, k, P", list(_builder_payloads()))
def test_builders_truncate_as_they_multiply(n, k, P):
    assert P.degree_in("h") > n  # the payload itself reaches past h^n
    for form, _, expected in _builders_with_oracles(n, k, P):
        assert form.numerator == expected


def _value_cases():
    for i, (n, k, P) in enumerate(_builder_payloads()):
        for engine in (residue_expand, residue_stepwise):
            # the stepwise engine needs about 10 s for the canonical n = k = 3 pair
            slow = engine is residue_stepwise and n == k == 3
            yield pytest.param(n, k, P, engine, id=f"{n}-{k}-P{i}-{engine.__name__}",
                               marks=[pytest.mark.slow] if slow else [])


@pytest.mark.parametrize("n, k, P, engine", list(_value_cases()))
def test_pruned_numerator_keeps_the_value(n, k, P, engine):
    # the dropped terms integrate to zero: the full product over the same
    # factors gives the same class on X
    for form, full, _ in _builders_with_oracles(n, k, P):
        unpruned = ResidueForm(full, form.factors, form.zvars, trunc=form.trunc)
        assert integrate_over_X(engine(unpruned), n) == integrate_over_X(engine(form), n)


@pytest.mark.parametrize("n, terms", [(2, 19), (3, 293), (4, 7698)])
def test_canonical_hypersurface_numerator_terms(n, terms):
    P = intersection_payload(canonical_config(n))
    assert len(hypersurface_integrand(n, n, P).numerator.terms) == terms


def test_residue_expand_term_cap():
    form = hypersurface_integrand(3, 3, intersection_payload(canonical_config(3)))
    with pytest.raises(ResourceLimitError, match="residue_expand exceeded 30 terms"):
        residue_expand(form, max_terms=30)


@pytest.mark.slow
def test_engines_agree_on_hypersurface_integrands_n3():
    rng = random.Random(49)
    for n, k in ((3, 1), (3, 2), (2, 3), (3, 3)):
        ctx = tower_context(k)
        zvars = [f"z{i}" for i in range(1, k + 1)]
        P = random_homogeneous(rng, ctx, zvars, n + k * (n - 1), with_h=True)
        form = hypersurface_integrand(n, k, P)
        both_engines(form)


def test_k_below_one_rejected():
    ctx = tower_context(1)
    P = MultiPoly.variable(ctx, "z1")
    with pytest.raises(ValueError):
        fibre_residue_integrand(2, 0, P)
    with pytest.raises(ValueError):
        hypersurface_integrand(2, 0, P)
