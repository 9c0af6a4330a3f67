"""Iterated residues: engines against each other and against fixed points."""

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jetres.exactalg import (
    ContextError,
    DPoly,
    HD_CTX,
    MultiPoly,
    Q,
    ResourceLimitError,
    VarContext,
    _flat,
    _power_cap,
)
from jetres.ggl import canonical_config, intersection_payload
from jetres.localization import fibre_integral_fixed_points
from jetres.residue import (
    NotResidueIntegrableError,
    ResidueForm,
    demailly_integrand,
    fibre_residue_integrand,
    hypersurface_integrand,
    integral_over_tower,
    integrate_over_X,
    orientation_sign,
    residue_expand,
    residue_stepwise,
    tower_context,
    DEFAULT_TERM_CAP,
    _plus_kernel,
    _stage_series,
    _zsum,
)
from oracles import (
    constant,
    grassmannian_omega,
    monomial,
    reflect_payload,
    segre_hypersurface,
    series_inverse,
    stage_series_convolved,
    total_degree,
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
    # the form checks each factor once, when it is built, for both engines
    ctx = VarContext(("z1", "h"))
    h = MultiPoly.variable(ctx, "h")
    with pytest.raises(NotResidueIntegrableError, match="all-zero z-coefficients"):
        ResidueForm(MultiPoly.const(ctx, 1), [(h + 1, 1)], ("z1",))


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


@st.composite
def factor_table_forms(draw):
    """Forms whose factors a.z + b.h + c (multiplicities 1-3) exercise the
    factor table of residue_stepwise: a factor f led by z_1 next to -2f, and
    a pivot g led by z_k next to g + L and s*g + t*L, which coincide at the
    pole of g (turn constant there when L is, and meet f when L = u*f).  The
    numerator's z-degrees are near the ones that let the residue be nonzero,
    and it may be zero."""
    k = draw(st.integers(1, 2))
    ctx = VarContext(tuple(f"z{i}" for i in range(1, k + 1)) + ("h",))
    small, nonzero, mult = st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2]), st.integers(1, 3)

    def linear(*zc):
        terms = {(0,) * k + (1,): draw(small), (0,) * (k + 1): draw(small)}
        for i, c in enumerate(zc):
            terms[tuple(int(i == v) for v in range(k + 1))] = c
        return MultiPoly(ctx, terms)

    f = linear(draw(nonzero))
    g = linear(*[draw(small) for _ in range(k - 1)], draw(nonzero))
    L = linear(*[draw(small) for _ in range(k - 1)])
    if k == 2 and draw(st.booleans()):
        L = draw(nonzero) * f
    s, t = draw(nonzero), draw(nonzero)
    factors = [(p, draw(mult)) for p in (f, -2 * f, g, g + L, s * g + t * L)]
    # the multiplicity led by each z: f and -2f by z_1, the rest by z_k
    led = [factors[0][1] + factors[1][1], sum(m for _, m in factors[2:])]
    led = led if k == 2 else [sum(led)]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        # a z_j-degree of led[j] - 1 reaches z_j^-1; surplus in z_j moves to lower z's
        e = [max(0, m - 1 + draw(st.integers(0, 2))) for m in led] + [draw(st.integers(0, 2))]
        terms[tuple(e)] = Q(draw(st.integers(-3, 3)))
    return ResidueForm(MultiPoly(ctx, terms), factors, ctx.names[:k])


ZH_CTX = VarContext(("z1", "z2", "h"))
ZH1, ZH2, ZHH = (MultiPoly.variable(ZH_CTX, name) for name in ZH_CTX.names)


@given(factor_table_forms())
# rational, negative leading coefficients: residue_expand enters the factors
# unit-led and folds the c^-m into its output scale (values 125/12, 75/4 h)
@example(ResidueForm(ZH2**2 * (ZH1 + ZHH), [(Q(-2, 3) * ZH1 + ZHH, 2), (Q(3, 5) * ZH2 - ZH1, 3)],
                     ("z1", "z2")))
@example(ResidueForm(ZH1 * ZH2, [(Q(-2, 3) * ZH1 + ZHH, 2), (Q(3, 5) * ZH2 - ZH1, 1)],
                     ("z1", "z2")))
def test_engines_agree_on_merged_and_collapsing_factors(form):
    assert residue_stepwise(form) == residue_expand(form)


@given(factor_table_forms(), st.integers(0, 3))
def test_engines_agree_under_h_truncation(form, top):
    # the expansion truncates h as it goes, the stepwise engine once at the end
    cut = ResidueForm(form.numerator, form.factors, form.zvars, h_max=top)
    value = residue_stepwise(cut)
    assert value == residue_expand(cut) == residue_expand(form).truncate("h", top)


# One residue stage: factors c z_j + R over exponent vectors of width 3, R of
# grade 1 whatever its exponents, multiplicities 1..6 (n + 2 up to n = 4).
STAGE_WIDTH = 3
stage_factor_st = st.tuples(
    st.builds(Q, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 5)),
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * STAGE_WIDTH),
                    st.builds(Q, st.integers(-9, 9), st.integers(1, 4)), max_size=3)
    .map(lambda t: {e: c for e, c in t.items() if c}),
    st.integers(1, 6),
)


@given(st.lists(stage_factor_st, min_size=1, max_size=3), st.integers(0, 4),
       st.sampled_from([(-1, 0), (0, 1), (2, 3)]))
@example([(Q(-2, 3), {}, 2), (Q(1), {(1, 0, 0): Q(1), (0, 0, 1): Q(-1, 2)}, 3)], 3, (-1, 0))
@example([(Q(3), {(0, 0, 1): Q(1)}, 6)], 0, (2, 3))
@example([(Q(-1), {(1, 0, 0): Q(1, 3), (0, 0, 0): Q(-11)}, 1)], 4, (0, 1))
def test_stage_series_is_the_convolved_factor_series(group, room, trunc):
    # each factor c z_j + R enters unit-led, as z_j + R/c, with c rational or
    # negative; an empty R (a factor c z_j), a room of 0 and the h-truncation
    # on and off.  Grade r of the series is the order M + r of z_j^-1.
    ti, tm = trunc
    unit_led = [(Q(1), {e: v / c for e, v in rest.items()}, m) for c, rest, m in group]
    m_total = sum(m for _, _, m in group)
    ctx = VarContext(tuple(f"x{i}" for i in range(STAGE_WIDTH)))
    series = _stage_series([(MultiPoly(ctx, rest), m) for _, rest, m in unit_led], room,
                           STAGE_WIDTH, ti, tm)
    got = {}
    for r, t in series.parts.items():
        num, den = _flat(series._replace(parts={r: t}))
        got[m_total + r] = {e: Q(c, den) for e, c in num.items()}
    assert got == stage_series_convolved(unit_led, m_total + room, STAGE_WIDTH, ti, tm)


def test_factors_that_meet_after_a_substitution_share_one_entry():
    # at z1 = 1 the factors z1 + h and z1 + 2h + 1 turn into h + 1 and 2(h + 1)
    ctx = VarContext(("z1", "h"))
    z1, h = MultiPoly.variable(ctx, "z1"), MultiPoly.variable(ctx, "h")
    form = ResidueForm(z1**2, [(z1 - 1, 1), (z1 + h, 1), (z1 + 2 * h + 1, 1)], ("z1",))
    assert both_engines(form) == MultiPoly.const(ctx, -1)


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
    # numerator sign-bearing factor count (k-1)k/2; kernel denominator factor
    # count (k-1)k/2 (the factors with no constant term: every weight is
    # nonzero); total degree of the fraction with the payload is -k
    for n, k in ((2, 2), (3, 3), (2, 4)):
        ctx = tower_context(k)
        P = monomial(ctx, {"z1": k * (n - 1)})
        form = fibre_residue_integrand(n, k, P, range(1, n + 1))
        kernel = [poly for poly, _ in form.factors if not constant(poly)]
        assert len(kernel) == (k - 1) * k // 2
        assert len(form.factors) == (k - 1) * k // 2 + n * k
        num_deg = total_degree(form.numerator)
        assert num_deg == k * (n - 1) + (k - 1) * k // 2
        den_deg = sum(m for _, m in form.factors)
        assert num_deg - den_deg == -k


def test_segre_hypersurface_values():
    h = MultiPoly.variable(HD_CTX, "h")
    d = MultiPoly.variable(HD_CTX, "d")
    assert segre_hypersurface(1) == ((d - 3) * h,)
    # c * s = 1 mod h^(n+1), with c(X) = (1+h)^(n+2) / (1+dh)
    for n in range(1, 9):
        c = ((1 + h) ** (n + 2) * series_inverse(1 + d * h, 2 * n)).truncate("h", n)
        s = sum(segre_hypersurface(n), MultiPoly.const(HD_CTX, 1))
        assert (c * s).truncate("h", n) == 1
    # at d = 0 the classes are those of (1+h)^-(n+2)
    total = sum(segre_hypersurface(3), MultiPoly.const(HD_CTX, 1)).substitute("d", 0)
    assert total == series_inverse((1 + h) ** 5, 3)


def test_hypersurface_integrand_structure_n2_k2():
    ctx = tower_context(2)
    P = monomial(ctx, {"z1": 2, "z2": 2})
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
        value = integrate_over_X(residue_expand(form), n)
        assert value.is_zero


def _pruned_at_the_end(n, k, P, level_factor, level_mult):
    """The builders' numerator multiplied out in full and cut once by the
    prefix rule: z^a h^b stays iff a_1 + ... + a_i + b <= M_i + n - i for
    i = 0..k-1, with M_i = i * level_mult + i(i-1)/2 (a level's denominator
    has multiplicity level_mult, the kernel factor -z_s1 + z_[s1+1..s2] is
    led by z_s2)."""
    numerator = (-1) ** k * P
    for f in _plus_kernel(P.ctx, k)[0]:
        numerator = numerator * f
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
    h = P.ctx.index("h")
    assert max(e[h] for e in P.terms) > n  # the payload itself reaches past h^n
    for form, _, expected in _builders_with_oracles(n, k, P):
        assert form.numerator == expected


def _value_cases():
    for i, (n, k, P) in enumerate(_builder_payloads()):
        for engine in (residue_expand, residue_stepwise):
            # the stepwise engine needs about 5 s for the canonical n = k = 3 pair
            slow = engine is residue_stepwise and n == k == 3
            yield pytest.param(n, k, P, engine, id=f"{n}-{k}-P{i}-{engine.__name__}",
                               marks=[pytest.mark.slow] if slow else [])


@pytest.mark.parametrize("n, k, P, engine", list(_value_cases()))
def test_pruned_numerator_keeps_the_value(n, k, P, engine):
    # the dropped terms integrate to zero: the full product over the same
    # factors gives the same class on X
    for form, full, _ in _builders_with_oracles(n, k, P):
        unpruned = ResidueForm(full, form.factors, form.zvars, h_max=form.h_max)
        assert integrate_over_X(engine(unpruned), n) == integrate_over_X(engine(form), n)


@pytest.mark.parametrize("n, terms", [(2, 19), (3, 293), (4, 7698)])
def test_canonical_hypersurface_numerator_terms(n, terms):
    P = intersection_payload(canonical_config(n))
    assert len(hypersurface_integrand(n, n, P).numerator.terms) == terms


def test_plus_kernel_cap_is_the_bound_of_its_product():
    # the product of the k(k-1)/2 kernel numerators is termwise at most
    # (z_2 + ... + z_k)^(k(k-1)/2): at k = 8, C(34, 6) = 1,344,904 terms of 2
    # words each, so the builder stops at one word less, before any product,
    # and the default cap lets k = 8 run (k = 9, C(43, 7) terms, not)
    ctx = tower_context(8)
    with pytest.raises(ResourceLimitError, match="a 7-term base to the power 28 may exceed "
                                                 "2689807 words"):
        hypersurface_integrand(1, 8, MultiPoly.const(ctx, 1), max_terms=2_689_807)
    _power_cap("hypersurface_integrand", _zsum(ctx, 2, 8), 28, 2_689_808)
    _power_cap("hypersurface_integrand", _zsum(ctx, 2, 8), 28, DEFAULT_TERM_CAP)


# the most nonzero terms each engine holds at once on the canonical n = k = 3
# form: the least cap that lets it finish
LEAST_TERM_CAP = {"residue_expand": 86, "residue_stepwise": 623}


@pytest.mark.parametrize("engine", [residue_expand, residue_stepwise])
def test_residue_term_cap(engine):
    form = hypersurface_integrand(3, 3, intersection_payload(canonical_config(3)))
    least = LEAST_TERM_CAP[engine.__name__]
    for cap in (30, least - 1):
        with pytest.raises(ResourceLimitError, match=f"{engine.__name__} exceeded {cap} terms"):
            engine(form, max_terms=cap)
    engine(form, max_terms=least)


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
        fibre_residue_integrand(2, 0, P, [1, 2])
    with pytest.raises(ValueError):
        hypersurface_integrand(2, 0, P)
