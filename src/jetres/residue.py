"""Iterated residues at infinity and the tower integrand builders.

The residue of h(z) dz / prod_i omega_i^(m_i) at z = infinity is, up to the
orientation sign (-1)^k, the coefficient of (z_1 ... z_k)^(-1) in the Laurent
expansion of the fraction on the domain |z_1| << ... << |z_k|, where each
affine-linear factor omega_i is expanded against its leading variable (the
largest z-index it involves).  Two independent evaluators are provided:

  * :func:`residue_expand`   -- Laurent expansion.  Coefficients of
    (z_1...z_k)^(-1) are extracted one variable at a time from z_k down to
    z_1, which makes every stage a finite exact computation: the factors led
    by z_j expand together as one series inverse in 1/z_j, and only finitely
    many of its orders can combine with the carried polynomial's z_j-degrees
    to land on exponent -1.
  * :func:`residue_stepwise` -- the one-variable Residue Theorem applied from
    z_k down to z_1: the residue at infinity is minus the sum of the residues
    at the finite poles; order-m poles use the (m-1)-st derivative rule,
    taken in m-1 steps N -> N' F - N G.  Each carried term keeps its
    denominator as one factor table keyed by the factors scaled to leading
    coefficient 1, so proportional or colliding factors are one pole of the
    summed order rather than an error.

The stepwise engine is the check of a literal form (`residue --verify`).  A
tower integral over the hypersurface is checked by fixed-point localization
instead (`localization.payload_integral_fixed_points`, `integral --verify`),
which shares neither the integrand builder nor the engines with this module.

The single orientation constant lives in :func:`orientation_sign`; all
paper-level sign conventions downstream are expressed through the builders,
never through per-case sign adjustments.

Builders produce the integrands for the fibre integral over the jet-tower
fibre (denominators ``lam_i - z_[1..j]``), for general Segre data, and for
the degree-d hypersurface where the tangent data collapses to the identity
``(1+h)^(n+2) = (1+dh) c(X)``.  The two coordinate conventions relate by
z -> -z: the fixed-point sums evaluate payloads at the fixed-point weights
(so the fibre machinery integrates P against the duals of the honest
tautological classes), while the hypersurface and Segre builders use the
sign-flipped kernel with the payload at +z and therefore compute the honest
tower integral directly.  Bridging the two means reflecting the payload:
hypersurface_route(P) equals fibre_route(P(-z)) exactly, and the test suite
pins this on both symbolic and random inputs.  Jobs over the hypersurface
run its builder; the Segre builder is only the tests' reference form.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import partial, reduce
from itertools import accumulate
from math import factorial
from operator import mul
from typing import Callable, Sequence

from .exactalg import (
    DPoly,
    Graded,
    HD_CTX,
    JetresError,
    MultiPoly,
    QLike,
    ResourceLimitError,
    Terms,
    VarContext,
    _flat,
    _graded_dot,
    _graded_inverse,
    _graded_mul,
    _gradedlex_key,
    _packed,
    _power_cap,
)
from .localization import DegenerateWeightsError

__all__ = [
    "NotResidueIntegrableError",
    "ResidueForm",
    "orientation_sign",
    "residue_expand",
    "residue_stepwise",
    "fibre_residue_integrand",
    "demailly_integrand",
    "hypersurface_integrand",
    "integrate_over_X",
    "integral_over_tower",
    "tower_context",
    "DEFAULT_TERM_CAP",
]

DEFAULT_TERM_CAP = 10**7


class NotResidueIntegrableError(JetresError):
    """A denominator factor has no z-dependence or is not affine-linear."""

    code = "not-residue-integrable"


def orientation_sign(k: int) -> Q:
    """The global orientation constant: residues are (-1)^k times coefficients."""
    return Q(-1) ** k


class ResidueForm:
    """A rational form: numerator over a product of affine-linear factors.

    ``zvars`` fixes the residue variables and their order z_1 < ... < z_k;
    all other context variables are coefficients.  ``h_max`` optionally
    bounds the powers of h, those above it being identically zero in the
    target ring (the hypersurface integrands, h^(n+1) = 0); the expansion
    engine applies it eagerly (sound: exponents only add), the stepwise
    engine only at the end (it divides by factors carrying h along the way).
    """

    __slots__ = ("ctx", "zvars", "numerator", "factors", "h_max")

    def __init__(
        self,
        numerator: MultiPoly,
        factors: Sequence[tuple[MultiPoly, int]],
        zvars: Sequence[str],
        h_max: int | None = None,
    ):
        ctx = numerator.ctx
        zpos = [ctx.index(z) for z in zvars]
        for poly, mult in factors:
            numerator._check_ctx(poly)
            if mult < 1:
                raise ValueError("factor multiplicities must be >= 1")
            _leading_z(poly, zpos)  # affine-linear in the z's, with a z-term
        self.ctx = ctx
        self.zvars = tuple(zvars)
        self.numerator = numerator
        self.factors = tuple((p, int(m)) for p, m in factors)
        self.h_max = h_max

    @property
    def k(self) -> int:
        return len(self.zvars)


def _leading_z(poly: MultiPoly, zpos: Sequence[int]) -> tuple[int, Q]:
    """(j, a): the largest z-index j of a factor (1-based) and its coefficient,
    for a factor that is affine-linear in the z's with rational z-coefficients."""
    lead = 0, 0
    for e, c in poly.num.items():
        zs = [j for j, i in enumerate(zpos, 1) for _ in range(e[i])]  # j once per power of z_j
        if len(zs) > 1:
            raise NotResidueIntegrableError("denominator factor is not affine-linear in the z's")
        if zs:
            if sum(e) > 1:
                raise NotResidueIntegrableError(
                    "z-coefficients of denominator factors must be rational constants"
                )
            lead = max(lead, (zs[0], c))
    if not lead[0]:
        raise NotResidueIntegrableError("factor with all-zero z-coefficients")
    return lead[0], Q(lead[1], poly.den)


# ---------------------------------------------------------------------------
# Engine 1: Laurent expansion
# ---------------------------------------------------------------------------


def _stage_series(group: Sequence[tuple[MultiPoly, int]], room: int, width: int,
                  ti: int, tm: int) -> Graded:
    """G for one stage's unit-led factors z_j + R_f: the product of the
    (z_j + R_f)^(-m_f) is sum_r G_r z_j^(-M-r) for M = sum m_f, here for
    r <= room.  With w = 1/z_j the product of the factors is z_j^M H(w) for
    H(w) = prod_f (1 + R_f w)^m_f, so G = 1/H up to grade room."""
    unit = (0,) * width
    H = _packed({0: {unit: 1}}, 1, width, ti, tm)
    for rest, mult in group:
        linear = _packed({0: {unit: rest.den}, 1: rest.num}, rest.den, width, ti, tm)
        for _ in range(mult):
            H = _graded_mul(H, linear, room)
    return _graded_inverse(H, room)


def residue_expand(form: ResidueForm, max_terms: int = DEFAULT_TERM_CAP) -> MultiPoly:
    """Iterated residue by Laurent expansion; exact, no truncation guesswork.

    Each factor c z_j + R enters as z_j + R/c, and the c^(-m) join the
    orientation sign in one output scale.  From z_k down to z_1, stage j
    keeps the coefficient of z_j^(-1) in N * sum_r G_r z_j^(-M-r), for N the
    carried polynomial and G the inverted factors led by z_j (_stage_series).
    The z_j-degrees of N bound the usable grades of G, so the sum is finite;
    it is the carried polynomial of stage j-1.
    """
    ctx = form.ctx
    zpos = [ctx.index(z) for z in form.zvars]
    k = form.k
    ti, tm = (-1, 0) if form.h_max is None else (ctx.index("h"), form.h_max)

    groups: dict[int, list[tuple[MultiPoly, int]]] = {}
    scale = orientation_sign(k)
    for poly, mult in form.factors:
        lead, c_lead = _leading_z(poly, zpos)
        rest = poly.truncate(form.zvars[lead - 1], 0) * (1 / c_lead)
        groups.setdefault(lead, []).append((rest, mult))
        scale /= c_lead**mult

    carried, den = form.numerator.num, form.numerator.den

    for j in range(k, 0, -1):
        if not carried:
            break
        zj = zpos[j - 1]
        group = groups.get(j)
        if not group:
            # polynomial in z_j: no z_j^(-1) term, the whole residue vanishes
            carried = {}
            break
        m_total = sum(m for _, m in group)
        room = max(e[zj] for e in carried) + 1 - m_total
        if room < 0:
            carried = {}
            break
        conv = _stage_series(group, room, len(ctx), ti, tm)
        # bucket the carried terms by z_j-exponent (slot zeroed): the bucket
        # of z_j^(M+r-1) meets G_r, all summed as integers over one denominator
        buckets: dict[int, Terms] = {}
        for e, v in carried.items():
            e0 = list(e)
            e0[zj] = 0
            buckets.setdefault(e[zj] + 1 - m_total, {})[tuple(e0)] = v
        buckets = {s: t for s, t in buckets.items() if s in conv.parts}
        dot = _graded_dot(_packed(buckets, den, len(ctx), ti, tm), conv,
                          (max_terms, "residue_expand"))
        carried, den = _flat(dot)

    for e in carried:
        if any(e[i] for i in zpos):
            raise JetresError("internal: z-variables left after extraction")
    return MultiPoly._raw(ctx, carried, den) * scale


# ---------------------------------------------------------------------------
# Engine 2: stepwise Residue Theorem
# ---------------------------------------------------------------------------


# A factor table: each denominator factor, scaled so its graded-lex leading
# coefficient is 1, mapped to its multiplicity.
FactorTable = dict[MultiPoly, int]


def _enter(table: FactorTable, factor: MultiPoly, mult: int) -> Q:
    """Enter factor**mult into the table and return scale**mult, the power of
    its leading coefficient that the numerator is to be divided by; a factor
    that is constant normalizes to 1 and is dropped."""
    if factor.is_zero:
        raise JetresError("internal: factor vanished at a pole after merging")
    scale = Q(factor.num[max(factor.num, key=_gradedlex_key)], factor.den)
    factor = factor * (1 / scale)
    if any(map(any, factor.num)):
        table[factor] = table.get(factor, 0) + mult
    return scale**mult


def _derivative(poly: MultiPoly, idx: int) -> MultiPoly:
    """The derivative in the variable at idx (distinct exponents stay
    distinct, so nothing is summed)."""
    return MultiPoly._raw(poly.ctx, {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
                                     for e, c in poly.num.items() if e[idx]}, poly.den)


def residue_stepwise(form: ResidueForm, max_terms: int = DEFAULT_TERM_CAP) -> MultiPoly:
    """Iterated residue via the one-variable Residue Theorem, z_k down to z_1.

    A carried term is a numerator N over a factor table, in which
    proportional factors share one entry and so form one pole of the summed
    order.  Each step replaces a term by minus the sum of its residues at the
    poles f0 = a0 (z_j - w) in the current variable.  An order-m pole takes
    the (m-1)-st derivative of N over the other factors in m-1 steps
    N -> N' F - N G, where F is the product of the other factors f that hold
    z_j and G = sum_f m_f a_f F/f (a_f the z_j-coefficient of f, m_f its
    multiplicity, which each step raises by 1).  Then w is substituted into
    N, and every other factor, affine-linear in the z's, becomes
    f + a_f (w - z_j); the factors go into a fresh table, and each factor
    cancels as often as it divides N exactly.  A term whose numerator's
    z_j-degree is at most the table's z_j-degree minus 2 is O(z_j^-2), so
    its residue at infinity is 0 and it is dropped without a step.

    Unlike the expansion engine, truncation is applied only to the final
    value: intermediate denominators may carry positive powers of the
    truncation variable, so numerator powers above the bound still matter
    until everything is divided out.
    """
    ctx = form.ctx
    one = MultiPoly.const(ctx, 1)
    table: FactorTable = {}
    scale = Q(1)
    for poly, mult in form.factors:
        scale *= _enter(table, poly, mult)
    carried = [(form.numerator * (1 / scale), table)]

    for zname in reversed(form.zvars):
        zj = ctx.index(zname)
        z = MultiPoly.variable(ctx, zname)
        (unit,) = z.num  # the exponent of z_j
        stage: list[tuple[MultiPoly, FactorTable]] = []
        for num, table in carried:
            slope = {f: Q(f.num.get(unit, 0), f.den) for f in table}  # z_j-coefficients
            poles = [f for f in table if slope[f]]
            if max((e[zj] for e in num.num), default=0) + 2 <= sum(table[f] for f in poles):
                continue  # N/D is O(z_j^-2): its finite residues sum to 0
            for f0 in poles:
                m0, a0 = table[f0], slope[f0]
                numer = num
                if m0 > 1:
                    # the (m0-1)-st derivative of num over the other factors
                    moving = [f for f in poles if f is not f0]
                    F = reduce(mul, moving, one)
                    cofactors = [reduce(mul, (g for g in moving if g is not f), one)
                                 for f in moving]
                    for step in range(m0 - 1):
                        if numer.is_zero:  # so is every later derivative
                            break
                        minus_g = sum((cof * (-(table[f] + step) * slope[f])
                                       for f, cof in zip(moving, cofactors)), MultiPoly.zero(ctx))
                        numer = _derivative(numer, zj) * F + numer * minus_g
                if numer.is_zero:  # no residue: skip the factorial of m0 - 1 too
                    continue
                # substitute z_j = w, w - z_j = -f0/a0, with the minus sign of
                # the residue at infinity
                shift = f0 * (-1 / a0)
                scale = -factorial(m0 - 1) * a0**m0
                numer = numer.substitute(zname, z + shift)
                if numer.is_zero:
                    continue
                reduced: FactorTable = {}
                for f, m in table.items():
                    if f is not f0:
                        a = slope[f]
                        scale *= _enter(reduced, f + shift * a, m + (m0 - 1 if a else 0))
                numer = numer * (1 / scale)
                for f, m in list(reduced.items()):
                    while m and (quot := numer.divide_exact(f)) is not None:
                        numer, m = quot, m - 1
                    if m:
                        reduced[f] = m
                    else:
                        del reduced[f]
                if len(numer.num) > max_terms:
                    raise ResourceLimitError(f"residue_stepwise exceeded {max_terms} terms")
                stage.append((numer, reduced))
        carried = stage

    # the z-free terms over their least common denominator, read off the
    # tables' keys (never the full product, which blows up symbolically)
    lcd: FactorTable = {}
    for _, table in carried:
        for f, m in table.items():
            lcd[f] = max(lcd.get(f, 0), m)
    result = sum((reduce(mul, (f ** (m - table.get(f, 0)) for f, m in lcd.items()), num)
                  for num, table in carried), MultiPoly.zero(ctx))
    if lcd:
        result = result.divide_exact(reduce(mul, (f**m for f, m in lcd.items()), one))
        if result is None:
            raise JetresError("internal: stepwise residue did not reduce to a polynomial value")
    if form.h_max is not None:
        result = result.truncate("h", form.h_max)
    # the per-step minus signs realize the (-1)^k orientation
    return result


# ---------------------------------------------------------------------------
# Integrand builders
# ---------------------------------------------------------------------------


def tower_context(k: int) -> VarContext:
    """Context (z_1..z_k, h, d) used by the tower integrands."""
    return VarContext(tuple(f"z{i}" for i in range(1, k + 1)) + ("h", "d"))


def _zsum(ctx: VarContext, lo: int, hi: int) -> MultiPoly:
    """z_[lo..hi] = z_lo + ... + z_hi (1-based, inclusive)."""
    num: Terms = {}
    for i in range(lo, hi + 1):
        e = [0] * len(ctx)
        e[ctx.index(f"z{i}")] = 1
        num[tuple(e)] = 1
    return MultiPoly._raw(ctx, num)


# the factors of a tower integrand or of one of its levels: (numerator
# factors, denominator factors with their multiplicities)
LevelFactors = tuple[list[MultiPoly], list[tuple[MultiPoly, int]]]


def _tower_factors(ctx: VarContext, k: int, level: Callable[[MultiPoly], LevelFactors]
                   ) -> LevelFactors:
    """The factors of a tower integrand without its (-1)^k prefactor: the
    sign-flipped plus kernel's, numerators z_[t1..t2] (2 <= t1 <= t2 <= k)
    and denominators (-z_s1 + z_[s1+1..s2]) (s1 < s2), then those of
    level(z_[1..j]) for j = 1..k."""
    numerators = [_zsum(ctx, t1, t2) for t1 in range(2, k + 1) for t2 in range(t1, k + 1)]
    denominators = [(_zsum(ctx, s1 + 1, s2) - MultiPoly.variable(ctx, f"z{s1}"), 1)
                    for s1 in range(1, k + 1) for s2 in range(s1 + 1, k + 1)]
    for j in range(1, k + 1):
        level_num, level_den = level(_zsum(ctx, 1, j))
        numerators += level_num
        denominators += level_den
    return numerators, denominators


def _prefix_filter(ctx: VarContext, n: int, zpos: Sequence[int],
                   factors: Sequence[tuple[MultiPoly, int]]) -> Callable[[Graded], Graded]:
    """The filter that keeps the terms z^a h^b of a grade-0 series obeying
    a_1 + ... + a_i + b <= M_i + n - i for i = 0..k-1, where M_i is the
    total multiplicity of the factors led by one of z_1..z_i.  It reads the
    exponents off the packed keys and keeps the integer coefficients."""
    mult = [0] * (len(zpos) + 1)
    for poly, m in factors:
        mult[_leading_z(poly, zpos)[0]] += m
    caps = [m_i + n - i for i, m_i in enumerate(accumulate(mult[:-1]))]
    # the prefix sum b, b + a_1, ..., b + a_1 + ... + a_(k-1) reads these slots
    slots = [ctx.index("h")] + list(zpos[:-1])

    def live(series: Graded) -> Graded:
        terms = series.parts.get(0, [])
        kept = []
        for term, e in zip(terms, series.codec.unpack([key for key, _ in terms])):
            s = 0
            for p, cap in zip(slots, caps):
                s += e[p]
                if s > cap:
                    break
            else:
                kept.append(term)
        return series._replace(parts={0: kept} if kept else {})

    return live


def _tower_integrand(n: int, k: int, P: MultiPoly, level: Callable[[MultiPoly], LevelFactors],
                     over_X: bool, term_cap: tuple[int, str]) -> ResidueForm:
    """(-1)^k P times the numerator factors of _tower_factors(ctx, k, level)
    over its denominators.  One loop multiplies the numerator out, from
    (-1)^k through the kernel's factors, P and the levels' factors, and each
    product counts its terms against term_cap.

    Over X (h^(n+1) = 0) every denominator factor is linear and homogeneous
    in (z, h), and the numerator keeps only the terms z^a h^b with

        a_1 + ... + a_i + b <= M_i + n - i    for i = 0..k-1,

    where M_i is the total multiplicity of the factors whose leading
    variable is one of z_1..z_i (i(n+2) + i(i-1)/2 for the hypersurface,
    2ni + i(i-1)/2 for the Demailly form); i = 0 is the truncation h <= n.
    Every other term has residue zero.  Proof: in the expansion of
    residue_expand a factor led by z_j is c z_j + R with R linear and
    homogeneous in (z_1..z_(j-1), h), and each term of its series
    R^r / (c z_j)^(m+r) has degree -m in (z_1..z_j, h).  So the prefix
    sum a_1 + ... + a_i + b drops by exactly M_i through the factors led by
    z_1..z_i and does not drop through the others, while a term that
    survives ends at z_1^-1 ... z_i^-1 h^b' with b' <= n, whose prefix sum
    is b' - i <= n - i.  The prefix sums only grow when a term is multiplied
    by a polynomial, so the filter is applied after every product, and the
    residue (linear in the numerator) is unchanged.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx = P.ctx
    zvars = [f"z{i}" for i in range(1, k + 1)]
    ti, tm = (ctx.index("h"), n) if over_X else (-1, 0)
    # each of the kernel's k(k-1)/2 numerators z_[t1..t2] is termwise
    # <= z_2 + ... + z_k
    kernel = k * (k - 1) // 2
    _power_cap(term_cap[1], _zsum(ctx, 2, k), kernel, term_cap[0])
    numerators, factors = _tower_factors(ctx, k, level)
    zpos = [ctx.index(z) for z in zvars]
    live = _prefix_filter(ctx, n, zpos, factors) if over_X else (lambda series: series)
    # the numerator stays one packed grade-0 series, filtered after every
    # product and read back once at the end; the kernel's factors go before
    # P, which keeps the early products small
    num = _packed({0: {(0,) * len(ctx): (-1) ** k}}, 1, len(ctx), ti, tm)
    for f in numerators[:kernel] + [P] + numerators[kernel:]:
        num = live(_graded_mul(num, _packed({0: f.num}, f.den, len(ctx), ti, tm), 0, term_cap))
    return ResidueForm(MultiPoly._raw(ctx, *_flat(num)), factors, zvars, n if over_X else None)


def fibre_residue_integrand(n: int, k: int, P: MultiPoly, lambdas: Sequence[QLike],
                            max_terms: int = DEFAULT_TERM_CAP) -> ResidueForm:
    """Integrand whose residue is the fibre integral of P over the k-tower.

    The weights are the numeric values `lambdas` (pairwise distinct), folded
    into the denominators (lam_i - z_[1..j]).  For k = 1 this is the
    single-variable projective-space form P(z)/prod_i (lam_i - z).
    """
    lambdas = [Q(v) for v in lambdas]
    if len(lambdas) != n:
        raise ValueError("need n weight values")
    if len(set(lambdas)) != n:
        raise DegenerateWeightsError("repeated weight values")
    lams = [MultiPoly.const(P.ctx, v) for v in lambdas]

    def weights(w: MultiPoly) -> LevelFactors:
        return [], [(lam - w, 1) for lam in lams]

    # the plus kernel without its (-1)^k prefactor
    return _tower_integrand(n, k, (-1) ** k * P, weights, False,
                            (max_terms, "fibre_residue_integrand"))


def demailly_integrand(n: int, k: int, P: MultiPoly, segre: Sequence[MultiPoly]) -> ResidueForm:
    """The tests' reference for hypersurface_integrand: the full tower
    integral from Segre classes (s_1, ..., s_n) in the context (h, d).

    Per level j the tangent factor is cleared to polynomial form:
    1/prod_i(L_i + w) = (w^n + s_1 w^(n-1) + ... + s_n) / w^(2n) with
    w = z_[1..j].
    """
    if len(segre) != n:
        raise ValueError("Segre data dimension mismatch")
    classes = [s.recast(P.ctx) for s in segre]

    def cleared_tangent(w: MultiPoly) -> LevelFactors:
        nj = w**n
        for i in range(1, n + 1):
            nj = nj + classes[i - 1] * w ** (n - i)
        return [nj], [(w, 2 * n)]

    return _tower_integrand(n, k, P, cleared_tangent, True,
                            (DEFAULT_TERM_CAP, "demailly_integrand"))


def _hypersurface_level(n: int, w: MultiPoly) -> LevelFactors:
    """The hypersurface factors of the level at w = z_[1..j]: numerators w and
    w + dh, denominator (w + h)^(n+2)."""
    h = MultiPoly.variable(w.ctx, "h")
    d = MultiPoly.variable(w.ctx, "d")
    return [w, w + d * h], [(w + h, n + 2)]


def hypersurface_integrand(n: int, k: int, P: MultiPoly,
                           max_terms: int = DEFAULT_TERM_CAP) -> ResidueForm:
    """Integrand for the degree-d hypersurface: all tangent data in (h, d).

    Numerator (-1)^k prod_{1<=t1<=t2<=k} z_[t1..t2] * prod_j (z_[1..j]+dh) * P(z, h);
    denominator prod_{s1<s2} (-z_s1 + z_[s1+1..s2]) * prod_j (z_[1..j]+h)^(n+2).
    The numerator keeps only the terms that pass the prefix-degree caps of
    _tower_integrand, and each of its products at most max_terms terms.
    """
    return _tower_integrand(n, k, P, partial(_hypersurface_level, n), True,
                            (max_terms, "hypersurface_integrand"))


def integrate_over_X(poly: MultiPoly, n: int) -> DPoly:
    """Integration over the degree-d hypersurface X of dimension n: h^n d^j
    integrates to d^(j+1), and every other power of h to zero.

    `poly` may involve no variables but h and d (ContextError otherwise).
    """
    top = {j: c for (b, j), c in poly.recast(HD_CTX).terms.items() if b == n}
    return DPoly([0] + [top.get(j, 0) for j in range(max(top, default=-1) + 1)])


def integral_over_tower(
    n: int,
    k: int,
    P: MultiPoly,
    max_terms: int = DEFAULT_TERM_CAP,
) -> DPoly:
    """Full pipeline: hypersurface integrand -> residue -> integrate over X.

    Only the terms z^e h^b d^c of P with b <= n and |e| + b = n + k(n-1)
    reach the top degree, as in `payload_integral_fixed_points`; the others
    integrate to zero and are dropped first."""
    hi = P.ctx.index("h")
    P = MultiPoly._raw(P.ctx, {e: c for e, c in P.num.items()
                               if e[hi] <= n and sum(e[:hi + 1]) == n + k * (n - 1)}, P.den)
    if P.is_zero:
        return DPoly([])
    form = hypersurface_integrand(n, k, P, max_terms)
    return integrate_over_X(residue_expand(form, max_terms), n)

