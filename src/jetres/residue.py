"""Iterated residues at infinity and the tower integrand builders.

The residue of h(z) dz / prod_i omega_i^(m_i) at z = infinity is, up to the
orientation sign (-1)^k, the coefficient of (z_1 ... z_k)^(-1) in the Laurent
expansion of the fraction on the domain |z_1| << ... << |z_k|, where each
affine-linear factor omega_i is expanded against its leading variable (the
largest z-index it involves).  Two independent evaluators are provided:

  * :func:`residue_expand`   -- geometric-series expansion.  Coefficients of
    (z_1...z_k)^(-1) are extracted one variable at a time from z_k down to
    z_1, which makes every stage a finite exact computation: at stage j only
    finitely many series orders can combine with the carried polynomial's
    z_j-degrees to land on exponent -1.
  * :func:`residue_stepwise` -- the one-variable Residue Theorem applied from
    z_k down to z_1: the residue at infinity is minus the sum of the residues
    at the finite poles; order-m poles use the (m-1)-st derivative rule.
    Proportional denominator factors are merged into a single higher-order
    pole first, so colliding poles are handled exactly rather than rejected.

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
pins this on both symbolic and random inputs.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import accumulate
from math import factorial
from typing import Callable, Sequence

from .exactalg import (
    DPoly,
    HD_CTX,
    JetresError,
    MultiPoly,
    QLike,
    ResourceLimitError,
    VarContext,
    binomial,
    _add_into,
    _graded_mul,
    _graded_series,
    _mul_terms,
)
from .localization import DegenerateWeightsError

__all__ = [
    "NotResidueIntegrableError",
    "ResidueForm",
    "orientation_sign",
    "residue_expand",
    "residue_stepwise",
    "fibre_residue_integrand",
    "segre_hypersurface",
    "demailly_integrand",
    "hypersurface_integrand",
    "integrate_over_X",
    "integral_over_tower",
    "reflect_payload",
    "grassmannian_omega",
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
    all other context variables are coefficients.  ``trunc`` optionally names
    a coefficient variable whose powers above a bound are identically zero in
    the target ring (h-truncation for hypersurface integrands); the expansion
    engine applies it eagerly (sound: exponents only add), the stepwise
    engine only at the end (it divides by trunc-variable-carrying factors
    along the way).
    """

    __slots__ = ("ctx", "zvars", "numerator", "factors", "trunc", "degree_matched")

    def __init__(
        self,
        numerator: MultiPoly,
        factors: Sequence[tuple[MultiPoly, int]],
        zvars: Sequence[str],
        trunc: tuple[str, int] | None = None,
        degree_matched: bool = True,
    ):
        ctx = numerator.ctx
        zpos = [ctx.index(z) for z in zvars]
        for poly, mult in factors:
            if poly.ctx != ctx:
                raise JetresError("factor context differs from numerator context")
            if mult < 1:
                raise ValueError("factor multiplicities must be >= 1")
            _z_coefficients(poly, zpos)  # validates affine-linearity in the z's
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "zvars", tuple(zvars))
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "factors", tuple((p, int(m)) for p, m in factors))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "degree_matched", degree_matched)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ResidueForm is immutable")

    @property
    def k(self) -> int:
        return len(self.zvars)


Terms = dict


def _z_coefficients(poly: MultiPoly, zpos: Sequence[int]) -> list[Q]:
    """The rational z-coefficients of a factor that is affine-linear in the z's."""
    zset = set(zpos)
    zc = [Q(0)] * len(zpos)
    for e, c in poly.terms.items():
        zdeg = sum(e[i] for i in zpos)
        if zdeg == 1:
            which = next(i for i in zpos if e[i])
            if any(e[i] for i in range(len(e)) if i not in zset):
                raise NotResidueIntegrableError(
                    "z-coefficients of denominator factors must be rational constants"
                )
            zc[zpos.index(which)] += c
        elif zdeg > 1:
            raise NotResidueIntegrableError("denominator factor is not affine-linear in the z's")
    return zc


def _leading_z(poly: MultiPoly, zpos: Sequence[int]) -> tuple[int, Q]:
    """(j, a): the largest z-index j of the factor (1-based) and its coefficient."""
    zc = _z_coefficients(poly, zpos)
    for j in range(len(zc), 0, -1):
        if zc[j - 1]:
            return j, zc[j - 1]
    raise NotResidueIntegrableError("factor with all-zero z-coefficients")


def _trunc_args(form: ResidueForm) -> tuple[int, int]:
    if form.trunc is None:
        return -1, 0
    name, deg = form.trunc
    return form.ctx.index(name), deg


# ---------------------------------------------------------------------------
# Engine 1: geometric-series expansion
# ---------------------------------------------------------------------------


def residue_expand(form: ResidueForm, max_terms: int = DEFAULT_TERM_CAP) -> MultiPoly:
    """Iterated residue by Laurent expansion; exact, no truncation guesswork.

    Variables are eliminated from z_k down to z_1.  At stage j every factor
    whose leading variable is z_j is expanded as

        1/(c z_j + R)^m = sum_r (-1)^r C(m+r-1, r) R^r / (c z_j)^(m+r),

    where R involves only z_1..z_(j-1) and coefficient variables.  The
    coefficient of z_j^(-1) in (carried polynomial) * (product of these
    series) is a finite sum because the carried z_j-degrees bound the usable
    series orders; it becomes the carried polynomial of stage j-1.
    """
    ctx = form.ctx
    zpos = [ctx.index(z) for z in form.zvars]
    k = form.k
    ti, tm = _trunc_args(form)

    groups: dict[int, list[tuple[Q, Terms, int]]] = {}
    for poly, mult in form.factors:
        lead, c_lead = _leading_z(poly, zpos)
        zl = zpos[lead - 1]
        rest = {e: c for e, c in poly.terms.items() if not e[zl]}
        groups.setdefault(lead, []).append((c_lead, rest, mult))

    carried: Terms = dict(form.numerator.terms)
    zero_exp = (0,) * len(ctx)

    for j in range(k, 0, -1):
        if not carried:
            break
        zj = zpos[j - 1]
        group = groups.get(j)
        if not group:
            # polynomial in z_j: no z_j^(-1) term, the whole residue vanishes
            carried = {}
            break
        numax = max(e[zj] for e in carried)
        m_total = sum(m for _, _, m in group)
        smax = numax + 1
        if smax < m_total:
            carried = {}
            break
        # convolve the factor series by total z_j^- order
        conv: dict[int, Terms] = {0: {zero_exp: Q(1)}}
        for c_lead, rest, mult in group:
            room = smax - (m_total - mult)
            coeffs = [
                Q((-1) ** r * binomial(mult + r - 1, r)) / (c_lead ** (mult + r))
                for r in range(room - mult + 1)
            ]
            fser = _graded_series({1: rest}, coeffs, room - mult, len(ctx), ti, tm)
            conv = _graded_mul(conv, {mult + r: t for r, t in fser.items()}, smax, ti, tm)
        # bucket the carried terms by z_j-exponent (slot zeroed): one product each
        buckets: dict[int, Terms] = {}
        for e, c in carried.items():
            e0 = list(e)
            e0[zj] = 0
            buckets.setdefault(e[zj] + 1, {})[tuple(e0)] = c
        new_carried: Terms = {}
        for s, bucket in buckets.items():
            g = conv.get(s)
            if not g:
                continue
            _add_into(new_carried, _mul_terms(bucket, g, ti, tm))
            if len(new_carried) > max_terms:
                raise ResourceLimitError(f"residue_expand exceeded {max_terms} terms")
        carried = new_carried

    for e in carried:
        if any(e[i] for i in zpos):
            raise JetresError("internal: z-variables left after extraction")
    sign = orientation_sign(k)
    return MultiPoly(ctx, {e: c * sign for e, c in carried.items()})


# ---------------------------------------------------------------------------
# Engine 2: stepwise Residue Theorem
# ---------------------------------------------------------------------------


def _normalize_factor(terms: Terms) -> tuple[Terms, Q]:
    """Scale a factor so its graded-lex-leading coefficient is 1."""
    lead = max(terms, key=lambda e: (sum(e), e))
    scale = terms[lead]
    if scale == 1:
        return dict(terms), Q(1)
    return {e: c / scale for e, c in terms.items()}, scale


def _derivative(terms: Terms, idx: int) -> Terms:
    out: Terms = {}
    for e, c in terms.items():
        p = e[idx]
        if p:
            ne = list(e)
            ne[idx] = p - 1
            key = tuple(ne)
            out[key] = out.get(key, Q(0)) + c * p
    return {e: c for e, c in out.items() if c}


def residue_stepwise(form: ResidueForm, max_terms: int = DEFAULT_TERM_CAP) -> MultiPoly:
    """Iterated residue via the one-variable Residue Theorem, z_k down to z_1.

    Each step replaces a term by minus the sum of its finite-pole residues in
    the current variable; order-m poles (after merging proportional factors)
    use the derivative rule.  Intermediate terms carry factored denominators
    and are reduced by exact linear-factor cancellation after every
    substitution.

    Unlike the expansion engine, truncation is applied only to the final
    value: intermediate denominators may carry positive powers of the
    truncation variable, so numerator powers above the bound still matter
    until everything is divided out.
    """
    ctx = form.ctx
    width = len(ctx)
    zpos = [ctx.index(z) for z in form.zvars]
    zero_exp = (0,) * width

    for poly, _ in form.factors:
        _leading_z(poly, zpos)  # rejects factors with all-zero z-coefficients

    def zcoeff_of(terms: Terms, idx: int) -> Q:
        e = [0] * width
        e[idx] = 1
        return terms.get(tuple(e), Q(0))

    # term = (numerator Terms, list[(factor Terms normalized, mult)])
    start_factors: list[tuple[Terms, int]] = []
    num0 = dict(form.numerator.terms)
    scale_acc = Q(1)
    for poly, mult in form.factors:
        ft, scale = _normalize_factor(dict(poly.terms))
        scale_acc *= scale**mult
        start_factors.append((ft, mult))
    if scale_acc != 1:
        num0 = {e: c / scale_acc for e, c in num0.items()}
    terms_list: list[tuple[Terms, list[tuple[Terms, int]]]] = [(num0, start_factors)]

    for j in range(len(zpos), 0, -1):
        zj = zpos[j - 1]
        new_terms: list[tuple[Terms, list[tuple[Terms, int]]]] = []
        for num, factors in terms_list:
            if not num:
                continue
            pole_fs: list[tuple[Terms, int]] = []
            passive: list[tuple[Terms, int]] = []
            for ft, m in factors:
                if zcoeff_of(ft, zj):
                    pole_fs.append((ft, m))
                else:
                    passive.append((ft, m))
            if not pole_fs:
                # as a function of z_j this term is polynomial: residue 0
                continue
            # merge identical (normalized) factors -> genuine higher-order poles
            merged: list[tuple[Terms, int]] = []
            for ft, m in pole_fs:
                for i, (gt, gm) in enumerate(merged):
                    if gt == ft:
                        merged[i] = (gt, gm + m)
                        break
                else:
                    merged.append((ft, m))
            for pick in range(len(merged)):
                f0, m0 = merged[pick]
                a0 = zcoeff_of(f0, zj)
                others = [(dict(ft), m) for i, (ft, m) in enumerate(merged) if i != pick]
                others += [(dict(ft), m) for ft, m in passive]
                # w = -(f0 - a0 z_j)/a0
                wval: Terms = {}
                for e, c in f0.items():
                    if e[zj] == 0:
                        wval[e] = -c / a0
                numer = dict(num)
                if m0 > 1:
                    # (m0-1)-st derivative of numer/prod(others): bump only
                    # factors that involve z_j
                    dyn = [i for i, (ft, m) in enumerate(others) if zcoeff_of(ft, zj)]
                    mults = [m for _, m in others]
                    for _ in range(m0 - 1):
                        dnum = _derivative(numer, zj)
                        part1 = dnum
                        for i in dyn:
                            part1 = _mul_terms(part1, others[i][0])
                        part2: Terms = {}
                        for i in dyn:
                            ai = zcoeff_of(others[i][0], zj)
                            piece = {e: c * (-Q(mults[i]) * ai) for e, c in numer.items()}
                            for i2 in dyn:
                                if i2 != i:
                                    piece = _mul_terms(piece, others[i2][0])
                            _add_into(part2, piece)
                        numer = dict(part1)
                        _add_into(numer, part2)
                        for i in dyn:
                            mults[i] += 1
                    others = [(ft, mults[i]) for i, (ft, _) in enumerate(others)]
                    scale = factorial(m0 - 1) * a0**m0
                    numer = {e: c / scale for e, c in numer.items()}
                else:
                    numer = {e: c / a0 for e, c in numer.items()}
                # substitute the pole into numerator and remaining factors
                pole = {form.zvars[j - 1]: MultiPoly._raw(ctx, wval)}
                numer = MultiPoly._raw(ctx, numer).substitute(pole).terms
                numer = {e: -c for e, c in numer.items()}  # minus: residue at infinity
                if not numer:
                    continue
                new_factors: list[tuple[Terms, int]] = []
                for ft, m in others:
                    fs = MultiPoly._raw(ctx, ft).substitute(pole).terms
                    if not fs:
                        raise JetresError("internal: factor vanished at a pole after merging")
                    if len(fs) == 1 and zero_exp in fs:
                        numer = {e: c / fs[zero_exp] ** m for e, c in numer.items()}
                        continue
                    fs, scale = _normalize_factor(fs)
                    if scale != 1:
                        numer = {e: c / scale**m for e, c in numer.items()}
                    new_factors.append((fs, m))
                # cancel factors that divide the numerator exactly
                numer_poly = MultiPoly(ctx, numer)
                reduced: list[tuple[Terms, int]] = []
                for fs, m in new_factors:
                    fpoly = MultiPoly(ctx, fs)
                    while m > 0:
                        quot = numer_poly.divide_exact(fpoly)
                        if quot is None:
                            break
                        numer_poly = quot
                        m -= 1
                    if m:
                        reduced.append((fs, m))
                if len(numer_poly.terms) > max_terms:
                    raise ResourceLimitError(f"residue_stepwise exceeded {max_terms} terms")
                new_terms.append((dict(numer_poly.terms), reduced))
        terms_list = new_terms

    # assemble the z-free rational terms over the factored least common
    # denominator (never the full product, which blows up symbolically)
    max_mult: dict[tuple, tuple[Terms, int]] = {}
    for _, factors in terms_list:
        for ft, m in factors:
            key = tuple(sorted(ft.items()))
            prev = max_mult.get(key)
            if prev is None or prev[1] < m:
                max_mult[key] = (ft, m)
    total_num: Terms = {}
    for num, factors in terms_list:
        have = {tuple(sorted(ft.items())): m for ft, m in factors}
        scaled = dict(num)
        for key, (ft, mmax) in max_mult.items():
            need = mmax - have.get(key, 0)
            for _ in range(need):
                scaled = _mul_terms(scaled, ft)
        _add_into(total_num, scaled)
    total_den: Terms = {zero_exp: Q(1)}
    for ft, mmax in max_mult.values():
        for _ in range(mmax):
            total_den = _mul_terms(total_den, ft)
    result = MultiPoly(ctx, total_num)
    denom = MultiPoly(ctx, total_den)
    if denom != MultiPoly.const(ctx, 1):
        quot = result.divide_exact(denom)
        if quot is None:
            raise JetresError("stepwise residue did not reduce to a polynomial value")
        result = quot
    if form.trunc is not None:
        result = result.truncate(*form.trunc)
    # the per-step minus signs realize the (-1)^k orientation
    return result


# ---------------------------------------------------------------------------
# Integrand builders
# ---------------------------------------------------------------------------


def tower_context(k: int, n: int | None = None) -> VarContext:
    """Context (z_1..z_k, h, d[, L_1..L_n]) used by the tower integrands."""
    names = [f"z{i}" for i in range(1, k + 1)] + ["h", "d"]
    if n is not None:
        names += [f"L{i}" for i in range(1, n + 1)]
    return VarContext(tuple(names))


def _zsum(ctx: VarContext, lo: int, hi: int) -> MultiPoly:
    """z_[lo..hi] = z_lo + ... + z_hi (1-based, inclusive)."""
    terms: Terms = {}
    for i in range(lo, hi + 1):
        e = [0] * len(ctx)
        e[ctx.index(f"z{i}")] = 1
        terms[tuple(e)] = Q(1)
    return MultiPoly(ctx, terms)


# per-level factors of a tower integrand: (numerator factors, denominator factors)
LevelFactors = tuple[list[MultiPoly], list[tuple[MultiPoly, int]]]


def _prefix_filter(ctx: VarContext, n: int, zpos: Sequence[int],
                   factors: Sequence[tuple[MultiPoly, int]]) -> Callable[[Terms], Terms]:
    """The filter that keeps the numerator terms z^a h^b obeying
    a_1 + ... + a_i + b <= M_i + n - i for i = 0..k-1, where M_i is the
    total multiplicity of the factors led by one of z_1..z_i."""
    mult = [0] * (len(zpos) + 1)
    for poly, m in factors:
        mult[_leading_z(poly, zpos)[0]] += m
    caps = [m_i + n - i for i, m_i in enumerate(accumulate(mult[:-1]))]
    # the prefix sum b, b + a_1, ..., b + a_1 + ... + a_(k-1) reads these slots
    slots = [ctx.index("h")] + list(zpos[:-1])

    def live(terms: Terms) -> Terms:
        out: Terms = {}
        for e, c in terms.items():
            s = 0
            for p, cap in zip(slots, caps):
                s += e[p]
                if s > cap:
                    break
            else:
                out[e] = c
        return out

    return live


def _tower_integrand(n: int, k: int, P: MultiPoly, level: Callable[[MultiPoly], LevelFactors],
                     over_X: bool) -> ResidueForm:
    """The plus kernel times P times, per level j, the numerator factors of
    level(z_[1..j]), over the kernel's factors and the level's denominators.

    The form is degree-matched when P is homogeneous in (z_1..z_k, h) of the
    fibre dimension k(n-1), plus n when the form integrates over X too.

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
    by a polynomial, so the filter is applied to P and after every product,
    and the residue (linear in the numerator) is unchanged.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx = P.ctx
    zvars = [f"z{i}" for i in range(1, k + 1)]
    ti, tm = (ctx.index("h"), n) if over_X else (-1, 0)
    kernel, factors = _plus_kernel(ctx, n, k)
    levels = [level(_zsum(ctx, 1, j)) for j in range(1, k + 1)]
    for _, level_den in levels:
        factors += level_den
    zpos = [ctx.index(z) for z in zvars]
    live = _prefix_filter(ctx, n, zpos, factors) if over_X else (lambda terms: terms)
    num = live(_mul_terms(kernel.terms, live(P.terms), ti, tm))
    for level_num, _ in levels:
        for f in level_num:
            num = live(_mul_terms(num, f.terms, ti, tm))
    zh = [name in zvars or name == "h" for name in ctx.names]
    degrees = {sum(p for p, used in zip(e, zh) if used) for e in P.terms}
    return ResidueForm(
        MultiPoly._raw(ctx, num),
        factors,
        zvars,
        trunc=("h", n) if over_X else None,
        degree_matched=degrees <= {k * (n - 1) + (n if over_X else 0)},
    )


def fibre_residue_integrand(
    n: int,
    k: int,
    P: MultiPoly,
    lambdas: Sequence[QLike] | None = None,
) -> ResidueForm:
    """Integrand whose residue is the fibre integral of P over the k-tower.

    With symbolic weights the denominators are (L_i - z_[1..j]); numeric
    weights are folded into the constants and must be pairwise distinct.
    For k = 1 this is the single-variable projective-space form
    P(z)/prod_i (L_i - z).
    """
    ctx = P.ctx
    if lambdas is not None:
        lambdas = [Q(v) for v in lambdas]
        if len(lambdas) != n:
            raise ValueError("need n weight values")
        if len(set(lambdas)) != n:
            raise DegenerateWeightsError("repeated weight values")

    def weights(w: MultiPoly) -> LevelFactors:
        # made here, after the builder has checked k, not before it
        if lambdas is None:
            lams = [MultiPoly.variable(ctx, f"L{i}") for i in range(1, n + 1)]
        else:
            lams = [MultiPoly.const(ctx, v) for v in lambdas]
        return [], [(lam - w, 1) for lam in lams]

    # the plus kernel without its (-1)^k prefactor
    return _tower_integrand(n, k, (-1) ** k * P, weights, False)


def segre_hypersurface(n: int, d: QLike | str = "symbolic") -> tuple[MultiPoly, ...]:
    """Segre classes (s_1, ..., s_n) of a degree-d hypersurface, from
    s(X) = (1+dh) (1+h)^-(n+2); s_i is c_i h^i in the context (h, d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = MultiPoly.variable(HD_CTX, "h")
    dval = MultiPoly.variable(HD_CTX, "d") if d == "symbolic" else MultiPoly.const(HD_CTX, d)
    c_total = ((1 + h) ** (n + 2)).truncate("h", n)
    series = ((1 + dval * h) * c_total.series_inverse(n)).truncate("h", n)
    return tuple(
        series.coefficient_of({"h": i}) * MultiPoly.monomial(HD_CTX, {"h": i})
        for i in range(1, n + 1)
    )


def reflect_payload(P: MultiPoly, k: int) -> MultiPoly:
    """P(z_1..z_k, ...) -> P(-z_1..-z_k, ...): the bridge between the
    fixed-point convention and the honest-class convention."""
    subs = {}
    for i in range(1, k + 1):
        name = f"z{i}"
        subs[name] = -MultiPoly.variable(P.ctx, name)
    return P.substitute(subs)


def _plus_kernel(
    ctx: VarContext, n: int, k: int
) -> tuple[MultiPoly, list[tuple[MultiPoly, int]]]:
    """Shared sign-flipped kernel: numerator prod z_[t1..t2] (t1 >= 2) with the
    (-1)^k prefactor, denominators (-z_s1 + z_[s1+1..s2])."""
    numerator = MultiPoly.const(ctx, (-1) ** k)
    for t1 in range(2, k + 1):
        for t2 in range(t1, k + 1):
            numerator = numerator * _zsum(ctx, t1, t2)
    factors: list[tuple[MultiPoly, int]] = []
    for s1 in range(1, k + 1):
        for s2 in range(s1 + 1, k + 1):
            factors.append((_zsum(ctx, s1 + 1, s2) - MultiPoly.variable(ctx, f"z{s1}"), 1))
    return numerator, factors


def demailly_integrand(n: int, k: int, P: MultiPoly, segre: Sequence[MultiPoly]) -> ResidueForm:
    """Integrand computing the full tower integral from Segre classes
    (s_1, ..., s_n) in the context (h, d).

    Per level j the tangent factor is cleared to polynomial form:
    1/prod_i(L_i + w) = (w^n + s_1 w^(n-1) + ... + s_n) / w^(2n) with
    w = z_[1..j].
    """
    if len(segre) != n:
        raise ValueError("Segre data dimension mismatch")
    classes = [s.embed(P.ctx) for s in segre]

    def cleared_tangent(w: MultiPoly) -> LevelFactors:
        nj = w**n
        for i in range(1, n + 1):
            nj = nj + classes[i - 1] * w ** (n - i)
        return [nj], [(w, 2 * n)]

    return _tower_integrand(n, k, P, cleared_tangent, True)


def hypersurface_integrand(n: int, k: int, P: MultiPoly) -> ResidueForm:
    """Integrand for the degree-d hypersurface: all tangent data in (h, d).

    Numerator (-1)^k prod_{1<=t1<=t2<=k} z_[t1..t2] * prod_j (z_[1..j]+dh) * P(z, h);
    denominator prod_{s1<s2} (-z_s1 + z_[s1+1..s2]) * prod_j (z_[1..j]+h)^(n+2).
    The numerator keeps only the terms that pass the prefix-degree caps of
    _tower_integrand.
    """
    h = MultiPoly.variable(P.ctx, "h")
    d = MultiPoly.variable(P.ctx, "d")
    return _tower_integrand(n, k, P, lambda w: ([w, w + d * h], [(w + h, n + 2)]), True)


def integrate_over_X(poly: MultiPoly, n: int) -> DPoly:
    """Integration over the n-dimensional hypersurface: h^n has degree d, and
    every other power of h integrates to zero (h^(n+1) = 0 on X).

    `poly` may involve no variables but h and d (ContextError otherwise).
    """
    top = poly.restrict(HD_CTX).coefficient_of({"h": n})
    return DPoly((Q(0),) + DPoly.from_multipoly(top, "d").coeffs)


def integral_over_tower(
    n: int,
    k: int,
    P: MultiPoly,
    max_terms: int = DEFAULT_TERM_CAP,
) -> DPoly:
    """Full pipeline: hypersurface integrand -> residue -> integrate over X."""
    return integrate_over_X(residue_expand(hypersurface_integrand(n, k, P), max_terms), n)


def grassmannian_omega(mus: Sequence[QLike] | None = None) -> ResidueForm:
    """The 2-variable form whose iterated residue is twice the Grass(2,4)
    integral of c_1(tau)^2 c_2(tau)."""
    if mus is None:
        ctx = VarContext(("z1", "z2", "M1", "M2", "M3", "M4"))
        mu_polys = [MultiPoly.variable(ctx, f"M{i}") for i in range(1, 5)]
    else:
        if len(mus) != 4 or len(set(Q(m) for m in mus)) != 4:
            raise DegenerateWeightsError("need four distinct weight values")
        ctx = VarContext(("z1", "z2"))
        mu_polys = [MultiPoly.const(ctx, m) for m in mus]
    z1 = MultiPoly.variable(ctx, "z1")
    z2 = MultiPoly.variable(ctx, "z2")
    numerator = -((z2 - z1) ** 2) * (z1 + z2) ** 2 * z1 * z2
    factors = []
    for m in mu_polys:
        factors.append((m - z1, 1))
        factors.append((m - z2, 1))
    return ResidueForm(numerator, factors, ("z1", "z2"))
