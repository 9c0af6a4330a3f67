"""Test-only oracles: the package's conventions checked against slower or
independent definitions.

The integral of c_1(tau)^2 c_2(tau) over Grass(2,4) is 1.  Its six fixed
points keep their weights symbolic here, where the full cancellation of a
common-denominator sum is cheap (`abbv_sum`).  `grassmannian_omega` is the
two-variable residue form whose iterated residue is twice that integral; it
pins the orientation convention of the residue engines.  `reflect_payload`
is z -> -z, the bridge between the fixed-point and the honest-class payload
conventions.

`weight_set_closed` is the closed rule for the tower's weight sets, checked
against the recursion `weight_set_recursive`; `euler_class` keeps a fixed
point's Euler class symbolic in the L_i.  `lambda_plus_member_bruteforce`
enumerates the cone generators that `ggl.lambda_plus_member` tests by prefix
sums.  `todd_of_X` is the hypersurface's Todd class Td(h)^(n+2) / Td(dh)
on `ggl._todd_power`, and `chi_structure_sheaf` is chi(X, O_X) from it.
`segre_hypersurface` is the hypersurface's Segre classes in closed binomial
form, the data of `residue.demailly_integrand`, the reference kernel.
`stage_series_convolved` expands one `residue_expand` stage the long way:
one binomial series per factor, convolved by total order.

`validate_prefix` walks a weight chain level by level, raising
`ValidationError` on a weight outside its weight set; `fixed_point` builds
a `tower.FixedPoint` from a chain it has validated.
`euler_characteristic_k1_pushforward` is chi at k = 1 by the degree-shift
pushforward rule, independent of the residue kernel.

`total_degree`, `is_homogeneous` and `truncate_total` read or cut a
`MultiPoly` by its total degree; `constant`, `evaluate`, `monomial` and
`series_inverse` read, evaluate, build or invert one.

`naive_mul`, `naive_series` and `naive_inverse` are the truncated series
operations of `exactalg` term by term in `Fraction` arithmetic, on series
held as grade -> {exponent tuple: coefficient}.  `graded_add` sums two
packed series through the package's own alignment and integer sums.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import factorial, lcm
from typing import Mapping, Sequence

from jetres.exactalg import (
    DPoly,
    Graded,
    HD_CTX,
    JetresError,
    MultiPoly,
    Q,
    QLike,
    VarContext,
    _aligned,
    _flat,
    _graded,
    _graded_inverse,
    _graded_mul,
    _graded_series,
    _summed,
    binomial,
)
from jetres.ggl import _todd_power
from jetres.localization import DegenerateWeightsError
from jetres.residue import ResidueForm, integrate_over_X
from jetres.tower import FixedPoint, Weight, _step, basis_weights


class ValidationError(JetresError):
    """An invalid fixed-point prefix or weight chain."""

    code = "validation"


@dataclass(frozen=True)
class LocalizationDatum:
    """One fixed point: the class value at the point and the Euler class."""

    numerator_value: MultiPoly
    euler: MultiPoly

    def __post_init__(self) -> None:
        if self.euler.is_zero:
            raise DegenerateWeightsError("zero Euler class at a fixed point")


class SymbolicFraction:
    """A quotient of polynomials, reduced by exact division when possible."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: MultiPoly, denominator: MultiPoly):
        if denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        quot = numerator.divide_exact(denominator)
        if quot is not None:
            numerator = quot
            denominator = MultiPoly.const(numerator.ctx, 1)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SymbolicFraction is immutable")

    @property
    def is_polynomial(self) -> bool:
        return self.denominator == MultiPoly.const(self.denominator.ctx, 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Q)):
            return self.is_polynomial and self.numerator == other
        if isinstance(other, MultiPoly):
            return self.is_polynomial and self.numerator == other
        if isinstance(other, SymbolicFraction):
            return (self.numerator * other.denominator) == (other.numerator * self.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        if self.is_polynomial:
            return f"SymbolicFraction({self.numerator.to_text()})"
        return f"SymbolicFraction(({self.numerator.to_text()})/({self.denominator.to_text()}))"


def abbv_sum(points: Sequence[LocalizationDatum]) -> SymbolicFraction:
    """Exact fixed-point sum: sum of value/euler over a common denominator."""
    if not points:
        raise ValueError("need at least one fixed point")
    ctx = points[0].numerator_value.ctx
    numerator = MultiPoly.zero(ctx)
    denominator = MultiPoly.const(ctx, 1)
    for datum in points:
        numerator = numerator * datum.euler + datum.numerator_value * denominator
        denominator = denominator * datum.euler
    return SymbolicFraction(numerator, denominator)


def grassmannian_context() -> VarContext:
    return VarContext(("M1", "M2", "M3", "M4"))


def grassmannian_fixed_point_data(
    mus: Sequence[QLike] | None = None,
) -> list[LocalizationDatum]:
    """The six fixed points of Grass(2,4) for the class c_1(tau)^2 c_2(tau).

    Value at the point {i,j} is (m_i+m_j)^2 m_i m_j; the Euler class is
    prod_{s not in {i,j}} (m_s-m_i)(m_s-m_j).  Symbolic by default.
    """
    ctx = grassmannian_context()
    if mus is None:
        vals = [MultiPoly.variable(ctx, f"M{i}") for i in range(1, 5)]
    else:
        if len(mus) != 4:
            raise ValueError("need four weights")
        if len({Q(m) for m in mus}) != 4:
            raise DegenerateWeightsError("repeated weight values")
        vals = [MultiPoly.const(ctx, m) for m in mus]
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            value = (vals[i] + vals[j]) ** 2 * vals[i] * vals[j]
            euler = MultiPoly.const(ctx, 1)
            for s in range(4):
                if s not in (i, j):
                    euler = euler * (vals[s] - vals[i]) * (vals[s] - vals[j])
            out.append(LocalizationDatum(value, euler))
    return out


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


def reflect_payload(P: MultiPoly, k: int) -> MultiPoly:
    """P(z_1..z_k, ...) -> P(-z_1..-z_k, ...): the bridge between the
    fixed-point convention and the honest-class convention."""
    zpos = [P.ctx.index(f"z{i}") for i in range(1, k + 1)]
    return MultiPoly(P.ctx, {e: -c if sum(e[i] for i in zpos) % 2 else c
                             for e, c in P.terms.items()})


def validate_prefix(prefix: Sequence[Weight], n: int) -> tuple[list[Weight], list[Weight]]:
    """Walk the recursion: the weight set above the prefix and the prefix's
    tangent weights, level by level."""
    current, tangent = sorted(basis_weights(n)), []
    for i, w in enumerate(prefix):
        if w not in current:
            raise ValidationError(f"prefix weight {w.coeffs} at position {i} not in its weight set")
        deltas, above = _step(current, current.index(w))
        tangent.extend(deltas)
        current = sorted(above)
    return current, tangent


def fixed_point(chain: Sequence[Weight], n: int) -> FixedPoint:
    """The fixed point of a valid chain, its tangent weights walked here."""
    return FixedPoint(tuple(chain), tuple(validate_prefix(chain, n)[1]))


def weight_set_recursive(prefix: Sequence[Weight], n: int) -> list[Weight]:
    """Weight set above a valid prefix, by the level-by-level recursion."""
    return validate_prefix(prefix, n)[0]


def weight_set_closed(prefix: Sequence[Weight], n: int) -> list[Weight]:
    """Same set by the closed form; exact multiset bookkeeping is asserted."""
    prefix = list(prefix)
    weight_set_recursive(prefix, n)  # raises ValidationError on an invalid prefix
    i = len(prefix)
    if i == 0:
        return sorted(basis_weights(n))
    candidates: list[Weight] = []
    total = prefix[0]
    for w in prefix[1:]:
        total = total + w
    for lam in basis_weights(n):
        candidates.append(lam - total)
    # w_t - (w_{t+1} + ... + w_i) for t = 1..i-1, then w_i itself
    for t in range(i - 1):
        tail = prefix[t + 1]
        for w in prefix[t + 2 :]:
            tail = tail + w
        candidates.append(prefix[t] - tail)
    candidates.append(prefix[-1])

    bag = Counter(candidates)
    zeros = bag.pop(Weight((0,) * n), 0)
    if zeros != 1:
        raise ValidationError(f"expected exactly one zero element, found {zeros}")
    removed = 0
    for t in range(1, i):
        tail = prefix[t]
        for w in prefix[t + 1 :]:
            tail = tail + w
        drop = -tail
        if bag[drop] <= 0:
            raise ValidationError(f"subtracted element {drop.coeffs} absent from candidate set")
        bag[drop] -= 1
        removed += 1
        if not bag[drop]:
            del bag[drop]
    # cardinality bookkeeping: n = (n + i) - 1 - (i - 1)
    if sum(bag.values()) != n or any(m != 1 for m in bag.values()):
        raise ValidationError("closed-form weight set is not a set of n elements")
    assert removed == i - 1
    return sorted(bag)


def lambda_context(n: int) -> VarContext:
    return VarContext(tuple(f"L{i}" for i in range(1, n + 1)))


def weight_poly(w: Weight, ctx: VarContext) -> MultiPoly:
    terms = {}
    for i, c in enumerate(w.coeffs):
        if c:
            e = [0] * len(ctx)
            e[i] = 1
            terms[tuple(e)] = Q(c)
    return MultiPoly(ctx, terms)


def euler_class(fp: FixedPoint, ctx: VarContext | None = None) -> MultiPoly:
    """Equivariant Euler class: the product of all tangent weights, in L_i's."""
    if ctx is None:
        ctx = lambda_context(len(fp.weights[0].coeffs))
    out = MultiPoly.const(ctx, 1)
    for w in fp.tangent:
        out = out * weight_poly(w, ctx)
    return out


def lambda_plus_member_bruteforce(i: Sequence[int], coeff_cap: int = 8) -> bool:
    """Membership in the cone of `ggl.lambda_plus_member`, by explicit generator enumeration.

    Enumerates coefficients of the root generators e_s - e_t up to coeff_cap;
    the -e_t coefficients are then forced and checked for non-negativity.
    """
    n = len(i)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]

    def rec(idx: int, current: list[int]) -> bool:
        if idx == len(pairs):
            return all(c <= 0 for c in current)
        s, t = pairs[idx]
        for c in range(coeff_cap + 1):
            vec = list(current)
            vec[s] -= c
            vec[t] += c
            # after adding c*(e_s - e_t) to the generators, the residual
            # current - c*(e_s-e_t) must eventually be <= 0 componentwise
            if rec(idx + 1, vec):
                return True
        return False

    return rec(0, list(i))


def _on_X(poly: MultiPoly, n: int, cap: int) -> Graded:
    """poly as a series graded by the degree in every variable but d, cut
    above cap, with h^(n+1) = 0."""
    weights = [0 if name == "d" else 1 for name in poly.ctx.names]
    return _graded(poly, weights, cap, poly.ctx.index("h"), n)


def _todd_series(f: MultiPoly, m: int, n: int, cap: int) -> Graded:
    """Td(f)^m on X, cut above degree cap."""
    return _graded_series(_on_X(f, n, cap), _todd_power(m, cap), cap)


def todd_of_X(n: int) -> MultiPoly:
    """Todd class of the hypersurface in (h, d): Td(h)^(n+2) / Td(dh), from
    the K-theory class (n+2)O(h) - O - O(dh) of its tangent bundle."""
    h, d = (MultiPoly.variable(HD_CTX, name) for name in ("h", "d"))
    td = _graded_mul(_todd_series(h, n + 2, n, n), _todd_series(d * h, -1, n, n), n)
    return MultiPoly._raw(HD_CTX, *_flat(td))


def segre_hypersurface(n: int) -> tuple[MultiPoly, ...]:
    """Segre classes (s_1, ..., s_n) of a degree-d hypersurface in the
    context (h, d): s(X) = (1+dh) (1+h)^-(n+2), so
    s_i = (C(-(n+2), i) + C(-(n+2), i-1) d) h^i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = -(n + 2)
    return tuple(MultiPoly(HD_CTX, {(i, 0): binomial(m, i), (i, 1): binomial(m, i - 1)})
                 for i in range(1, n + 1))


def chi_structure_sheaf(n: int) -> DPoly:
    """chi(X, O_X) = integral of the Todd class over the hypersurface."""
    return integrate_over_X(todd_of_X(n), n)


def euler_characteristic_k1_pushforward(n: int, a1: int) -> DPoly:
    """Independent k = 1 oracle via the degree-shift pushforward rule.

    On the projectivized tangent bundle the honest tautological class u
    pushes forward by u^m -> (-1)^m s_(m-n+1)(X) in the fibre machinery's
    coordinates; chi is the X-integral of the u-expansion of
    e^(a1 u) Td(fibre tangent) Td(X) pushed down term by term.
    """
    ctx = VarContext(("u", "h", "d"))
    u, h, d = (MultiPoly.variable(ctx, name) for name in ("u", "h", "d"))
    # pushforward kills u-powers beyond 2n-1, and h^(n+1) = 0
    cap = 2 * n - 1 + n
    payload = _graded_series(_on_X(Q(a1) * u, n, cap), [Q(1, factorial(m)) for m in range(cap + 1)],
                              cap)
    # the fibre tangent's Todd class prod_s Td(L_s - u), from the tangent
    # bundle's K-theory class: Td(h - u)^(n+2) / (Td(-u) Td(dh - u))
    for f, m in [(h - u, n + 2), (-u, -1), (d * h - u, -1)]:
        payload = _graded_mul(payload, _todd_series(f, m, n, cap), cap)
    payload = _graded_mul(payload, _on_X(todd_of_X(n).recast(ctx), n, cap), cap)
    payload_poly = MultiPoly._raw(ctx, *_flat(payload))

    # pushforward: u^m -> (-1)^m s_(m-n+1)
    segre = (MultiPoly.const(HD_CTX, 1),) + segre_hypersurface(n)
    total = MultiPoly.zero(HD_CTX)
    for (m, b, j), c in payload_poly.terms.items():
        if n - 1 <= m < 2 * n:
            total = total + (-1) ** m * c * MultiPoly(HD_CTX, {(b, j): 1}) * segre[m - n + 1]
    return integrate_over_X(total, n)


def constant(poly: MultiPoly) -> Q:
    """The constant term."""
    return poly.terms.get((0,) * len(poly.ctx), Q(0))


def evaluate(poly: MultiPoly, values: Mapping[str, QLike]) -> Q:
    """The value at rational values of every variable the polynomial uses."""
    vals = {poly.ctx.index(name): Q(v) for name, v in values.items()}
    total = Q(0)
    for e, c in poly.terms.items():
        for i, p in enumerate(e):
            if p:
                c *= vals[i] ** p
        total += c
    return total


def monomial(ctx: VarContext, powers: Mapping[str, int]) -> MultiPoly:
    """The product of the named variables to their powers."""
    e = [0] * len(ctx)
    for name, p in powers.items():
        e[ctx.index(name)] = p
    return MultiPoly(ctx, {tuple(e): 1})


def series_inverse(poly: MultiPoly, cap: int) -> MultiPoly:
    """The b with poly * b == 1 modulo total degree > cap; the constant term
    must be exactly 1."""
    graded = _graded(poly, [1] * len(poly.ctx), cap)
    return MultiPoly._raw(poly.ctx, *_flat(_graded_inverse(graded, cap)))


def total_degree(poly: MultiPoly) -> int:
    return max((sum(e) for e in poly.terms), default=0)


def is_homogeneous(poly: MultiPoly) -> bool:
    return len({sum(e) for e in poly.terms}) <= 1


def truncate_total(poly: MultiPoly, cap: int) -> MultiPoly:
    """The terms of total degree <= cap."""
    return MultiPoly(poly.ctx, {e: c for e, c in poly.terms.items() if sum(e) <= cap})


Terms = dict[tuple[int, ...], Q]  # rational coefficients by exponent tuple
Buckets = dict[int, Terms]  # grade -> terms of that grade


def naive_mul(a: Buckets, b: Buckets, cap: int, trunc_idx: int = -1,
              trunc_max: int = 0) -> Buckets:
    """The product modulo grade > cap and exponents above trunc_max at
    trunc_idx (if set), term by term."""
    out: Buckets = {}
    for g1, t1 in a.items():
        for g2, t2 in b.items():
            if g1 + g2 > cap:
                continue
            part = out.setdefault(g1 + g2, {})
            for e1, c1 in t1.items():
                for e2, c2 in t2.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    if trunc_idx < 0 or e[trunc_idx] <= trunc_max:
                        part[e] = part.get(e, Q(0)) + c1 * c2
    return {g: kept for g, t in sorted(out.items()) if (kept := {e: c for e, c in t.items() if c})}


def naive_series(x: Buckets, coeffs: Sequence[QLike], cap: int, width: int,
                 trunc_idx: int = -1, trunc_max: int = 0) -> Buckets:
    """sum_m coeffs[m] x^m modulo grade > cap, with every power of the sum."""
    out: Buckets = {}
    power: Buckets = {0: {(0,) * width: Q(1)}}
    for c in coeffs:
        for g, t in power.items():
            part = out.setdefault(g, {})
            for e, v in t.items():
                part[e] = part.get(e, Q(0)) + Q(c) * v
        power = naive_mul(power, x, cap, trunc_idx, trunc_max)
    return {g: kept for g, t in sorted(out.items()) if (kept := {e: c for e, c in t.items() if c})}


def naive_inverse(a: Buckets, cap: int, width: int, trunc_idx: int = -1,
                  trunc_max: int = 0) -> Buckets:
    """1/a modulo grade > cap for a of grade-0 part 1, as the geometric series
    sum_m (1 - a)^m, which stops because 1 - a has no grade 0."""
    rest = {g: {e: -c for e, c in t.items()} for g, t in a.items() if g}
    return naive_series(rest, [1] * (cap + 1), cap, width, trunc_idx, trunc_max)


def stage_series_convolved(group: Sequence[tuple[Q, Terms, int]], smax: int, width: int,
                           trunc_idx: int = -1, trunc_max: int = 0) -> Buckets:
    """The product of the factors (c z_j + R)^(-m) of one residue stage,
    keyed by the order s of z_j^(-s), for s up to smax: each factor expanded
    as sum_r (-1)^r C(m+r-1, r) R^r / (c z_j)^(m+r), and the series
    convolved by total order."""
    m_total = sum(m for _, _, m in group)
    conv: Buckets = {0: {(0,) * width: Q(1)}}
    for c_lead, rest, mult in group:
        room = smax - (m_total - mult)
        coeffs = [Q((-1) ** r * binomial(mult + r - 1, r)) / (c_lead ** (mult + r))
                  for r in range(room - mult + 1)]
        fser = naive_series({1: rest}, coeffs, room - mult, width, trunc_idx, trunc_max)
        conv = naive_mul(conv, {mult + r: t for r, t in fser.items()}, smax, trunc_idx,
                         trunc_max)
    return conv


def graded_add(a: Graded, b: Graded) -> Graded:
    """a + b, over the lcm of the two denominators."""
    a, b = _aligned(a, b)
    den = lcm(a.den, b.den)
    return _summed(a.codec, max(a.reach, b.reach), den, [(den // a.den, a), (den // b.den, b)])
