"""Degree-threshold pipeline: intersection polynomial, certificates, estimates.

The positivity question is reduced to a polynomial in the hypersurface degree
d: integrate the weighted tautological payload over the jet tower above the
degree-d hypersurface and read off I(d) = d * p(d).  The payload is a power
of one linear form times another, so its h <= n part is n + 1 blocks
q_b(d) h^b c_1^(dim-b), and `build_intersection_polynomial` integrates them
by fixed-point localization (`integral_over_tower_fixed_points`); the
expanded payload is never built.  Positivity of p beyond a bound is
certified by the Fujiwara coefficient criterion.  The second route for I(d)
is the hypersurface residue over the expanded payload
(`integral_over_tower(n, k, intersection_payload(cfg))`), which the CLI runs
under `ggl --verify`.

Also here: the Laurent-coefficient tables of the kernel factors behind the
defect/lattice estimates, the lattice cone of admissible exponents with its
defect grading, the relative nef/ample test for weight vectors, and the
Euler characteristic of the pushed-forward tautological line bundle.  Both
the tables and the Euler characteristic read the hypersurface integrand's
factor list: the tables expand its ratio, and chi takes the tower's Todd
class as one Todd factor per listed factor, times the exponential character,
and integrates only the payload's top degree (`euler_payload`) with
`integral_over_tower`; `euler-char --verify` integrates it by localization.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction as Q
from functools import lru_cache, reduce
from math import factorial
from typing import NamedTuple, Sequence

from .exactalg import (
    DPoly,
    Graded,
    JetresError,
    MultiPoly,
    QLike,
    _flat,
    _graded,
    _graded_mul,
    _graded_series,
    _power_cap,
    binomial,
    multinomial,
)
from .localization import integral_over_tower_fixed_points
from .residue import (
    DEFAULT_TERM_CAP,
    _hypersurface_factors,
    _hypersurface_level,
    _leading_z,
    integral_over_tower,
    tower_context,
)
from .tower import DEFAULT_POINT_CAP, _check_cap

__all__ = [
    "GGLConfig",
    "canonical_config",
    "s_constant",
    "intersection_payload",
    "build_intersection_polynomial",
    "fujiwara_certificate",
    "b0",
    "defect",
    "lambda_plus_member",
    "CoefficientTable",
    "expansion_diagnostics",
    "assemble_intersection_from_tables",
    "payload_closed_form",
    "estimate_checks",
    "ample_condition",
    "euler_payload",
    "euler_characteristic",
    "ThresholdReport",
    "ggl_threshold_check",
]


class GGLConfig:
    """Problem instance: dimension n, jet order k, weights a, twist delta."""

    __slots__ = ("n", "k", "a", "delta")

    def __init__(self, *, n: int, k: int, a: tuple[int, ...], delta: QLike) -> None:
        if n < 2:
            raise ValueError("n must be >= 2")
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(a) != k:
            raise ValueError("need k weights")
        if any(ai <= 0 for ai in a):
            raise ValueError("weights must be positive")
        self.n, self.k, self.a, self.delta = n, k, a, Q(delta)
        if self.delta < 0:
            raise ValueError("delta must be >= 0")

    @property
    def a_total(self) -> int:
        return sum(self.a)


def canonical_config(n: int) -> GGLConfig:
    """The instance a_i = n^(8(n+1-i)), delta = 1/(2 n^(8n)), k = n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    a = tuple(n ** (8 * (n + 1 - i)) for i in range(1, n + 1))
    return GGLConfig(n=n, k=n, a=a, delta=Q(1, 2 * n ** (8 * n)))


def s_constant(n: int, k: int, delta: QLike) -> DPoly:
    """S_{n,k,delta,d} = 2 - dim (2 + delta (d - n - 2)) with dim = n + k(n-1),
    the affine DPoly [2 - dim (2 - (n+2) delta), -dim delta]."""
    dim, delta = n + k * (n - 1), Q(delta)
    return DPoly([2 - dim * (2 - (n + 2) * delta), -dim * delta])


def intersection_payload(cfg: GGLConfig, max_terms: int = DEFAULT_TERM_CAP) -> MultiPoly:
    """The weighted payload (sum a_i z_i + 2|a| h)^((k+1)(n-1)) *
    (sum a_i z_i + S_{n,k,delta,d} |a| h); its power is capped unexpanded."""
    n, k = cfg.n, cfg.k
    ctx = tower_context(k)
    az = MultiPoly.zero(ctx)
    for i, ai in enumerate(cfg.a, start=1):
        az = az + ai * MultiPoly.variable(ctx, f"z{i}")
    h, d = MultiPoly.variable(ctx, "h"), MultiPoly.variable(ctx, "d")
    S = s_constant(n, k, cfg.delta)
    base, exp = az + 2 * cfg.a_total * h, (k + 1) * (n - 1)
    _power_cap("intersection_payload", base, exp, max_terms)
    return base**exp * (az + (S[0] + S[1] * d) * cfg.a_total * h)


def _payload_blocks(cfg: GGLConfig) -> list[DPoly]:
    """The h <= n part of the payload as blocks q_b(d) h^b c_1^(N+1-b),
    b = 0..n, with c_1 = sum a_i z_i and N = (k+1)(n-1):
    q_b = C(N, b) A^b + C(N, b-1) A^(b-1) |a| S for A = 2|a|."""
    N, A = (cfg.k + 1) * (cfg.n - 1), 2 * cfg.a_total
    S = s_constant(cfg.n, cfg.k, cfg.delta)
    blocks = [DPoly([1])]
    for b in range(1, cfg.n + 1):
        blocks.append(DPoly([binomial(N, b) * A**b])
                      + S * (binomial(N, b - 1) * A ** (b - 1) * cfg.a_total))
    return blocks


def build_intersection_polynomial(
    cfg: GGLConfig, max_points: int = DEFAULT_POINT_CAP
) -> tuple[DPoly, DPoly]:
    """The pair (I, p) with I(d) = d * p(d), by fixed-point localization;
    every integral over X is a multiple of d, so p is I shifted down.  The
    point cap is checked before the blocks, whose coefficients grow with n."""
    _check_cap(cfg.n, cfg.k, max_points)
    I = integral_over_tower_fixed_points(
        cfg.n, cfg.k, cfg.a, _payload_blocks(cfg), point_cap=max_points
    )
    return I, DPoly(I.coeffs[1:])


def fujiwara_certificate(p: DPoly, bound: QLike) -> bool:
    """True iff p_n > 0 and |p_{n-l}| < bound^l * p_n for l = 1..n.

    A true certificate implies p(d) > 0 for all d > 2*bound.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if bound <= 0:
        raise ValueError("the certificate bound must be positive")
    n = p.degree()
    lead = p[n]
    if lead <= 0:
        return False
    D = Q(bound)
    return all(abs(p[n - l]) < D**l * lead for l in range(1, n + 1))


def b0(a: Sequence[int]) -> Q:
    """(a_1...a_n)^n times the central multinomial coefficient of n^2,
    for n = len(a)."""
    n = len(a)
    prod = 1
    for ai in a:
        prod *= ai
    return Q(prod) ** n * multinomial(n * n, [n] * n)


def defect(i: Sequence[int]) -> int:
    """The weighted coordinate sum n*i_1 + (n-1)*i_2 + ... + 1*i_n, n = len(i)."""
    n = len(i)
    return sum((n - t) * it for t, it in enumerate(i))


def lambda_plus_member(i: Sequence[int]) -> bool:
    """Membership in the cone spanned by e_s - e_t (s < t) and -e_t.

    Criterion: the total sum is <= 0 and is <= every prefix sum.  Necessity:
    each generator only moves mass leftward or removes it.  Sufficiency: pad
    the deficit -sum(i) onto late coordinates so all prefix sums become
    non-negative, then peel off simple roots.
    """
    total = sum(i)
    if total > 0:
        return False
    prefix = 0
    for x in i[:-1]:
        prefix += x
        if prefix < total:
            return False
    return True


# ---------------------------------------------------------------------------
# Laurent coefficient tables of the kernel and payload (n = k)
# ---------------------------------------------------------------------------

Key = tuple[tuple[int, ...], int, int]  # (z exponent vector, h power, dh power)


class CoefficientTable:
    """Exact Laurent coefficients of the kernel factors and the payload.

    Keys are (z-exponent vector, power of h, power of dh).  The kernel tables
    a0/a1/a2 (and their product a, at h power + dh power <= n) hold the exact
    Laurent coefficients of the expanded ratio factors up to grade
    defect_cap + 2n^2; b holds the payload
    coefficients of B(z) = payload/(z_1...z_n)^n, including the
    -n^2 delta |a| factor carried by its dh entry.
    """

    def __init__(self, n: int, a0: dict[Key, Q], a1: dict[Key, Q],
                 a2: dict[Key, Q], a: dict[Key, Q], b: dict[Key, Q]) -> None:
        self.n = n
        self.a0, self.a1, self.a2, self.a, self.b = a0, a1, a2, a, b
        self._a_by_z: dict[tuple[int, ...], list[tuple[int, int, Q]]] | None = None

    def a_slice(self, zvec: Sequence[int]) -> list[tuple[int, int, Q]]:
        if self._a_by_z is None:  # built on the first call: only assembly reads it
            self._a_by_z = {}
            for (z, s, t), c in self.a.items():
                self._a_by_z.setdefault(z, []).append((s, t, c))
        return self._a_by_z.get(tuple(zvec), [])


def _flat_terms(poly: MultiPoly, zshift: Sequence[int]) -> MultiPoly:
    """The terms z^e h^s (dh)^t of a polynomial over tower_context(n) as the
    Laurent polynomial of the z^(e + zshift) h^s (dh)^t in the same context,
    in the flat exponents (z_1..z_n, s + t, t): the total h power s + t is
    the exponent of h, and every d arrives as dh."""
    n = len(zshift)
    out = {}
    for e, c in poly.num.items():
        if e[n] < e[n + 1]:
            raise JetresError("d without matching h")
        out[tuple(x + y for x, y in zip(e, zshift)) + e[n:]] = c
    return MultiPoly._raw(poly.ctx, out, poly.den)


def expansion_diagnostics(
    n: int, defect_cap: int, max_terms: int = DEFAULT_TERM_CAP
) -> CoefficientTable:
    """Exact coefficient tables of the kernel and the canonical payload (k = n).

    The kernel is the ratio of the hypersurface integrand's factors
    (residue._hypersurface_factors), each factor f led by z_j with
    coefficient c taken as f/(c z_j) = 1 + r.  Its entries
    are built on flat exponents (z_1..z_n, s + t, t), graded by D(z) + n(s + t),
    cut at s + t <= n (assembly pairs no other entry: a payload entry has
    s, t >= 0), and are the exact Laurent coefficients up to grade
    defect_cap + 2n^2.  Every r has grade >= 0 (a z_i/z_j ratio with i < j
    has grade j - i, an h/z_j or dh/z_j pick j - 1), so truncating every
    product loses nothing up to the cap, and a denominator's series
    (1 + r)^(-m) is exact with its terms up to r^cap: for j >= 2 the least
    grade of r is >= 1, and for j = 1 (r = h/z_1) the cut s + t <= n ends it.

    a0 collects the factors that hold d, a2 the denominators that hold h,
    and a1 the rest, as the product of its levels A1_j (the factors led by
    z_j).  The kernel is a = a0 ((a2 A1_n) ... A1_2); the truncated product
    is associative, so the order is free.  a0 goes last because it spreads
    whatever it meets, and a1's levels meet a2 one at a time, widest first.
    Every product counts its terms against max_terms after every pair of
    buckets, every series its sum; the first count above it raises
    ResourceLimitError, as does the payload's power (intersection_payload).
    """
    if defect_cap < 0:
        raise ValueError("defect_cap must be >= 0")
    cap = defect_cap + 2 * n * n
    weights = tuple(range(n, 0, -1)) + (n, 0)
    term_cap = (max_terms, "expansion_diagnostics")
    ctx = tower_context(n)
    numerators, denominators = _hypersurface_factors(ctx, n, n)

    def mul(x: Graded, y: Graded) -> Graded:
        return _graded_mul(x, y, cap, term_cap)

    one = _graded(MultiPoly.const(ctx, 1), weights, cap, n, n)
    a0 = a2 = one
    levels: dict[int, Graded] = {}
    for f, power in [(f, 1) for f in numerators] + [(f, -m) for f, m in denominators]:
        j, c = _leading_z(f, range(n))
        r = _flat_terms(f * (1 / c) - MultiPoly.variable(ctx, f"z{j}"),
                        [-(i == j) for i in range(1, n + 1)])
        if r.is_zero:
            continue  # f = c z_j
        coeffs = [Q(binomial(power, i)) for i in range(power + 1 if power > 0 else cap + 1)]
        series = _graded_series(_graded(r, weights, cap, n, n), coeffs, cap, term_cap)
        used = f.variables_used()
        if "d" in used:
            a0 = mul(a0, series)
        elif power < 0 and "h" in used:
            a2 = mul(a2, series)
        else:
            levels[j] = mul(levels.get(j, one), series)
    a1_levels = [levels[j] for j in sorted(levels)]  # A1_2 .. A1_n
    a1 = reduce(mul, a1_levels, one)
    a = mul(a0, reduce(mul, reversed(a1_levels), a2))

    def keyed(num: dict[tuple[int, ...], int], den: int) -> dict[Key, Q]:
        return {(e[:n], e[n] - e[n + 1], e[n + 1]): Q(c, den) for e, c in num.items()}

    tables: list[dict[Key, Q]] = []
    for tb in (a0, a1, a2, a):
        tables.append({})
        while tb.parts:  # release each bucket once converted
            tables[-1].update(keyed(*_flat(tb._replace(parts=dict([tb.parts.popitem()])))))
    P = intersection_payload(canonical_config(n), max_terms)
    B = _flat_terms(P, [-n] * n)  # B(z) = P / (z_1...z_n)^n
    return CoefficientTable(n, *tables, b=keyed(B.num, B.den))


def assemble_intersection_from_tables(table: CoefficientTable) -> DPoly:
    """I(d) re-assembled by pairing payload entries against kernel entries.

    The coefficient of (z_1...z_n)^(-1) h^n collects A_(alpha,sA,tA) *
    B_(beta,sB,tB) over alpha + beta = (-1,...,-1) and sA+sB+tA+tB = n; each
    dh power contributes one d, and integration contributes one more.
    """
    n = table.n
    q: dict[int, Q] = defaultdict(Q)
    for (beta, sB, tB), cB in table.b.items():
        alpha = tuple(-1 - x for x in beta)
        for sA, tA, cA in table.a_slice(alpha):
            if sA + sB + tA + tB == n:
                q[tA + tB] += cA * cB
    coeffs = [Q(0)] * (n + 2)
    for m, c in q.items():
        coeffs[m + 1] = c
    return DPoly(coeffs)


def payload_closed_form(cfg: GGLConfig, i: Sequence[int], s: int) -> Q:
    """Closed combinatorial form for the payload coefficient at z^i h^s (no dh).

    Valid when sum(i) = -s: a multinomial pairing of the two payload factors,
    with the correction weighted by S_{n,delta}/2 - 1.
    """
    n = cfg.n
    if sum(i) != -s:
        raise ValueError("requires sum(i) = -s")
    shifted = [x + n for x in i]
    s_ndelta = s_constant(n, n, cfg.delta)[0]  # the d-free part of S at n = k
    main = multinomial(n * n, [s] + shifted)
    corr = multinomial(n * n - 1, [s - 1] + shifted) if s >= 1 else 0
    apart = Q(1)
    for t in range(n):
        apart *= Q(cfg.a[t]) ** shifted[t]
    return (main + (s_ndelta / 2 - 1) * corr) * Q(2 * cfg.a_total) ** s * apart


def estimate_checks(
    n: int, defect_cap: int = 4, max_terms: int = DEFAULT_TERM_CAP,
    max_points: int = DEFAULT_POINT_CAP,
) -> list[tuple[str, bool, bool, str]]:
    """Recompute the displayed coefficient estimates as exact comparisons,
    one (name, passed, required, details) per check; failures are findings.

    Required checks are the ones a caller's verdict rests on; informational
    checks record how the looser display-level bounds fare.
    """
    _check_cap(n, n, max_points)  # before canonical_config, which grows with n
    cfg = canonical_config(n)
    checks: list[tuple[str, bool, bool, str]] = []

    def add(name: str, ok: bool, details: str = "", required: bool = True) -> None:
        checks.append((name, bool(ok), required, details))

    _, p = build_intersection_polynomial(cfg, max_points)
    B0 = b0(cfg.a)

    add(
        "p_n > B0/2",
        p[n] > B0 / 2,
        f"p_n = {p[n]}, B0 = {B0}",
    )
    for l in range(1, n + 1):
        bound = 3 * Q(n) ** (8 * l * n) * p[n]
        add(
            f"|p_(n-{l})| < 3 n^(8*{l}*n) p_n",
            abs(p[n - l]) < bound,
            f"|p_(n-{l})| = {abs(p[n - l])}",
        )

    table = expansion_diagnostics(n, defect_cap, max_terms)
    outside = {z for z in {z for z, _, _ in table.a} if not lambda_plus_member(z)}
    bad = [z for (z, s, t) in table.a if z in outside]
    add(
        "A-support contained in the admissible cone",
        not bad,
        f"violations: {sorted(bad)[:3]}" if bad else "",
    )

    for label, tab in (("A1", table.a1), ("A2", table.a2)):
        ok = True
        worst = ""
        for (z, s, t), c in tab.items():
            if s or t or sum(z) != 0:
                continue
            D = defect(z)
            if 1 <= D <= defect_cap and not abs(c) < Q(n) ** (3 * D):
                ok = False
                worst = f"{label}_{z} = {c} vs n^{3 * D}"
                break
        add(f"|{label}_i| < n^(3 D(i)) for 1 <= D(i) <= {defect_cap}", ok, worst)

    # The h-weighted variant is recorded as a finding: as displayed it fails
    # already at n=2, i=(0,-1), s=1 where the exact coefficient is 12 against
    # a bound of 1/4.  The downstream coefficient bounds it feeds are checked
    # directly above and hold with room to spare.  The named witness minimizes
    # (s, |i|_1, -D(i)), which is i = -e_n at s = 1, whatever the table order.
    violators = []
    for (z, s, t), c in table.a2.items():
        if t or s < 1 or sum(z) != -s:
            continue
        D = defect(z)
        if abs(D) <= defect_cap and not abs(c) < Q(n) ** (3 * D + s):
            violators.append((s, sum(map(abs, z)), -D, z, c))
    worst = ""
    if violators:
        s, _, minus_d, z, c = min(violators)
        worst = f"A2_(z^{z} h^{s}) = {c} vs n^{s - 3 * minus_d}"
    add(
        "|A2_(z^i h^s)| < n^(3 D(i)+s) (display-level bound)", not violators, worst, required=False
    )

    ok = True
    worst = ""
    for (z, s, t), c in table.b.items():
        if t:
            continue
        if abs(defect(z)) > 3:
            continue
        closed = payload_closed_form(cfg, z, s)
        if closed != c:
            ok = False
            worst = f"B_(z^{z} h^{s}): table {c} vs closed {closed}"
            break
    add("payload coefficients match the closed multinomial form (|defect| <= 3)", ok, worst)

    b_zero = table.b.get(((0,) * n, 0, 0), Q(0))
    add(
        "B_0 identity",
        b_zero == B0 and table.a.get(((-1,) * n, 0, n)) == 1,
        f"B_(0) = {b_zero}",
    )
    return checks


def ample_condition(a: Sequence[int]) -> str:
    """Relative positivity of the weighted tautological bundle for weights a.

    Nef: a_1 >= 3a_2, ..., a_(k-2) >= 3a_(k-1) and a_(k-1) >= 2a_k >= 0;
    ample additionally needs the last chain strict: a_(k-1) > 2a_k > 0.
    """
    if not a:
        raise ValueError("empty weight vector")
    k = len(a)
    if k == 1:
        if a[0] > 0:
            return "relatively_ample"
        return "relatively_nef" if a[0] == 0 else "neither"
    chain = all(a[i] >= 3 * a[i + 1] for i in range(k - 2))
    nef = chain and a[k - 2] >= 2 * a[k - 1] >= 0
    ample = chain and a[k - 2] > 2 * a[k - 1] > 0
    if ample:
        return "relatively_ample"
    if nef:
        return "relatively_nef"
    return "neither"


# ---------------------------------------------------------------------------
# Euler characteristic of the pushed-forward tautological bundle
# ---------------------------------------------------------------------------


def _todd_power(m: int, order: int) -> list[Q]:
    """Coefficients of Td(x)^m = (x / (1 - e^(-x)))^m up to x^order, for any
    integer m: the power b = a^(-m) of a = (1 - e^(-x))/x, whose coefficients
    are a_i = (-1)^i / (i+1)!, by the recurrence
    g b_g = sum_(i=1..g) ((1 - m) i - g) a_i b_(g-i) with b_0 = 1."""
    a = [Q((-1) ** i, factorial(i + 1)) for i in range(order + 1)]
    b = [Q(1)]
    for g in range(1, order + 1):
        b.append(sum(((1 - m) * i - g) * a[i] * b[g - i] for i in range(1, g + 1)) / g)
    return b


@lru_cache(maxsize=1)  # euler-char --verify integrates one payload along both routes
def euler_payload(n: int, k: int, a: tuple[int, ...]) -> MultiPoly:
    """The part of ch(L) Td(T) of (z, h)-degree dim = n + k(n-1), over
    tower_context(k): the only part the Euler characteristic integrates.

    L is O_(X_k)(-a): ch(L) = e^(-sum a_j z_j) for z_j = c_1(O_(X_j)(1)) in
    Demailly's convention (the honest-class coordinates).  Td(T) is read off
    the hypersurface integrand's factor list (residue._hypersurface_factors)
    plus the level at w = 0, which is X's own tangent bundle
    (n+2)O(h) - O - O(dh): Td(f)^m for each denominator factor f^m and
    Td(f)^(-1) for each numerator factor f.  The kernel is homogeneous of degree -kn in (z, h), with d of
    degree 0, so only the degree-dim part can reach (z_1...z_k)^(-1) h^n,
    and every series is truncated above degree dim.
    """
    if len(a) != k:
        raise ValueError("need k weights")
    dim = n + k * (n - 1)
    ctx = tower_context(k)
    weights = [0 if name == "d" else 1 for name in ctx.names]

    def graded(poly: MultiPoly) -> Graded:
        return _graded(poly, weights, dim, ctx.index("h"), n)

    expo = MultiPoly.zero(ctx)
    for j, aj in enumerate(a, start=1):
        expo = expo - aj * MultiPoly.variable(ctx, f"z{j}")
    payload = _graded_series(graded(expo), [Q(1, factorial(m)) for m in range(dim + 1)], dim)
    numerators, denominators = _hypersurface_factors(ctx, n, k)
    x_num, x_den = _hypersurface_level(n, MultiPoly.zero(ctx))
    for f, m in [(f, -1) for f in numerators + x_num] + denominators + x_den:
        payload = _graded_mul(payload, _graded_series(graded(f), _todd_power(m, dim), dim), dim)
    top = payload._replace(parts={g: t for g, t in payload.parts.items() if g == dim})
    return MultiPoly._raw(ctx, *_flat(top))


def euler_characteristic(
    n: int, k: int, a: Sequence[int], max_terms: int = DEFAULT_TERM_CAP
) -> DPoly:
    """chi(X_k, O_(X_k)(-a)) in Demailly's convention, exact in d: the
    integral over the tower of euler_payload(n, k, a) by the hypersurface
    residue (integral_over_tower).  So a = (-1,) at k = 1 gives chi(Omega^1_X)."""
    return integral_over_tower(n, k, euler_payload(n, k, tuple(a)), max_terms)


class ThresholdReport(NamedTuple):
    """Scaled theorem instance: certificate plus exact spot sign checks."""

    intersection: DPoly
    p: DPoly
    bound: QLike
    certificate: bool
    spot_checks: list[tuple[QLike, bool]]


def ggl_threshold_check(
    cfg: GGLConfig, bound: QLike | None = None, max_points: int = DEFAULT_POINT_CAP
) -> ThresholdReport:
    """Certify I(d) > 0 for d > 2 bound on cfg; the bound defaults to 3 n^(8n)."""
    bound = 3 * cfg.n ** (8 * cfg.n) if bound is None else bound
    if bound <= 0:  # before the build, which may be long
        raise ValueError("the certificate bound must be positive")
    I, p = build_intersection_polynomial(cfg, max_points)
    cert = fujiwara_certificate(p, bound)
    threshold = 2 * bound
    spots = [(dval, I(dval) > 0) for dval in
             (int(threshold) + 1, 2 * threshold, 10 * threshold, 100 * threshold)]
    return ThresholdReport(I, p, bound, cert, spots)
