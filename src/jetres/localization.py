"""Fixed-point localization sums.

The integral of an equivariant class over a space with finitely many torus
fixed points is the sum, over the fixed points, of the class's value divided
by the equivariant Euler class of the tangent space.

:func:`fibre_integral_fixed_points` applies this to the jet-tower fibre:
weights are specialized to distinct rationals, and every variable other
than z_1..z_k (h, d) rides along as an opaque constant.  The sum runs on
integers: P is split once into groups of terms sharing their non-z
monomial and their total z-degree g, on P's integer numerators over its
one denominator den, and the weights are scaled by the lcm D of the lambdas'
denominators.  A point's w_j depends only on its first j levels, so the sum
walks the tree of the weight-set recursion of `jetres.tower` directly on
integer weight values, never building a symbolic weight: each level-j node
substitutes its value of z_j into the integer polynomial its parent
evaluated partially, in z_j..z_k, and a leaf holds one integer s per group.
Each level multiplies in its Euler factor, the product of its n - 1 tangent
values, and the numerators accumulate over one denominator per node.  At
the root a group's numerator N over the common denominator E gives the
exact rational N * D^(k(n-1)) / (den * D^g * E), one `Fraction` per group.

Over the whole tower above the degree-d hypersurface X the fixed-point sums
are symmetric polynomials in the Chern roots of T_X.  `_interpolate_over_X`
interpolates them from seeded integer draws and evaluates them at the Chern
classes of X; two evaluators feed it, and both sum each draw down the same
walk, `_tower_sum`.
:func:`integral_over_tower_fixed_points` carries c_1, one linear form in
the z_j, down the tree and sums its powers; it is the primary route of the
intersection polynomial in :mod:`jetres.ggl`.
:func:`payload_integral_fixed_points` takes any payload P(z, h, d) through
the fibre sum, splitting P once for all draws; it checks the residue route
of the `integral` and `euler-char` commands.
"""

from __future__ import annotations

from contextlib import suppress
from math import gcd, lcm, prod
from random import Random
from typing import Callable, Sequence, TypeVar

from .exactalg import (
    DPoly,
    JetresError,
    MultiPoly,
    Q,
    QLike,
    Terms,
    binomial,
)
from .tower import DEFAULT_POINT_CAP, _check_cap, _step

_S = TypeVar("_S")  # the state a fixed-point walk carries down a chain

__all__ = [
    "DegenerateWeightsError",
    "fibre_integral_fixed_points",
    "integral_over_tower_fixed_points",
    "payload_integral_fixed_points",
]


class DegenerateWeightsError(JetresError):
    """Weight values collide, making an Euler denominator vanish."""

    code = "degenerate"


def _tower_sum(
    k: int,
    lams: list[int],
    root: _S,
    descend: Callable[[_S, int, int], _S],
    leaf: Callable[[_S], list[int]],
) -> tuple[int, list[int]]:
    """(den, nums) with nums[i] / den the sum over the fixed points of
    leaf(state)[i] / E, E the product of the point's tangent values.

    The walk runs the weight-set recursion of `jetres.tower` on the integer
    values of the weights: the root's set is `lams`, a node's children are
    the entries of its set, taken by position, and `tower._step` gives a
    child's n - 1 tangent values and the set above it.  Entries are never
    merged or compared, so two weights of equal value stay two children, and
    either one's Euler factor holds their zero difference.  The state
    starts at `root` and each child passes descend(state, j, its value) on
    to its subtree, so work that depends on a chain prefix is done once per
    prefix.  The numerators of a node share one denominator, the lcm of its
    children's denominators each times the Euler factor of the child's level
    (the product of its n - 1 tangent values); it stays near the lcm of the
    Euler classes below the node.  One flat common multiple of all of them
    (45,057 bits at n = 5) made the c_1 sum 11x slower.  A level factor of 0
    raises DegenerateWeightsError before its subtree is summed.
    """

    def rec(state: _S, current: list[int], depth: int) -> tuple[int, list[int]]:
        if depth == k:
            return 1, leaf(state)
        den, nums = 1, []
        for i, w in enumerate(current):
            tangent, above = _step(current, i)
            factor = prod(tangent)
            if not factor:
                raise DegenerateWeightsError(
                    "weight collision at the chosen values; pick different lambdas"
                )
            d, sub = rec(descend(state, depth, w), above, depth + 1)
            d *= factor
            if i == 0:
                den, nums = d, sub
                continue
            g = gcd(den, d)
            up, scale = d // g, den // g
            nums = [x * up + y * scale for x, y in zip(nums, sub)]
            den *= up
        return den, nums

    return rec(root, lams, 0)


def _fibre_sum(
    n: int, k: int, P: MultiPoly, point_cap: int
) -> Callable[[Sequence[QLike]], MultiPoly]:
    """The map from distinct weight values (n rationals) to the fibre
    integral of P; the fixed points and the split of P are built once.

    P = sum over (rest, g) of rest * (sum of c * z^e with |e| = g) / den,
    for c P's integer numerators and den its denominator.  A level-j node's
    state is the integer vector of its partial evaluation: one entry per
    (group, exponents of z_(j+1)..z_k), the key set of each level fixed in
    advance, so a node only substitutes its value of z_j.
    The weights are scaled by D, the lcm of the lambdas' denominators, and
    a group with numerator N over the walk's denominator E gains
    N * D^(k(n-1)) / (den * D^g * E).
    """
    _check_cap(n, k, point_cap)
    zidx = [P.ctx.index(f"z{i}") for i in range(1, k + 1)]
    groups: dict[tuple[tuple[int, ...], int], Terms] = {}
    for e, c in P.num.items():
        z = tuple(e[i] for i in zidx)
        rest = list(e)
        for i in zidx:
            rest[i] = 0
        groups.setdefault((tuple(rest), sum(z)), {})[z] = c
    keys = [(gi, z) for gi, terms in enumerate(groups.values()) for z in terms]
    root = [c for terms in groups.values() for c in terms.values()]
    # per level: the size of the next key set, the top power of z_j and, per
    # key, its place in the next key set and its exponent of z_j
    plans = []
    for _ in range(k):
        index: dict[tuple[int, tuple[int, ...]], int] = {}
        rows = [(index.setdefault((gi, z[1:]), len(index)), z[0]) for gi, z in keys]
        plans.append((len(index), max((p for _, p in rows), default=0), rows))
        keys = list(index)

    def descend(state: list[int], depth: int, a: int) -> list[int]:
        size, top, rows = plans[depth]
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * a)
        out = [0] * size
        for (t, p), c in zip(rows, state):
            out[t] += c * powers[p]
        return out

    def evaluate(lams: Sequence[QLike]) -> MultiPoly:
        # every weight is an integer combination of the lambdas, so D times
        # it is an integer
        D = lcm(*(v.denominator for v in lams))
        scaled = [v.numerator * (D // v.denominator) for v in lams]
        den, nums = _tower_sum(k, scaled, root, descend, lambda s: s)
        totals = dict.fromkeys((rest for rest, _ in groups), Q(0))
        D_tangent = D ** (k * (n - 1))
        for (rest, g), s in zip(groups, nums):
            totals[rest] += Q(s * D_tangent, den * P.den * D**g)
        return MultiPoly(P.ctx, totals)

    return evaluate


def fibre_integral_fixed_points(
    n: int,
    k: int,
    P: MultiPoly,
    lambdas: Sequence[QLike],
    point_cap: int = DEFAULT_POINT_CAP,
) -> MultiPoly:
    """Fibre integral of P(z_1..z_k, h) over the k-tower by fixed points.

    The weights are the numeric values `lambdas` (pairwise distinct); h stays
    symbolic.  For homogeneous P of degree k(n-1) the result is independent
    of the chosen weight values; lower degrees integrate to zero and higher
    degrees are weight-dependent (callers who care should check
    `degree k(n-1)` themselves -- the sum is returned either way).
    """
    lams = [Q(v) for v in lambdas]
    if len(lams) != n:
        raise ValueError("need n weight values")
    if len(set(lams)) != n:
        raise DegenerateWeightsError("repeated weight values")
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return _fibre_sum(n, k, P, point_cap)(lams)


# The Chern roots lambda of T_X are drawn as seeded distinct integers from
# +-10^6: draws from +-50 made the interpolation system singular 125 times in
# 133 at n = 5.
_DRAW_SEED = 0
_DRAW_RANGE = 10**6


def _partitions(m: int) -> list[tuple[int, ...]]:
    """The partitions of m, parts in decreasing order."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, top: int, parts: tuple[int, ...]) -> None:
        if not rest:
            out.append(parts)
        for part in range(min(rest, top), 0, -1):
            rec(rest - part, part, parts + (part,))

    rec(m, m, ())
    return out


def _elementary(lams: Sequence[int]) -> list[int]:
    """e_0, ..., e_n of the values lams."""
    e = [1]
    for v in lams:
        e = [x + v * y for x, y in zip(e + [0], [0] + e)]
    return e


def _solve(matrix: list[list[int]], rhs: list[Q]) -> list[Q] | None:
    """The x with matrix x = rhs, or None if the square matrix is singular."""
    m = len(matrix)
    rows = [[Q(v) for v in row] + [r] for row, r in zip(matrix, rhs)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][m] / rows[i][i] for i in range(m)]


def _interpolate_over_X(
    n: int,
    blocks: Sequence[tuple[int, DPoly]],
    evaluate: Callable[[list[int]], list[Q]],
) -> DPoly:
    """d times the sum over the blocks (b, q) of q(d) [h^n] h^b T(c(T_X)),
    the integral over the degree-d hypersurface X of sum q(d) h^b T(lambda).

    Each T is a symmetric polynomial of degree n - b in the Chern roots
    lambda_1..lambda_n of T_X, known only by its values: evaluate(lams)
    returns those of every block at the integer point lams, and a point
    where it raises DegenerateWeightsError (a tangent weight vanishes there)
    is drawn again.  T is solved for in the basis e_mu (mu a partition of
    n - b) from p(n - b) seeded integer draws, and every further draw of the
    p(n) + 1 must agree (JetresError otherwise).  Then e_i becomes the Chern class
    c_i(T_X) = [h^i] (1+h)^(n+2) / (1+dh), and the coefficient of h^n times
    d is the integral over X.
    """
    rng = Random(_DRAW_SEED)
    draws: list[list[int]] = []  # e_0..e_n of each draw
    sums: list[list[Q]] = []  # the blocks' values at each draw
    need = len(_partitions(n)) + 1
    while len(draws) < need:
        lams = rng.sample(range(-_DRAW_RANGE, _DRAW_RANGE + 1), n)
        with suppress(DegenerateWeightsError):
            sums.append(evaluate(lams))
            draws.append(_elementary(lams))

    # c_i(T_X) / h^i as a polynomial in d
    chern = [DPoly([binomial(n + 2, i - j) * (-1) ** j for j in range(i + 1)])
             for i in range(n + 1)]
    total = DPoly([])
    for i, (b, q) in enumerate(blocks):
        basis = _partitions(n - b)
        matrix = [[prod(e[part] for part in mu) for mu in basis] for e in draws]
        t_values = [s[i] for s in sums]
        m = len(basis)
        coeffs = _solve(matrix[:m], t_values[:m])
        if coeffs is None:
            raise JetresError(f"the drawn weights leave the interpolation of h^{b} singular")
        if any(sum(c * x for c, x in zip(coeffs, row)) != v
               for row, v in zip(matrix[m:], t_values[m:])):
            raise JetresError(
                f"the fixed-point sums of h^{b} are not one symmetric polynomial of degree "
                f"{n - b} at the drawn weights"
            )
        t_b = DPoly([])
        for c, mu in zip(coeffs, basis):
            t_b = t_b + prod((chern[part] for part in mu), start=DPoly([c]))
        total = total + q * t_b
    return DPoly([0, 1]) * total


def integral_over_tower_fixed_points(
    n: int,
    k: int,
    a: Sequence[int],
    blocks: Sequence[DPoly],
    point_cap: int = DEFAULT_POINT_CAP,
) -> DPoly:
    """Integral over the k-tower above the degree-d hypersurface X of the
    degree-matched class sum_b blocks[b](d) h^b c_1^(dim-b), b = 0..n, where
    c_1 = a_1 z_1 + ... + a_k z_k and dim = n + k(n-1); exact in d.

    The torus acts on T_X with weights lambda_1..lambda_n, its Chern roots.
    At each fixed point z_j takes the value -w_j(lambda) (the honest classes,
    reflected by z -> -z) and the Euler class is
    E = prod of the tangent weights at lambda.  So the fibre integral of
    h^b c_1^(dim-b) is h^b T_b with T_b = sum over the points of
    c_1^(dim-b) / E, a symmetric polynomial of degree n - b in lambda, which
    `_interpolate_over_X` takes over X.  The fixed-point count is the only
    cap.  Each draw's n + 1 sums run on integers down the shared walk
    `_tower_sum`, whose state is c_1 at the chain prefix.
    """
    if len(a) != k:
        raise ValueError("need k weights")
    if len(blocks) != n + 1:
        raise ValueError("need one block for each power h^0..h^n")
    dim = n + k * (n - 1)
    _check_cap(n, k, point_cap)

    def descend(x: int, depth: int, w: int) -> int:
        return x - a[depth] * w

    def leaf(x: int) -> list[int]:
        nums, term = [0] * (n + 1), x ** (dim - n)
        for b in range(n, -1, -1):
            nums[b], term = term, term * x
        return nums

    def evaluate(lams: list[int]) -> list[Q]:
        den, nums = _tower_sum(k, lams, 0, descend, leaf)
        return [Q(s, den) for s in nums]

    return _interpolate_over_X(n, list(enumerate(blocks)), evaluate)


def payload_integral_fixed_points(
    n: int, k: int, P: MultiPoly, point_cap: int = DEFAULT_POINT_CAP
) -> DPoly:
    """Integral of P(z_1..z_k, h, d) over the k-tower above the degree-d
    hypersurface X, P in the context of `residue.tower_context(k)`; exact
    in d, and equal to `residue.integral_over_tower(n, k, P)`.

    Only the terms z^e h^b d^c with b <= n and |e| + b = n + k(n-1) reach
    the top degree; every other term integrates to zero.  The kept part is
    reflected, z -> -z, so that the fixed-point sums integrate the honest
    classes, and the fibre sum of `fibre_integral_fixed_points`, whose split
    of P is built once per call, sums it at each draw.  Its h^b d^c
    coefficient is a symmetric polynomial of degree n - b in lambda, which
    `_interpolate_over_X` takes over X.  At n = 1 the walk reaches the one
    fixed point, where every z_j is -lambda_1 and every Euler factor is 1.
    """
    ctx = P.ctx
    zidx = [ctx.index(f"z{j}") for j in range(1, k + 1)]
    hi, di = ctx.index("h"), ctx.index("d")
    dim = n + k * (n - 1)
    kept: Terms = {}
    blocks: dict[tuple[int, ...], tuple[int, DPoly]] = {}
    for e, c in P.num.items():
        g = sum(e[i] for i in zidx)
        if e[hi] <= n and g + e[hi] == dim:
            kept[e] = (-1) ** g * c
            rest = tuple(0 if i in zidx else x for i, x in enumerate(e))
            blocks[rest] = (e[hi], DPoly([0] * e[di] + [1]))
    fibre = _fibre_sum(n, k, MultiPoly._raw(ctx, kept, P.den), point_cap)

    def evaluate(lams: list[int]) -> list[Q]:
        value = fibre(lams)
        return [Q(value.num.get(rest, 0), value.den) for rest in blocks]

    return _interpolate_over_X(n, list(blocks.values()), evaluate)
