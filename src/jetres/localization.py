"""Fixed-point localization sums.

The integral of an equivariant class over a space with finitely many torus
fixed points is the sum, over the fixed points, of the class's value divided
by the equivariant Euler class of the tangent space.  The denominators cancel
whenever the input is a genuine integral; :func:`abbv_sum` performs the exact
common-denominator sum and reduces it, so such inputs come back with
denominator 1.

:func:`fibre_integral_fixed_points` applies this to the jet-tower fibre:
weights are specialized to distinct rationals, and every variable other
than z_1..z_k (h, d) rides along as an opaque constant.  The sum runs on
integers: P is split once into groups of terms sharing their non-z
monomial and their total z-degree g, each group's coefficients are cleared
to integers, and the weights are scaled by the lcm D of the lambdas'
denominators.  At each of the n^k fixed points a group then evaluates to an
integer s and the Euler class to an integer E, and the group gains the
exact rational s * D^(k(n-1)) / (den * D^g * E); nothing symbolic is
built per point.  The six-point Grassmannian demo keeps its weights
symbolic, where the full cancellation is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from typing import Sequence

from .exactalg import JetresError, MultiPoly, Q, QLike, Terms, VarContext, _cleared
from .tower import DEFAULT_POINT_CAP, Weight, enumerate_fixed_points, tangent_weights

__all__ = [
    "DegenerateWeightsError",
    "LocalizationDatum",
    "SymbolicFraction",
    "abbv_sum",
    "grassmannian_context",
    "grassmannian_fixed_point_data",
    "fibre_integral_fixed_points",
]


class DegenerateWeightsError(JetresError):
    """Weight values collide, making an Euler denominator vanish."""

    code = "degenerate"


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
    # every weight is an integer combination of the lambdas, so D times it is
    # an integer: D*(lambda_1..lambda_n) are the weights the loop works with
    D = lcm(*(v.denominator for v in lams))
    scaled = [v.numerator * (D // v.denominator) for v in lams]
    zidx = [P.ctx.index(f"z{i}") for i in range(1, k + 1)]
    # P = sum over (rest, g) of rest * (sum of c * z^e with |e| = g); each
    # group's coefficients are cleared to integers once, c = c' / den
    groups: dict[tuple[tuple[int, ...], int], Terms] = {}
    for e, c in P.terms.items():
        z = tuple(e[i] for i in zidx)
        rest = list(e)
        for i in zidx:
            rest[i] = 0
        groups.setdefault((tuple(rest), sum(z)), {})[z] = c
    cleared = {key: _cleared(terms) for key, terms in groups.items()}
    totals = dict.fromkeys((rest for rest, _ in groups), Q(0))
    tops = [P.degree_in(f"z{i}") for i in range(1, k + 1)]
    D_tangent = D ** (k * (n - 1))

    def scaled_value(w: Weight) -> int:
        return sum(c * v for c, v in zip(w.coeffs, scaled))

    for fp in enumerate_fixed_points(n, k, point_cap):
        # value/euler = (s / (den * D^g)) / (E / D^(k(n-1))) for each group
        E = prod(scaled_value(t) for t in tangent_weights(fp))
        if E == 0:
            raise DegenerateWeightsError(
                "weight collision at the chosen values; pick different lambdas"
            )
        powers = []
        for w, top in zip(fp.weights, tops):
            a, row = scaled_value(w), [1]
            for _ in range(top):
                row.append(row[-1] * a)
            powers.append(row)
        for (rest, g), (den, terms) in cleared.items():
            s = 0
            for z, c in terms:
                for row, p in zip(powers, z):
                    c *= row[p]
                s += c
            totals[rest] += Q(s * D_tangent, den * D**g * E)
    return MultiPoly(P.ctx, totals)
