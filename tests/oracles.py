"""Test-only oracles: the six-point Grassmannian demo of localization.

The integral of c_1(tau)^2 c_2(tau) over Grass(2,4) is 1.  Its six fixed
points keep their weights symbolic here, where the full cancellation of a
common-denominator sum is cheap (`abbv_sum`).  `grassmannian_omega` is the
two-variable residue form whose iterated residue is twice that integral; it
pins the orientation convention of the residue engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from jetres.exactalg import MultiPoly, Q, QLike, VarContext
from jetres.localization import DegenerateWeightsError
from jetres.residue import ResidueForm


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
