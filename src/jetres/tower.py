"""Torus fixed-point data of the jet-tower fibre.

The fibre of the k-level tower over a point is a k-stage tower of P^(n-1)
bundles.  A torus fixed point is a chain (w_1, ..., w_k) of weights, where
w_1 is one of the basis weights L_1..L_n and each later w_i is drawn from the
weight set of the previous level.  Weight sets follow two equivalent rules:

  recursive:  S(w_1..w_{i-1}) = { w_{i-1} } u { w - w_{i-1} : w in S(w_1..w_{i-2}) },
              nonzero elements only;
  closed:     { L_j - w_[1..i],  w_1 - w_[2..i], ..., w_{i-1} - w_i,  w_i }
              minus its single zero element, minus { -(w_t + ... + w_i) : 2<=t<=i }.

Both always have exactly n elements.  The package walks the recursive rule
through one positional step, `_step`, in two places: here, on symbolic
weights, as the sorted enumeration of the chains; and in
`jetres.localization`, on the integer values of the weights at chosen
lambdas, as the walk that sums the fixed points.  The closed rule lives with
the test oracles, which check the two equal exhaustively.  Weights are
integer vectors in the L-basis and are compared exactly, so "nonzero" and
set membership are unambiguous.

Note the count: each weight set carries n elements even though the relative
tangent bundle of a level has rank n - 1.  The sets list the weights of the
rank-n bundle being projectivized at the next level; the fibres are P^(n-1),
and the Euler class at a chain discards the chosen weight itself, leaving
k(n-1) tangent factors.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, TypeVar

from .exactalg import Q, QLike, ResourceLimitError

__all__ = [
    "Weight",
    "FixedPoint",
    "basis_weights",
    "enumerate_fixed_points",
    "euler_value",
    "weight_value",
    "DEFAULT_POINT_CAP",
]

DEFAULT_POINT_CAP = 10**6


class Weight(NamedTuple):
    """A weight sum(c_i * L_i) stored as the integer vector (c_1, ..., c_n)."""

    coeffs: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coeffs))


def basis_weights(n: int) -> list[Weight]:
    return [Weight(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]


_W = TypeVar("_W", Weight, int)  # a symbolic weight or its integer value


def _step(current: Sequence[_W], i: int) -> tuple[list[_W], list[_W]]:
    """One level at entry i of the weight set `current`: its tangent
    weights w - current[i] over the other n - 1 entries, and the weight set
    above it, current[i] followed by those.  Entries are taken by position
    and never compared."""
    chosen = current[i]
    deltas = [w - chosen for j, w in enumerate(current) if j != i]
    return deltas, [chosen, *deltas]


def _check_cap(n: int, k: int, point_cap: int) -> None:
    if n**k > point_cap:
        raise ResourceLimitError(f"{n}^{k} fixed points exceed cap {point_cap}")


class FixedPoint(NamedTuple):
    """A fixed point of the tower fibre: a chain (w_1, ..., w_k) of weights
    and its k(n-1) tangent weights w - w_j over all levels j."""

    weights: tuple[Weight, ...]
    tangent: tuple[Weight, ...]


def enumerate_fixed_points(n: int, k: int, point_cap: int = DEFAULT_POINT_CAP) -> list[FixedPoint]:
    """All n^k weight chains, in deterministic (sorted-set DFS) order.

    One DFS builds each chain with its tangent weights, walking every
    weight set once.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    _check_cap(n, k, point_cap)
    out: list[FixedPoint] = []

    def rec(chain: tuple[Weight, ...], current: list[Weight], tangent: tuple[Weight, ...]) -> None:
        for i, wj in enumerate(current):
            deltas, above = _step(current, i)
            if len(chain) == k - 1:
                out.append(FixedPoint(chain + (wj,), tangent + tuple(deltas)))
            else:
                rec(chain + (wj,), sorted(above), tangent + tuple(deltas))

    rec((), sorted(basis_weights(n)), ())
    return out


def weight_value(w: Weight, lams: Sequence[QLike]) -> Q:
    return sum((Q(c) * Q(v) for c, v in zip(w.coeffs, lams)), Q(0))


def euler_value(fp: FixedPoint, lams: Sequence[QLike]) -> Q:
    """Euler class at numeric lambda values (exact rational)."""
    out = Q(1)
    for w in fp.tangent:
        out *= weight_value(w, lams)
    return out
