"""Exact arithmetic substrate.

Everything downstream is built on three value types:

  * ``Q``               -- arbitrary-precision rationals (``fractions.Fraction``),
                           always normalized, denominator > 0.
  * :class:`MultiPoly`  -- immutable sparse multivariate polynomials over ``Q``,
                           keyed by exponent tuples inside an explicit
                           :class:`VarContext`.  A class on an n-dimensional
                           hypersurface is one in the context ``HD_CTX`` of
                           the hyperplane class h and the degree variable d.
  * :class:`DPoly`      -- univariate polynomials in the degree variable d.

All values are immutable after construction and every operation is a pure
function, so values can be shared freely between threads.  Canonical form is
"no zero terms"; serialization order is graded lexicographic on the context's
fixed variable order, so equal values print identically.

Every sum of sparse products runs through one kernel, on integer
coefficients (each operand cleared of its denominators once) and on packed
exponent keys: inside ``_sum_products`` an exponent vector is one integer
with a fixed-width signed digit per variable, so adding two exponent vectors
is one integer addition.  The invariant: no digit of a key ever leaves its
width.  ``_sum_products`` enforces it for each call by choosing the digit
width from the operands, with room for every exponent of magnitude up to
M_a + M_b, where M_a is the largest |exponent| among the left operands and
M_b among the right ones.  A product's exponents stay within that bound, so
two distinct exponent vectors never share a key and every key reads back
exactly.  Keys never leave ``_sum_products``: its callers pass and receive
exponent tuples.

Truncated series are grade buckets multiplied through the same kernel; the
one series inverse, ``_graded_inverse``, solves a*b = 1 grade by grade.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import factorial, lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "Q",
    "QLike",
    "JetresError",
    "ContextError",
    "NonUnitError",
    "ResourceLimitError",
    "VarContext",
    "MultiPoly",
    "DPoly",
    "HD_CTX",
    "binomial",
    "multinomial",
]

QLike = Union[Q, int]


class JetresError(Exception):
    """Base class for all package errors."""

    code = "internal"


class ContextError(JetresError):
    """Operands live in different or unsuitable variable contexts."""

    code = "context"


class NonUnitError(JetresError):
    """Series inversion applied to a non-unit (constant term != 1)."""

    code = "non-unit"


class ResourceLimitError(JetresError):
    """A configured resource cap (points, terms, budget) was exceeded."""

    code = "resource"


def binomial(n: int, k: int) -> int:
    """C(n, k) for any integer n (generalized) and k >= 0; always an integer."""
    if k < 0:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= n - i
        den *= i + 1
    return num // den


def multinomial(total: int, parts: Sequence[int]) -> int:
    """Coefficient of prod x_i^{parts_i} in (x_1+...+x_s)^total; 0 on mismatch."""
    if any(p < 0 for p in parts) or sum(parts) != total:
        return 0
    out = 1
    rem = total
    for p in parts:
        out *= binomial(rem, p)
        rem -= p
    return out


@dataclass(frozen=True)
class VarContext:
    """An ordered tuple of variable names shared by a family of polynomials."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ContextError(f"duplicate variable names in context {self.names}")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"unknown variable {name!r} in context {self.names}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)


def _coerce_q(value: QLike) -> Q:
    if isinstance(value, Q):
        return value
    if isinstance(value, int):
        return Q(value)
    raise TypeError(f"expected rational, got {type(value).__name__}")


Terms = dict[tuple[int, ...], Q]
# Terms scaled to integers by a common denominator that the caller keeps.
IntTerms = list[tuple[tuple[int, ...], int]]


def _denominator(parts: Iterable[Terms]) -> int:
    """The lcm of the coefficients' denominators over all the parts."""
    return lcm(*(c.denominator for terms in parts for c in terms.values()))


def _scaled(terms: Terms, den: int) -> IntTerms:
    """[(e, den*c)] for a den that every coefficient's denominator divides."""
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


def _cleared(terms: Terms) -> tuple[int, IntTerms]:
    """(D, [(e, D*c)]) with D the lcm of the coefficients' denominators."""
    den = _denominator((terms,))
    return den, _scaled(terms, den)


# Signed array typecodes by digit width in bytes, narrowest first.
_DIGIT_FORMATS = {array(t).itemsize: t for t in "bhiq"}

# A packed operand: (key, coefficient) terms and, when the product is
# truncated, the terms' exponents at the truncation slot in ascending order
# (the terms sorted the same way); else None.
Packed = tuple[list[tuple[int, int]], list[int] | None]


def _mac(acc: dict[int, int], a: Packed, b: Packed, trunc_max: int) -> None:
    """acc += a * b on packed operands, dropping truncation exponents above
    trunc_max: the one multiply-accumulate kernel.  Under truncation each
    term of the shorter operand meets the prefix of the longer one whose
    exponents fit beside its own."""
    (ta, xa), (tb, xb) = (a, b) if len(a[0]) >= len(b[0]) else (b, a)
    get = acc.get
    if xa is None:
        for kb, cb in tb:
            for ka, ca in ta:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        return
    for (kb, cb), x in zip(tb, xb):
        cut = bisect_right(xa, trunc_max - x)
        if not cut:
            break  # xb ascends, so no later term has room either
        for ka, ca in ta[:cut]:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _sum_products(
    groups: Sequence[Sequence[tuple[IntTerms, IntTerms]]],
    trunc_idx: int = -1,
    trunc_max: int = 0,
    cap: tuple[int, str] | None = None,
) -> Iterator[dict[tuple[int, ...], int]]:
    """For each group of operand pairs (a, b), the nonzero sums of the
    products a * b over the group, keyed by exponent tuples (which may be
    negative); exponents above trunc_max at trunc_idx are dropped if
    trunc_idx is set.

    The one entry point to _mac, and the only code that builds or reads a
    packed key.  An exponent vector e of width w is the integer
    sum_i e_i 256^(s i): one signed digit of s bytes per variable.  The width
    rule: with M_a the largest |e_i| over the left operands of the call and
    M_b over the right ones, s is the least of 1, 2, 4, 8 with
    2 (M_a + M_b) < 256^s.  Every digit of a left key plus a right key, the
    key of the exponent sum, then lies in [-(M_a + M_b), M_a + M_b], inside
    the digit's range [-256^s / 2, 256^s / 2): no digit spills into the next,
    so distinct exponent vectors have distinct keys and every sum reads back
    exactly.  Exponents too large for 8-byte digits raise ResourceLimitError.

    Each distinct operand is packed once, each group is summed
    into one accumulator and read back as it is yielded.  With cap =
    (max_terms, stage), a group whose nonzero sums exceed max_terms after
    any of its pairs raises ResourceLimitError naming the stage.
    """
    left: dict[int, IntTerms] = {}
    right: dict[int, IntTerms] = {}
    for pairs in groups:
        for a, b in pairs:
            left[id(a)] = a
            right[id(b)] = b
    ea = [e for t in left.values() for e, _ in t]
    eb = [e for t in right.values() for e, _ in t]
    width = len(ea[0]) if ea and eb else 0
    # the width rule: M_a + M_b
    reach = (max(max(map(max, ea)), -min(map(min, ea)))
             + max(max(map(max, eb)), -min(map(min, eb)))) if width else 0
    size = next((s for s in _DIGIT_FORMATS if 2 * reach < 256**s), None)
    if size is None:
        raise ResourceLimitError(f"exponents of {reach} exceed the packed kernel's range")
    place = [256 ** (size * i) for i in range(width)]
    if trunc_idx < 0:
        packed = {i: ([(sum(map(mul, e, place)), c) for e, c in t], None)
                  for i, t in (left | right).items()}
    else:
        packed = {}
        for i, t in (left | right).items():
            t = sorted(t, key=lambda term: term[0][trunc_idx])
            packed[i] = ([(sum(map(mul, e, place)), c) for e, c in t],
                         [e[trunc_idx] for e, _ in t])
    # reading a key back: adding half of each digit's range makes every digit
    # its exponent plus that half, unsigned; the xor then leaves each
    # exponent in two's complement, which the signed typecode reads
    half = sum(place) << (8 * size - 1)
    fmt, nbytes, order = _DIGIT_FORMATS[size], size * width, sys.byteorder
    for pairs in groups:
        acc: dict[int, int] = {}
        for a, b in pairs:
            _mac(acc, packed[id(a)], packed[id(b)], trunc_max)
            if cap is not None and len(acc) > cap[0] and sum(map(bool, acc.values())) > cap[0]:
                raise ResourceLimitError(f"{cap[1]} exceeded {cap[0]} terms")
        yield {tuple(memoryview(((k + half) ^ half).to_bytes(nbytes, order)).cast(fmt)): c
               for k, c in acc.items() if c}


def _divided(sums: Iterable[tuple[tuple[int, ...], int]], den: int) -> Terms:
    """Nonzero integer sums over den as canonical terms."""
    if den == 1:
        return {e: Q(c) for e, c in sums}
    return {e: Q(c, den) for e, c in sums}


def _mul_terms(
    ta: Terms,
    tb: Terms,
    trunc_idx: int = -1,
    trunc_max: int = 0,
) -> Terms:
    """Raw sparse product; drops exponents above trunc_max at trunc_idx if set.

    The one-pair case of _sum_products: each operand is scaled to integers
    by the lcm of its denominators, the products are summed as ints, and
    each sum is divided by the product of the two denominators once, at the
    end.
    """
    if not ta or not tb:
        return {}
    da, ia = _cleared(ta)
    db, ib = _cleared(tb)
    (sums,) = _sum_products([[(ia, ib)]], trunc_idx, trunc_max)
    return _divided(sums.items(), da * db)


def _add_into(acc: Terms, terms: Terms, scale: Q | None = None) -> None:
    get = acc.get
    for e, c in terms.items():
        if scale is not None:
            c = c * scale
        prev = get(e)
        if prev is None:
            if c:
                acc[e] = c
        else:
            prev = prev + c
            if prev:
                acc[e] = prev
            else:
                del acc[e]


# ---------------------------------------------------------------------------
# Grade-bucketed truncated series
# ---------------------------------------------------------------------------

Graded = dict[int, Terms]  # grade -> terms of that grade


def _graded(terms: Terms, weights: Sequence[int], cap: int) -> Graded:
    """Bucket terms by the weighted degree sum(w_i e_i), dropping grades above cap."""
    out: Graded = {}
    for e, c in terms.items():
        g = sum(w * x for w, x in zip(weights, e))
        if g <= cap:
            out.setdefault(g, {})[e] = c
    return out


def _flat(series: Graded) -> Terms:
    return {e: c for part in series.values() for e, c in part.items()}


def _graded_add(acc: Graded, other: Graded, scale: Q | None = None) -> None:
    for g, terms in other.items():
        _add_into(acc.setdefault(g, {}), terms, scale)


def _graded_mul(
    a: Graded,
    b: Graded,
    cap: int,
    trunc_idx: int = -1,
    trunc_max: int = 0,
) -> Graded:
    """Product of two graded series modulo grade > cap (and the truncation).

    Only bucket pairs with g1 + g2 <= cap are multiplied.  Dropping grades
    above cap is exact for every later product as long as no grade is
    negative, which all callers guarantee by their choice of weights.

    Each operand is scaled to integers once, by the lcm of the denominators
    over all of its buckets, and packed once.  The output grades are made one
    at a time: every bucket pair with g1 + g2 = g is one group of
    _sum_products, whose sums are divided by the two denominators' product
    once.  Zero sums and empty grades are dropped.
    """
    da = _denominator(a.values())
    db = _denominator(b.values())
    ia = {g: _scaled(t, da) for g, t in a.items()}
    ib = {g: _scaled(t, db) for g, t in b.items()}
    grades = sorted({g1 + g2 for g1 in ia for g2 in ib if g1 + g2 <= cap})
    groups = [[(t1, ib[g - g1]) for g1, t1 in ia.items() if g - g1 in ib] for g in grades]
    out: Graded = {}
    for g, sums in zip(grades, _sum_products(groups, trunc_idx, trunc_max)):
        if sums:
            out[g] = _divided(sums.items(), da * db)
    return out


def _graded_series(
    x: Graded,
    coeffs: Sequence[QLike],
    cap: int,
    width: int,
    trunc_idx: int = -1,
    trunc_max: int = 0,
) -> Graded:
    """sum_m coeffs[m] x^m modulo grade > cap, building the powers step by step.

    The sum stops at the last coefficient or at the first power that the grade
    cap and the truncation have emptied.
    """
    unit = (0,) * width
    out: Graded = {0: {unit: _coerce_q(coeffs[0])}} if coeffs[0] else {}
    power: Graded = {0: {unit: Q(1)}}
    for c in coeffs[1:]:
        power = _graded_mul(power, x, cap, trunc_idx, trunc_max)
        if not power:
            break
        if c:
            _graded_add(out, power, _coerce_q(c))
    return {g: t for g, t in out.items() if t}


def _graded_exp(
    x: Graded, cap: int, width: int, trunc_idx: int = -1, trunc_max: int = 0
) -> Graded:
    """exp(x) modulo grade > cap; x must have no grade-0 part."""
    if x.get(0):
        raise ValueError("exponent must have no grade-0 part")
    coeffs = [Q(1, factorial(m)) for m in range(cap + 1)]
    return _graded_series(x, coeffs, cap, width, trunc_idx, trunc_max)


def _graded_inverse(
    a: Graded, cap: int, width: int, trunc_idx: int = -1, trunc_max: int = 0
) -> Graded:
    """The b with a*b == 1 modulo grade > cap; a's grade-0 part must be exactly 1.

    Grade by grade from the recurrence b_0 = 1, b_g = -sum_(g' >= 1) a_g' b_(g - g').
    With D the lcm of a's denominators, D^g b_g is an integer polynomial, so
    each grade is one group of _sum_products over the integer terms D^g' a_g'
    and D^(g - g') b_(g - g'), negated, and divided by D^g once.
    """
    unit = (0,) * width
    if a.get(0) != {unit: 1}:
        raise NonUnitError("series inverse requires grade-0 part exactly 1")
    den = _denominator(a.values())
    ia = {g: _scaled(t, den**g) for g, t in a.items() if 0 < g <= cap}
    ib: dict[int, IntTerms] = {0: [(unit, 1)]}
    out: Graded = {0: {unit: Q(1)}}
    for g in range(1, cap + 1):
        pairs = [(t, ib[g - g1]) for g1, t in ia.items() if g - g1 in ib]
        (sums,) = _sum_products([pairs], trunc_idx, trunc_max)
        if sums:
            ib[g] = [(e, -c) for e, c in sums.items()]
            out[g] = _divided(ib[g], den**g)
    return out


class MultiPoly:
    """Sparse multivariate polynomial over Q in a fixed variable context.

    Terms map exponent tuples (one non-negative integer per context variable)
    to nonzero rational coefficients.  Instances are immutable by convention:
    no method mutates ``terms`` after construction.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: Mapping[tuple[int, ...], QLike] | None = None):
        clean: Terms = {}
        width = len(ctx)
        if terms:
            for e, c in terms.items():
                if len(e) != width:
                    raise ContextError(f"exponent {e} has wrong arity for context {ctx.names}")
                q = _coerce_q(c)
                if q:
                    clean[tuple(e)] = q
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "MultiPoly":
        return cls(ctx)

    @classmethod
    def const(cls, ctx: VarContext, value: QLike) -> "MultiPoly":
        return cls(ctx, {(0,) * len(ctx): _coerce_q(value)})

    @classmethod
    def variable(cls, ctx: VarContext, name: str) -> "MultiPoly":
        e = [0] * len(ctx)
        e[ctx.index(name)] = 1
        return cls(ctx, {tuple(e): Q(1)})

    @classmethod
    def monomial(cls, ctx: VarContext, powers: Mapping[str, int], coeff: QLike = 1) -> "MultiPoly":
        e = [0] * len(ctx)
        for name, p in powers.items():
            if p < 0:
                raise ValueError(f"negative exponent for {name}")
            e[ctx.index(name)] = p
        return cls(ctx, {tuple(e): _coerce_q(coeff)})

    @classmethod
    def _raw(cls, ctx: VarContext, terms: Terms) -> "MultiPoly":
        # Internal: terms must already be canonical (no zeros, right arity).
        obj = object.__new__(cls)
        object.__setattr__(obj, "ctx", ctx)
        object.__setattr__(obj, "terms", terms)
        return obj

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant(self) -> Q:
        return self.terms.get((0,) * len(self.ctx), Q(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        i = self.ctx.index(name)
        return max((e[i] for e in self.terms), default=0)

    def is_homogeneous(self, weights: Mapping[str, int] | None = None) -> bool:
        if not self.terms:
            return True
        if weights is None:
            w = [1] * len(self.ctx)
        else:
            w = [weights.get(name, 0) for name in self.ctx.names]
        degs = {sum(ei * wi for ei, wi in zip(e, w)) for e in self.terms}
        return len(degs) == 1

    def variables_used(self) -> set[str]:
        used: set[str] = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    used.add(self.ctx.names[i])
        return used

    # -- arithmetic --------------------------------------------------------

    def _check_ctx(self, other: "MultiPoly") -> None:
        if self.ctx != other.ctx:
            raise ContextError(f"mismatched contexts {self.ctx.names} vs {other.ctx.names}")

    def __add__(self, other: "MultiPoly | QLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ctx, other)
        self._check_ctx(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms)
        return MultiPoly._raw(self.ctx, acc)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly | QLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other: QLike) -> "MultiPoly":
        return MultiPoly.const(self.ctx, other) - self

    def __mul__(self, other: "MultiPoly | QLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            q = _coerce_q(other)
            if not q:
                return MultiPoly.zero(self.ctx)
            return MultiPoly._raw(self.ctx, {e: c * q for e, c in self.terms.items()})
        self._check_ctx(other)
        return MultiPoly._raw(self.ctx, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "MultiPoly":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a non-negative integer")
        # Repeated squaring on the sparse term dict.
        result = MultiPoly.const(self.ctx, 1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Q)):
            other = MultiPoly.const(self.ctx, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- structural operations ---------------------------------------------

    def coefficient_of(self, powers: Mapping[str, int]) -> "MultiPoly":
        """Coefficient polynomial of the exact monomial given by `powers`.

        Variables not named in `powers` are unconstrained and remain in the
        result; constrained variable slots are zeroed out.
        """
        idx = {self.ctx.index(name): p for name, p in powers.items()}
        out: Terms = {}
        for e, c in self.terms.items():
            if all(e[i] == p for i, p in idx.items()):
                reduced = tuple(0 if i in idx else ei for i, ei in enumerate(e))
                out[reduced] = out.get(reduced, Q(0)) + c
        return MultiPoly(self.ctx, out)

    def substitute(self, assignments: Mapping[str, "MultiPoly | QLike"]) -> "MultiPoly":
        """Substitute polynomials or rationals for variables (exact).

        Terms are grouped by their exponents in the substituted variables;
        each variable's powers are built once by repeated multiplication, and
        each group takes one product per variable it carries.  Everything
        runs on integers: with D the denominator of the polynomial's terms,
        D_v that of a value v and p_v the top power of v, a group holding
        v^p is scaled by D_v^(p_v - p), so the groups' last products are
        one sum over D * prod_v D_v^(p_v), which is divided once.
        """
        subs: dict[int, Terms] = {}
        for name, val in assignments.items():
            if not isinstance(val, MultiPoly):
                val = MultiPoly.const(self.ctx, val)
            self._check_ctx(val)
            subs[self.ctx.index(name)] = val.terms
        den, cleared = _cleared(self.terms)
        buckets: dict[tuple[int, ...], IntTerms] = {}
        for e, c in cleared:
            rest = list(e)
            for i in subs:
                rest[i] = 0
            buckets.setdefault(tuple(e[i] for i in subs), []).append((tuple(rest), c))
        unit: IntTerms = [((0,) * len(self.ctx), 1)]
        powers: list[tuple[int, int, list[IntTerms]]] = []  # (D_v, p_v, [v^0, ..., v^p_v])
        for pos, value in enumerate(subs.values()):
            dv, iv = _cleared(value)
            top = max((key[pos] for key in buckets), default=0)
            pw = [unit, iv][: top + 1]
            for _ in range(top - 1):
                (power,) = _sum_products([[(pw[-1], iv)]])
                pw.append(list(power.items()))
            powers.append((dv, top, pw))
            den *= dv**top
        last: list[tuple[IntTerms, IntTerms]] = []
        for key, piece in buckets.items():
            scale = 1
            for (dv, top, _), p in zip(powers, key):
                scale *= dv ** (top - p)
            if scale != 1:
                piece = [(e, c * scale) for e, c in piece]
            factors = [pw[p] for (_, _, pw), p in zip(powers, key) if p] or [unit]
            for f in factors[:-1]:
                (part,) = _sum_products([[(piece, f)]])
                piece = list(part.items())
            last.append((piece, factors[-1]))
        (sums,) = _sum_products([last])
        return MultiPoly._raw(self.ctx, _divided(sums.items(), den))

    def evaluate(self, values: Mapping[str, QLike]) -> Q:
        missing = self.variables_used() - set(values)
        if missing:
            raise ContextError(f"no values for {sorted(missing)}")
        vals = {self.ctx.index(name): _coerce_q(v) for name, v in values.items()}
        total = Q(0)
        for e, c in self.terms.items():
            term = c
            for i, p in enumerate(e):
                if p:
                    term *= vals[i] ** p
            total += term
        return total

    def truncate(self, name: str, maxdeg: int) -> "MultiPoly":
        """Drop all terms whose exponent in `name` exceeds maxdeg."""
        i = self.ctx.index(name)
        return MultiPoly._raw(self.ctx, {e: c for e, c in self.terms.items() if e[i] <= maxdeg})

    def truncate_total(self, cap: int) -> "MultiPoly":
        return MultiPoly._raw(self.ctx, {e: c for e, c in self.terms.items() if sum(e) <= cap})

    def embed(self, ctx: VarContext) -> "MultiPoly":
        """Re-express in a larger context containing all used variables."""
        pos = [ctx.index(name) for name in self.ctx.names]
        width = len(ctx)
        out: Terms = {}
        for e, c in self.terms.items():
            ne = [0] * width
            for p, ei in zip(pos, e):
                ne[p] = ei
            out[tuple(ne)] = c
        return MultiPoly._raw(ctx, out)

    def restrict(self, ctx: VarContext) -> "MultiPoly":
        """Re-express in a smaller context; fails if other variables occur."""
        extra = self.variables_used() - set(ctx.names)
        if extra:
            raise ContextError(f"cannot restrict: variables {sorted(extra)} present")
        pos = {self.ctx.index(name): i for i, name in enumerate(ctx.names) if name in self.ctx}
        width = len(ctx)
        out: Terms = {}
        for e, c in self.terms.items():
            ne = [0] * width
            for i, ei in enumerate(e):
                if ei:
                    ne[pos[i]] = ei
            key = tuple(ne)
            out[key] = out.get(key, Q(0)) + c
        return MultiPoly(ctx, out)

    # -- series and division -----------------------------------------------

    def series_inverse(self, cap: int) -> "MultiPoly":
        """The unique b with self*b == 1 modulo total degree > cap.

        Requires constant term exactly 1.
        """
        width = len(self.ctx)
        graded = _graded(self.terms, [1] * width, cap)
        return MultiPoly._raw(self.ctx, _flat(_graded_inverse(graded, cap, width)))

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient self/divisor, or None if it does not divide.

        Leading-term elimination in graded-lex order; exact quotients always
        reduce because LT(q*b) = LT(q)*LT(b) in any monomial order.  Every
        term an elimination step adds sits below the term it removes, so the
        remainder's leading terms come off one heap (stale entries skipped).
        """
        self._check_ctx(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return self
        lead_b = max(divisor.terms, key=_gradedlex_key)
        cb = divisor.terms[lead_b]
        rest = [(e, -c / cb) for e, c in divisor.terms.items() if e != lead_b]
        rem = dict(self.terms)
        heap = [_heap_key(e) for e in rem]
        heapify(heap)
        quot: Terms = {}
        while rem:
            lead_r = heappop(heap)[2]
            if lead_r not in rem:
                continue
            qe = tuple(er - eb for er, eb in zip(lead_r, lead_b))
            if any(p < 0 for p in qe):
                return None
            qc = quot[qe] = rem.pop(lead_r)
            for eb, cf in rest:
                e = tuple(map(add, qe, eb))
                prev = rem.get(e)
                if prev is None:
                    rem[e] = qc * cf
                    heappush(heap, _heap_key(e))
                    continue
                c = prev + qc * cf
                if c:
                    rem[e] = c
                else:
                    del rem[e]
        return MultiPoly(self.ctx, {e: c / cb for e, c in quot.items()})

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Q]]:
        return sorted(self.terms.items(), key=lambda item: _gradedlex_key(item[0]), reverse=True)

    def to_text(self) -> str:
        """Canonical text form, parseable by the CLI polynomial grammar."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for e, c in self.sorted_terms():
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for name, p in zip(self.ctx.names, e):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            body = "*".join(factors)
            if chunks and not body.startswith("-"):
                chunks.append("+")
            chunks.append(body)
        text = "".join(chunks).replace("+-", "-")
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"


def _gradedlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


def _heap_key(e: tuple[int, ...]) -> tuple:
    """A min-heap entry that pops the graded-lex largest exponent first."""
    return (-sum(e), tuple(-p for p in e), e)


# ---------------------------------------------------------------------------
# Classes on the hypersurface and polynomials in d
# ---------------------------------------------------------------------------

HD_CTX = VarContext(("h", "d"))


class DPoly:
    """Univariate polynomial in the degree variable d, exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[QLike]):
        cs = [_coerce_q(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DPoly is immutable")

    @classmethod
    def from_multipoly(cls, poly: MultiPoly, var: str = "d") -> "DPoly":
        extra = poly.variables_used() - {var}
        if extra:
            raise ContextError(f"DPoly: foreign variables {sorted(extra)}")
        i = poly.ctx.index(var)
        deg = poly.degree_in(var)
        cs = [Q(0)] * (deg + 1)
        for e, c in poly.terms.items():
            cs[e[i]] += c
        return cls(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __getitem__(self, i: int) -> Q:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Q(0)

    def __call__(self, d: QLike) -> Q:
        x = _coerce_q(d)
        total = Q(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other: "DPoly") -> "DPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return DPoly([c + (b[i] if i < len(b) else Q(0)) for i, c in enumerate(a)])

    def __neg__(self) -> "DPoly":
        return DPoly([-c for c in self.coeffs])

    def __sub__(self, other: "DPoly") -> "DPoly":
        return self + (-other)

    def __mul__(self, other: "DPoly | QLike") -> "DPoly":
        if not isinstance(other, DPoly):
            q = _coerce_q(other)
            return DPoly([c * q for c in self.coeffs])
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DPoly(out)

    __rmul__ = __mul__

    def divide_exact(self, other: "DPoly") -> "DPoly | None":
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        out = [Q(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.coeffs[-1]
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(other.coeffs) - 1] / lead
            out[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        if any(rem):
            return None
        return DPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_text(self, var: str = "d") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for p in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[p]
            if not c:
                continue
            if p == 0:
                parts.append(str(c))
            elif p == 1:
                parts.append(f"{c}*{var}" if c != 1 else var)
            else:
                parts.append(f"{c}*{var}^{p}" if c != 1 else f"{var}^{p}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"DPoly({self.to_text()})"
