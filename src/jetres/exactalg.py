"""Exact arithmetic substrate.

Everything downstream is built on three value types:

  * ``Q``               -- arbitrary-precision rationals (``fractions.Fraction``),
                           always normalized, denominator > 0.
  * :class:`MultiPoly`  -- immutable sparse multivariate polynomials over ``Q``
                           in an explicit :class:`VarContext`: integer
                           numerators by exponent tuple over one denominator.
                           A class on an n-dimensional hypersurface is one in
                           the context ``HD_CTX`` of h and the degree d.
  * :class:`DPoly`      -- univariate polynomials in d, on ``Q`` coefficients.

No operation changes a value after construction and every operation is a
pure function, so values can be shared freely between threads.  Canonical
form: no zero numerator, and the denominator shares no factor with all the
numerators; ``Fraction`` appears only at the edges (constructor input, the
``terms`` view).  Serialization order is graded lexicographic on the
context's fixed variable order, so equal values print identically.

Every sum of sparse products runs through one kernel, ``_mac``, on integer
numerators and packed exponent keys (``_Codec``): an exponent vector is one
integer with a fixed-width signed digit per variable, so adding two exponent
vectors is one integer addition.  The invariant: no digit of a key ever
leaves its width.  The width rule (``_digit_size``) keeps it: operands whose
exponents are bounded by M_a and M_b in magnitude (``_reach``) are multiplied
with digits that hold M_a + M_b.  Packed terms are always sorted by key, so
the kernel is one loop that cuts each operand below the codec's limit.
Every product is one of a truncated series (``Graded``): its terms are
packed once by ``_packed`` (``_repacked`` and ``_aligned`` widen them), stay
packed through every product, sum, series and inverse, and are read back
only by ``_flat``.  A single product (``_mul_terms``) is one of two grade-0
series; a power or a substitution is one dot product with a series of powers.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from fractions import Fraction as Q
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

__all__ = [
    "Q",
    "QLike",
    "JetresError",
    "ContextError",
    "ResourceLimitError",
    "VarContext",
    "MultiPoly",
    "DPoly",
    "Graded",
    "HD_CTX",
    "binomial",
    "multinomial",
]

QLike = Union[Q, int]


class JetresError(Exception):
    """Base class for all package errors; an "internal: ..." one is a broken invariant."""

    code = "internal"


class ContextError(JetresError):
    """Operands live in different or unsuitable variable contexts."""

    code = "context"


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


class VarContext:
    """An ordered tuple of variable names shared by a family of polynomials."""

    __slots__ = ("names", "_index")

    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        if len(self._index) != len(names):
            raise ContextError(f"duplicate variable names in context {names}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarContext(names={self.names!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"unknown variable {name!r} in context {self.names}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index


def _coerce_q(value: QLike) -> Q:
    if isinstance(value, Q):
        return value
    if isinstance(value, int):
        return Q(value)
    raise TypeError(f"expected rational, got {type(value).__name__}")


# Integer numerators by exponent tuple, over a denominator kept beside them.
Terms = dict[tuple[int, ...], int]


def _common(den: int, coeffs: Iterable[int]) -> int:
    """gcd(den, *coeffs): the factor that brings integers over den to lowest terms."""
    return gcd(den, *coeffs) if den > 1 else 1


# Signed array typecodes by digit width in bytes, narrowest first.
_DIGIT_FORMATS = {array(t).itemsize: t for t in "bhiq"}


def _reach(exponents: Iterable[Sequence[int]]) -> int:
    """The largest |e_i| over the exponent vectors, 0 if there is none."""
    return max(map(abs, chain.from_iterable(exponents)), default=0)


def _digit_size(reach: int) -> int:
    """The width rule: the least digit size s (bytes) with 2 reach < 256^s,
    so that digits of magnitude up to reach fit the range [-256^s/2, 256^s/2)."""
    size = next((s for s in _DIGIT_FORMATS if 2 * reach < 256**s), None)
    if size is None:
        raise ResourceLimitError(f"exponents of {reach} exceed the packed kernel's range")
    return size


class _Codec:
    """Packed exponent keys of width variables, one signed digit of size bytes
    each: e is the integer sum_i e_i 256^(size pos(i)).  The truncation slot ti
    (if ti >= 0) takes the top position and the others keep their order below
    it, so sorting keys sorts them by the truncation exponent, and a product
    key ka + kb keeps exponent <= tm there iff ka + kb < limit.  Untruncated,
    limit is 256^(size width), above every key."""

    def __init__(self, width: int, size: int, ti: int, tm: int) -> None:
        self.width, self.size, self.ti, self.tm = width, size, ti, tm
        pos = [width - 1 if i == ti else i - (i > ti >= 0) for i in range(width)]
        self.place = [256 ** (size * p) for p in pos]
        top = 256 ** (size * (width - 1))
        self.limit = tm * top + (top + 1) // 2 if ti >= 0 else 256 ** (size * width)
        # reading a key back: adding half of each digit's range makes every
        # digit its exponent plus that half, unsigned; the xor then leaves each
        # exponent in two's complement, which the signed typecode reads
        self._half = sum(256 ** (size * p) for p in range(width)) << (8 * size - 1)
        self._fmt, self._nbytes = _DIGIT_FORMATS[size], size * width
        self._order = itemgetter(*pos) if pos != sorted(pos) else None

    def packed(self, terms: Iterable[tuple[tuple[int, ...], int]]) -> list[tuple[int, int]]:
        """Integer terms as (key, coefficient), sorted by key."""
        return sorted([(sum(map(mul, e, self.place)), c) for e, c in terms])

    def unpack(self, keys: Iterable[int]) -> list[tuple[int, ...]]:
        """The exponent tuples of the keys."""
        if not self.width:
            return [() for _ in keys]
        half, nbytes, order = self._half, self._nbytes, sys.byteorder
        buf = b"".join([((k + half) ^ half).to_bytes(nbytes, order) for k in keys])
        rows = zip(*[iter(memoryview(buf).cast(self._fmt).tolist())] * self.width)
        return list(rows if self._order is None else map(self._order, rows))


_codec = cache(_Codec)  # one codec per (width, size, ti, tm)


Packed = list[tuple[int, int]]  # (key, coefficient) terms, sorted by key
TermCap = tuple[int, str] | None  # (max_terms, the stage a count above it names)


def _mac(acc: dict[int, int], a: Packed, b: Packed, limit: int) -> None:
    """acc += a * b on packed operands, dropping product keys at or above
    limit (the truncation): the one multiply-accumulate kernel.  Each term of
    the shorter operand meets the prefix of the longer one whose keys fit
    beside its own."""
    ta, tb = (a, b) if len(a) >= len(b) else (b, a)
    get = acc.get
    for kb, cb in tb:
        cut = bisect_left(ta, (limit - kb,))
        if not cut:
            break  # tb ascends, so no later term has room either
        for ka, ca in ta[:cut]:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _sums(pairs: Iterable[tuple[Packed, Packed]], limit: int,
          term_cap: TermCap = None, before: int = 0) -> dict[int, int]:
    """The sums of the pairs' products by key, zeros included: the one entry
    point to _mac.  With a term cap, before plus the nonzero sums above
    max_terms after any pair raise ResourceLimitError naming the stage."""
    acc: dict[int, int] = {}
    for a, b in pairs:
        _mac(acc, a, b, limit)
        if term_cap and before + len(acc) > term_cap[0] and (
                before + sum(map(bool, acc.values())) > term_cap[0]):
            raise ResourceLimitError(f"{term_cap[1]} exceeded {term_cap[0]} terms")
    return acc


def _canonical(acc: dict[int, int]) -> Packed:
    """The nonzero sums as packed terms, sorted by key."""
    return sorted([(k, c) for k, c in acc.items() if c])


def _mul_terms(ta: Terms, tb: Terms) -> Terms:
    """Raw sparse product of integer terms: the product of the operands as
    two grade-0 series, read back once."""
    if not ta or not tb:
        return {}
    width = len(next(iter(ta)))
    return _flat(_graded_mul(_packed({0: ta}, 1, width), _packed({0: tb}, 1, width), 0))[0]


# ---------------------------------------------------------------------------
# Grade-bucketed truncated series
# ---------------------------------------------------------------------------

class Graded(NamedTuple):
    """A truncated series on packed keys: parts maps each grade to its terms
    (key, coefficient), sorted by key, each worth
    coefficient / den; no grade is empty and no coefficient zero.  codec
    (which holds the truncation) packs the keys, all |exponents| <= reach."""

    codec: _Codec
    reach: int
    den: int
    parts: dict[int, Packed]


def _packed(buckets: Mapping[int, Terms], den: int, width: int, trunc_idx: int = -1,
            trunc_max: int = 0) -> Graded:
    """The series of the given grade buckets of integer terms over den, in
    lowest terms, its digits with room for a product with its own reach."""
    reach = _reach(e for t in buckets.values() for e in t)
    codec = _codec(width, _digit_size(2 * reach), trunc_idx, trunc_max)
    return _reduced(codec, reach, den,
                    {g: codec.packed(t.items()) for g, t in sorted(buckets.items()) if t})


def _graded(poly: MultiPoly, weights: Sequence[int], cap: int, trunc_idx: int = -1,
            trunc_max: int = 0) -> Graded:
    """poly's terms bucketed by the weighted degree sum(w_i e_i), grades above cap dropped."""
    out: dict[int, Terms] = {}
    for e, c in poly.num.items():
        g = sum(w * x for w, x in zip(weights, e))
        if g <= cap:
            out.setdefault(g, {})[e] = c
    return _packed(out, poly.den, len(weights), trunc_idx, trunc_max)


def _flat(series: Graded) -> tuple[Terms, int]:
    """(num, den): the series' integer terms, all grades together, over its den."""
    terms = [term for part in series.parts.values() for term in part]
    exponents = series.codec.unpack([k for k, _ in terms])
    return {e: c for e, (_, c) in zip(exponents, terms)}, series.den


def _repacked(series: Graded, size: int) -> Graded:
    """The series keyed with digits of the given size (keys keep their order)."""
    old = series.codec
    if old.size == size:
        return series
    new = _codec(old.width, size, old.ti, old.tm)
    return series._replace(codec=new, parts={
        g: new.packed(zip(old.unpack([k for k, _ in t]), [c for _, c in t]))
        for g, t in series.parts.items()})


def _aligned(a: Graded, b: Graded) -> tuple[Graded, Graded]:
    """a and b keyed by one codec whose digits hold M_a + M_b (the width rule
    of their product); when they do not, the reach bounds are made exact
    first, and the operands widened only if that is not enough."""
    if a.codec is b.codec and 2 * (a.reach + b.reach) < 256**a.codec.size:
        return a, b
    if (a.codec.width, a.codec.ti, a.codec.tm) != (b.codec.width, b.codec.ti, b.codec.tm):
        raise JetresError("internal: series of different widths or truncations")
    a, b = (s._replace(reach=_reach(s.codec.unpack([k for t in s.parts.values() for k, _ in t])))
            for s in (a, b))
    size = max(_digit_size(a.reach + b.reach), a.codec.size, b.codec.size)
    return _repacked(a, size), _repacked(b, size)


def _reduced(codec: _Codec, reach: int, den: int, parts: dict[int, Packed]) -> Graded:
    """The series over den with the gcd of den and the coefficients divided out."""
    if (g := _common(den, (c for t in parts.values() for _, c in t))) > 1:
        den, parts = den // g, {gr: [(k, c // g) for k, c in t] for gr, t in parts.items()}
    return Graded(codec, reach, den, parts)


def _graded_mul(a: Graded, b: Graded, cap: int, term_cap: TermCap = None) -> Graded:
    """Product of two graded series modulo grade > cap (and the truncation).

    Only bucket pairs with g1 + g2 <= cap are multiplied: exact for every
    later product as long as no grade is negative, which all callers
    guarantee by their choice of weights.  With term_cap, the running count
    of terms is checked after every pair (see _sums)."""
    a, b = _aligned(a, b)
    pa, pb, limit = a.parts, b.parts, a.codec.limit
    parts: dict[int, Packed] = {}
    total = 0  # terms so far, for the term cap
    for g in sorted({g1 + g2 for g1 in pa for g2 in pb if g1 + g2 <= cap}):
        pairs = ((t, pb[g - g1]) for g1, t in pa.items() if g - g1 in pb)
        if terms := _canonical(_sums(pairs, limit, term_cap, total)):
            parts[g] = terms
            total += len(terms)
    return _reduced(a.codec, a.reach + b.reach, a.den * b.den, parts)


def _graded_dot(a: Graded, b: Graded, term_cap: TermCap = None) -> Graded:
    """sum_g a_g b_g over the grades both hold, as a series of grade 0."""
    a, b = _aligned(a, b)
    pairs = ((t, b.parts[g]) for g, t in a.parts.items() if g in b.parts)
    terms = _canonical(_sums(pairs, a.codec.limit, term_cap))
    return Graded(a.codec, a.reach + b.reach, a.den * b.den, {0: terms} if terms else {})


def _summed(codec: _Codec, reach: int, den: int, items: Iterable[tuple[int, Graded]]) -> Graded:
    """sum_i m_i s_i / den over series keyed by codec, for integers m_i."""
    sums: dict[int, dict[int, int]] = {}
    for m, s in items:
        for g, t in s.parts.items():
            _mac(sums.setdefault(g, {}), t, [(0, m)], codec.limit)
    parts = {g: t for g, acc in sorted(sums.items()) if (t := _canonical(acc))}
    return _reduced(codec, reach, den, parts)


def _graded_series(x: Graded, coeffs: Sequence[QLike], cap: int,
                   term_cap: TermCap = None) -> Graded:
    """sum_m coeffs[m] x^m modulo grade > cap, building the powers step by step.

    The sum stops at the last coefficient or at the first power that the grade
    cap and the truncation have emptied.  x is keyed once, with room for the
    last power the cap leaves; the sum is over D^top times the coefficients'
    denominators.  With term_cap, each power's product and the sum count."""
    low = min(x.parts, default=0)
    top = len(coeffs) - 1 if low == 0 else min(len(coeffs) - 1, cap // low)
    x = _repacked(x, max(x.codec.size, _digit_size(top * x.reach)))
    coeffs = [_coerce_q(c) for c in coeffs[: top + 1]]
    den = x.den**top * lcm(*(c.denominator for c in coeffs))

    def terms() -> Iterator[tuple[int, Graded]]:
        power = Graded(x.codec, 0, 1, {0: [(0, 1)]})
        for m, c in enumerate(coeffs):
            if m:
                power = _graded_mul(power, x, cap, term_cap)
                if not power.parts:
                    break
            yield den // (power.den * c.denominator) * c.numerator, power

    out = _summed(x.codec, top * x.reach, den, terms())
    if term_cap and sum(map(len, out.parts.values())) > term_cap[0]:
        raise ResourceLimitError(f"{term_cap[1]} exceeded {term_cap[0]} terms")
    return out


def _graded_inverse(a: Graded, cap: int) -> Graded:
    """The b with a*b == 1 modulo grade > cap; a's grade-0 part must be exactly 1.

    Grade by grade from the recurrence b_0 = 1, b_g = -sum_(g' >= 1) a_g' b_(g - g'),
    on the integer polynomials D^g b_g for D = a.den, each packed once.  b_g
    is a sum of products of at most g / g_min terms of a (g_min its least
    positive grade), so a is keyed once with room for that."""
    if a.parts.get(0) != [(0, a.den)]:
        raise JetresError("internal: series inverse requires grade-0 part exactly 1")
    low = min((g for g in a.parts if g), default=cap + 1)
    reach = cap // low * a.reach
    a = _repacked(a, max(a.codec.size, _digit_size(a.reach + reach)))
    den, limit = a.den, a.codec.limit
    ia = {g: [(k, -c * den ** (g - 1)) for k, c in t] for g, t in a.parts.items() if 0 < g <= cap}
    ib: dict[int, Packed] = {0: [(0, 1)]}
    for g in range(low, cap + 1):
        pairs = ((t, ib[g - g1]) for g1, t in ia.items() if g - g1 in ib)
        if terms := _canonical(_sums(pairs, limit)):
            ib[g] = terms
    top = max(ib)
    if den > 1:
        ib = {g: [(k, c * den ** (top - g)) for k, c in t] for g, t in ib.items()}
    return _reduced(a.codec, reach, den**top, ib)


def _dot_powers(groups: Mapping[int, Terms], den: int, value: MultiPoly) -> tuple[Terms, int]:
    """sum_p groups[p] value^p / den: one dot product of the groups with the
    series of value's powers, value^p at grade p."""
    top, width = max(groups), len(value.ctx)
    powers = _graded_series(_packed({1: value.num}, value.den, width), [1] * (top + 1), top)
    return _flat(_graded_dot(_packed(groups, den, width), powers))


class MultiPoly:
    """Sparse multivariate polynomial over Q in a fixed variable context.

    ``num`` maps exponent tuples (one integer per context variable) to
    nonzero integer numerators over the one denominator ``den >= 1``, and
    gcd(den, *num.values()) == 1: the form is canonical, so equal
    polynomials hold equal fields.  Instances are immutable by convention:
    no method mutates ``num`` after construction.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: VarContext, terms: Mapping[tuple[int, ...], QLike] | None = None):
        clean: dict[tuple[int, ...], Q] = {}
        width = len(ctx)
        if terms:
            for e, c in terms.items():
                if len(e) != width:
                    raise ContextError(f"exponent {e} has wrong arity for context {ctx.names}")
                q = _coerce_q(c)
                if q:
                    clean[tuple(e)] = q
        den = lcm(*(q.denominator for q in clean.values()))
        self.ctx, self.den = ctx, den
        self.num = {e: q.numerator * (den // q.denominator) for e, q in clean.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "MultiPoly":
        return cls._raw(ctx, {})

    @classmethod
    def const(cls, ctx: VarContext, value: QLike) -> "MultiPoly":
        q = _coerce_q(value)
        return cls._raw(ctx, {(0,) * len(ctx): q.numerator} if q else {}, q.denominator)

    @classmethod
    def variable(cls, ctx: VarContext, name: str) -> "MultiPoly":
        e = [0] * len(ctx)
        e[ctx.index(name)] = 1
        return cls._raw(ctx, {tuple(e): 1})

    @classmethod
    def _raw(cls, ctx: VarContext, num: Terms, den: int = 1) -> "MultiPoly":
        # Internal: num must hold no zeros and have the right arity, den >= 1;
        # the gcd of den and the numerators is divided out here
        if (g := _common(den, num.values())) > 1:
            den, num = den // g, {e: c // g for e, c in num.items()}
        obj = object.__new__(cls)
        obj.ctx, obj.num, obj.den = ctx, num, den
        return obj

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Q]:
        """The coefficients as rationals, in a new dict on every read."""
        return {e: Q(c, self.den) for e, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def variables_used(self) -> set[str]:
        return {self.ctx.names[i] for e in self.num for i, p in enumerate(e) if p}

    # -- arithmetic --------------------------------------------------------

    def _check_ctx(self, other: "MultiPoly") -> None:
        if self.ctx != other.ctx:
            raise ContextError(f"mismatched contexts {self.ctx.names} vs {other.ctx.names}")

    def __add__(self, other: "MultiPoly | QLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.ctx, other)
        self._check_ctx(other)
        den = lcm(self.den, other.den)
        up, scale = den // self.den, den // other.den
        acc = {e: c * up for e, c in self.num.items()} if up > 1 else dict(self.num)
        get = acc.get
        for e, c in other.num.items():
            if c := get(e, 0) + c * scale:
                acc[e] = c
            else:  # only a term already in acc cancels
                del acc[e]
        return MultiPoly._raw(self.ctx, acc, den)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw(self.ctx, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other: "MultiPoly | QLike") -> "MultiPoly":
        return self + (-other)

    def __rsub__(self, other: QLike) -> "MultiPoly":
        return MultiPoly.const(self.ctx, other) - self

    def __mul__(self, other: "MultiPoly | QLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            q = _coerce_q(other)
            if not q:
                return MultiPoly.zero(self.ctx)
            return MultiPoly._raw(self.ctx, {e: c * q.numerator for e, c in self.num.items()},
                                  self.den * q.denominator)
        self._check_ctx(other)
        return MultiPoly._raw(self.ctx, _mul_terms(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "MultiPoly":
        """sum_k C(exp, k) (c x^m)^(exp-k) r^k / den^exp for c x^m one term of
        the numerators and r the rest, the powers of r as one series
        (_dot_powers)."""
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not self.num or not exp:
            return self if exp else MultiPoly.const(self.ctx, 1)
        (m, c), *others = self.num.items()
        if not others:  # one term: no binomial sum
            return MultiPoly._raw(self.ctx, {tuple(exp * x for x in m): c**exp}, self.den**exp)
        lead, scale = {}, 1  # scale = C(exp, k) c^(exp-k), from k = exp down
        for k in range(exp, -1, -1):
            lead[k] = {tuple((exp - k) * x for x in m): scale}
            scale = scale * c * k // (exp - k + 1)
        num, den = _dot_powers(lead, 1, MultiPoly._raw(self.ctx, dict(others)))
        return MultiPoly._raw(self.ctx, num, den * self.den**exp)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Q)):
            other = MultiPoly.const(self.ctx, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.ctx, self.den, frozenset(self.num.items())))

    # -- structural operations ---------------------------------------------

    def substitute(self, name: str, value: "MultiPoly | QLike") -> "MultiPoly":
        """Substitute a polynomial or rational for one variable (exact).

        The terms are grouped by their exponent p of the variable, that slot
        set to zero, and summed against value^p (_dot_powers).
        """
        if not isinstance(value, MultiPoly):
            value = MultiPoly.const(self.ctx, value)
        self._check_ctx(value)
        i = self.ctx.index(name)
        groups: dict[int, Terms] = {}
        for e, c in self.num.items():
            groups.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        if not any(groups):  # every term keeps value^0 = 1
            return self
        return MultiPoly._raw(self.ctx, *_dot_powers(groups, self.den, value))

    def truncate(self, name: str, maxdeg: int) -> "MultiPoly":
        """Drop all terms whose exponent in `name` exceeds maxdeg."""
        i = self.ctx.index(name)
        return MultiPoly._raw(self.ctx, {e: c for e, c in self.num.items() if e[i] <= maxdeg},
                              self.den)

    def recast(self, ctx: VarContext) -> "MultiPoly":
        """Re-express in ctx, which must hold every variable used here
        (ContextError naming the others); unused variables may be missing."""
        if missing := self.variables_used() - set(ctx.names):
            raise ContextError(f"cannot recast into {ctx.names}: variables {sorted(missing)} used")
        moves = [(i, ctx.index(name)) for i, name in enumerate(self.ctx.names) if name in ctx]
        out: Terms = {}
        for e, c in self.num.items():
            ne = [0] * len(ctx)
            for i, p in moves:
                ne[p] = e[i]
            out[tuple(ne)] = c
        return MultiPoly._raw(ctx, out, self.den)

    # -- division ------------------------------------------------------------

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly | None":
        """Exact quotient self/divisor, or None if it does not divide.

        Leading-term elimination in graded-lex order on the numerators, the
        divisor's made primitive: by Gauss's lemma an exact quotient is then
        integral, so each step's division by the leading coefficient is exact
        or there is no quotient.  Exact quotients always reduce because
        LT(q*b) = LT(q)*LT(b); every term a step adds sits below the one it
        removes, so the leading terms come off one heap (stale entries skipped).
        """
        self._check_ctx(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return self
        content = gcd(*divisor.num.values())
        lead_b = max(divisor.num, key=_gradedlex_key)
        cb = divisor.num[lead_b] // content
        rest = [(e, -c // content) for e, c in divisor.num.items() if e != lead_b]
        rem = dict(self.num)
        heap = [_heap_key(e) for e in rem]
        heapify(heap)
        quot: Terms = {}
        while rem:
            lead_r = heappop(heap)[2]
            if lead_r not in rem:
                continue
            qe = tuple(er - eb for er, eb in zip(lead_r, lead_b))
            qc, r = divmod(rem.pop(lead_r), cb)
            if r or any(p < 0 for p in qe):
                return None
            quot[qe] = qc
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
        return MultiPoly._raw(self.ctx, {e: c * divisor.den for e, c in quot.items()},
                              self.den * content)

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Q]]:
        return sorted(self.terms.items(), key=lambda item: _gradedlex_key(item[0]), reverse=True)

    def to_text(self) -> str:
        """Canonical text form, parseable by the CLI polynomial grammar."""
        if not self.num:
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


def _size_cap(what: str, terms: int, factors: Sequence[tuple[MultiPoly, int]],
              max_terms: int) -> None:
    """Refuse terms whose coefficients are bounded by a product of factors
    p^m when terms times their 64-bit words exceed max_terms: p's are at most
    S/L, for L its denominator and S the sum of its |numerators|."""
    bits = 0
    for p, m in factors:
        bits += m * (sum(map(abs, p.num.values())).bit_length() + (p.den - 1).bit_length())
    if terms * (1 + bits // 64) > max_terms:
        raise ResourceLimitError(f"{what} may exceed {max_terms} words "
                                 "(terms times 64-bit words per coefficient)")


def _power_cap(stage: str, base: MultiPoly, exp: int, max_terms: int) -> None:
    """Refuse base**exp unexpanded: a t-term base gives at most
    C(exp + t - 1, t - 1) terms, and their size is _size_cap's."""
    t, bound = len(base.num), 1
    what = f"{stage}: a {t}-term base to the power {exp}"
    for i in range(1, t):  # C(exp + i, i), until it passes max_terms
        bound = bound * (exp + i) // i
        if bound > max_terms:
            raise ResourceLimitError(f"{what} may exceed {max_terms} terms")
    _size_cap(what, bound, [(base, exp)], max_terms)


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
        self.coeffs = tuple(cs)

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

    def __mul__(self, other: "DPoly | QLike") -> "DPoly":
        if not isinstance(other, DPoly):
            q = _coerce_q(other)
            return DPoly([c * q for c in self.coeffs])
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DPoly(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_text(self) -> str:
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
                parts.append(f"{c}*d" if c != 1 else "d")
            else:
                parts.append(f"{c}*d^{p}" if c != 1 else f"d^{p}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"DPoly({self.to_text()})"
