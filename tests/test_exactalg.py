"""Exact arithmetic substrate: ring axioms, series, truncation, division."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetres.exactalg import (
    ContextError,
    DPoly,
    HD_CTX,
    MultiPoly,
    NonUnitError,
    Q,
    VarContext,
    _add_into,
    _flat,
    _graded,
    _graded_exp,
    _graded_inverse,
    _graded_mul,
    _mul_terms,
)

CTX = VarContext(("z1", "z2", "h"))
Z1 = MultiPoly.variable(CTX, "z1")
Z2 = MultiPoly.variable(CTX, "z2")
H = MultiPoly.variable(CTX, "h")


def random_poly(rng, ctx=CTX, max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in ctx.names)
        terms[e] = Q(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(ctx, terms)


def test_difference_of_squares():
    assert (Z1 + Z2) * (Z1 - Z2) == Z1**2 - Z2**2


def test_multiplication_by_zero():
    rng = random.Random(0)
    p = random_poly(rng)
    assert (p * MultiPoly.zero(CTX)).is_zero
    assert (p * 0).is_zero


def test_binomial_cube():
    one = MultiPoly.const(CTX, 1)
    assert (one + H) ** 2 * (one + H) == 1 + 3 * H + 3 * H**2 + H**3


def test_power_examples():
    assert (Z1 + Z2) ** 0 == MultiPoly.const(CTX, 1)
    assert (Z1 + H) ** 2 == Z1**2 + 2 * Z1 * H + H**2
    # (u1 + 2 u2)^3 expanded by repeated multiplication as the oracle
    lhs = (Z1 + 2 * Z2) ** 3
    oracle = MultiPoly.const(CTX, 1)
    for _ in range(3):
        oracle = oracle * (Z1 + 2 * Z2)
    assert lhs == oracle
    assert lhs == Z1**3 + 6 * Z1**2 * Z2 + 12 * Z1 * Z2**2 + 8 * Z2**3


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_context_mismatch_raises():
    other = VarContext(("z1",))
    with pytest.raises(ContextError):
        Z1 + MultiPoly.variable(other, "z1")


def test_series_inverse_geometric():
    one = MultiPoly.const(CTX, 1)
    inv = (one + H).series_inverse(3)
    assert inv == 1 - H + H**2 - H**3
    assert one.series_inverse(5) == one


def test_series_inverse_non_unit():
    with pytest.raises(NonUnitError):
        (2 + H).series_inverse(3)
    with pytest.raises(NonUnitError):
        H.series_inverse(3)


def test_series_inverse_randomized():
    rng = random.Random(21)
    cap = 6
    one = MultiPoly.const(CTX, 1)
    for _ in range(100):
        u = random_poly(rng)
        u = u - MultiPoly.const(CTX, u.constant()) + one  # force constant term 1
        inv = u.series_inverse(cap)
        assert (u * inv).truncate_total(cap) == one


# Graded truncated series: exponent tuples of width 3 graded by weights
# (1, 2, 1), so every non-constant monomial has grade >= 1.
WEIGHTS = (1, 2, 1)
UNIT = (0, 0, 0)
terms_st = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 5)),
    max_size=6,
).map(lambda t: {e: c for e, c in t.items() if c})
nonconstant_st = terms_st.map(lambda t: {e: c for e, c in t.items() if e != UNIT})
cap_st = st.integers(0, 6)
trunc_st = st.sampled_from([(-1, 0), (0, 1), (2, 2)])  # (truncation index, max exponent)


def _grade(e):
    return sum(w * x for w, x in zip(WEIGHTS, e))


@given(terms_st, terms_st, cap_st, trunc_st)
def test_graded_mul_is_the_truncated_full_product(a, b, cap, trunc):
    ti, tm = trunc
    got = _graded_mul(_graded(a, WEIGHTS, cap), _graded(b, WEIGHTS, cap), cap, ti, tm)
    assert all(_grade(e) == g for g, part in got.items() for e in part)
    full = _mul_terms(a, b)
    assert _flat(got) == {
        e: c for e, c in full.items() if _grade(e) <= cap and (ti < 0 or e[ti] <= tm)
    }


@given(nonconstant_st, cap_st, trunc_st)
def test_graded_inverse_times_series_is_one(x, cap, trunc):
    ti, tm = trunc
    a = _graded({**x, UNIT: Q(1)}, WEIGHTS, cap)
    inv = _graded_inverse(a, cap, 3, ti, tm)
    assert _flat(_graded_mul(inv, a, cap, ti, tm)) == {UNIT: Q(1)}


@given(nonconstant_st, nonconstant_st, cap_st, trunc_st)
def test_graded_exp_of_sum_is_product_of_exps(x, y, cap, trunc):
    ti, tm = trunc

    def exp(t):
        return _graded_exp(_graded(t, WEIGHTS, cap), cap, 3, ti, tm)

    xy = dict(x)
    _add_into(xy, y)
    assert _flat(exp(xy)) == _flat(_graded_mul(exp(x), exp(y), cap, ti, tm))


def _fraction_product(a, b, ti, tm):
    """Reference: the product term by term in Fraction arithmetic."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if ti < 0 or e[ti] <= tm:
                out[e] = out.get(e, Q(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


# a*b with a symmetric in the first two slots and b = c*(x0 - x1): every
# product term with equal exponents in those slots cancels
symmetric_st = terms_st.map(lambda t: {**t, **{(e[1], e[0], e[2]): c for e, c in t.items()}})
antisymmetric_st = st.builds(Q, st.integers(1, 9), st.integers(1, 5)).map(
    lambda c: {(1, 0, 0): c, (0, 1, 0): -c}
)


@given(
    st.one_of(st.tuples(terms_st, terms_st), st.tuples(symmetric_st, antisymmetric_st)),
    trunc_st,
)
def test_mul_terms_is_the_fraction_product(operands, trunc):
    a, b = operands
    ti, tm = trunc
    for x, y in ((a, b), (b, a)):
        got = _mul_terms(x, y, ti, tm)
        assert got == _fraction_product(x, y, ti, tm)
        assert all(type(c) is Q and c for c in got.values())
    assert _mul_terms({}, b) == _mul_terms(a, {}) == {}


def _substitute_per_term(poly, assignments):
    """Reference: every term times the powers of its substituted values."""
    acc = MultiPoly.zero(poly.ctx)
    for e, c in poly.terms.items():
        powers = dict(zip(poly.ctx.names, e))
        rest = tuple(0 if name in assignments else p for name, p in powers.items())
        term = MultiPoly(poly.ctx, {rest: c})
        for name, value in assignments.items():
            if not isinstance(value, MultiPoly):
                value = MultiPoly.const(poly.ctx, value)
            term = term * value ** powers[name]
        acc = acc + term
    return acc


# values: polynomials (the zero polynomial and ones holding the substituted
# variable among them), rationals including zero, and z1 -> z1 + z2 itself
value_st = st.one_of(
    terms_st.map(lambda t: MultiPoly(CTX, t)),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 5)),
    st.just(Z1 + Z2),
)


@given(terms_st, st.dictionaries(st.sampled_from(CTX.names), value_st, min_size=1, max_size=3))
def test_substitute_is_the_per_term_substitution(terms, assignments):
    p = MultiPoly(CTX, terms)
    got = p.substitute(assignments)
    assert got == _substitute_per_term(p, assignments)
    assert all(type(c) is Q and c for c in got.terms.values())


def test_graded_series_rejects_bad_constant_parts():
    with pytest.raises(NonUnitError):
        _graded_inverse({0: {UNIT: Q(2)}}, 3, 3)
    with pytest.raises(ValueError):
        _graded_exp({0: {UNIT: Q(1)}}, 3, 3)


def test_segre_of_surface_multiplies_back():
    # inverse of (1+h)^4/(1+dh) for n=2 to cap 2: check c*s = 1 mod h^3
    h = MultiPoly.variable(HD_CTX, "h")
    d = MultiPoly.variable(HD_CTX, "d")
    c = ((1 + h) ** 4 * (1 + d * h).series_inverse(4)).truncate("h", 2)
    s = c.series_inverse(6).truncate("h", 2)
    assert (c * s).truncate("h", 2) == MultiPoly.const(HD_CTX, 1)


def test_coefficient_of():
    p = Z1 * H + Z2
    assert p.coefficient_of({"z1": 1}) == H
    assert (Z1 * H).coefficient_of({"z1": 2}).is_zero
    assert ((Z1 + Z2) ** 2).coefficient_of({"z1": 1, "z2": 1}) == MultiPoly.const(CTX, 2)


def test_divide_exact():
    rng = random.Random(11)
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero:
            continue
        prod = a * b
        q = prod.divide_exact(b)
        assert q == a
    assert (Z1 * Z2 + H).divide_exact(Z1) is None


@given(terms_st, terms_st.filter(bool), terms_st)
def test_divide_exact_inverts_the_product(a, b, r):
    pa, pb = MultiPoly(CTX, a), MultiPoly(CTX, b)
    prod = pa * pb
    assert prod.divide_exact(pb) == pa
    # a remainder none of whose terms the leading term of b divides is not
    # a multiple of b, so neither is prod plus it
    lead_b = max(b, key=lambda e: (sum(e), e))
    r = {e: c for e, c in r.items() if any(x < y for x, y in zip(e, lead_b))}
    if r:
        assert (prod + MultiPoly(CTX, r)).divide_exact(pb) is None


def test_substitute_and_evaluate():
    p = Z1**2 + Z2 * H
    q = p.substitute({"z1": Z2 + 1})
    assert q == (Z2 + 1) ** 2 + Z2 * H
    val = p.evaluate({"z1": Q(2), "z2": Q(1, 2), "h": Q(3)})
    assert val == Q(4) + Q(3, 2)


def test_canonical_text_deterministic():
    a = Z1 + Z2 + H + Z1 * Z2
    b = H + Z1 * Z2 + Z2 + Z1
    assert a == b
    assert a.to_text() == b.to_text()


def test_dpoly_basics():
    p = DPoly([1, 2, 1])
    assert p.degree() == 2
    assert p(3) == 16
    q = p.divide_exact(DPoly([1, 1]))
    assert q == DPoly([1, 1])
    assert DPoly([0, 0, 0]).is_zero
    assert DPoly([1, 1]) * DPoly([0, 1]) == DPoly([0, 1, 1])
    assert DPoly([1, 1]).divide_exact(DPoly([0, 1])) is None
