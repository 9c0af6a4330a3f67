"""Exact arithmetic substrate: ring axioms, series, truncation, division."""

import random
import time
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jetres import exactalg
from jetres.exactalg import (
    ContextError,
    DPoly,
    HD_CTX,
    JetresError,
    MultiPoly,
    Q,
    ResourceLimitError,
    VarContext,
    _graded_dot,
    _graded_inverse,
    _graded_mul,
    _graded_series,
)
from oracles import (
    constant,
    evaluate,
    graded_add,
    naive_inverse,
    naive_mul,
    naive_series,
    series_inverse,
    truncate_total,
)

CTX = VarContext(("z1", "z2", "h"))
Z1 = MultiPoly.variable(CTX, "z1")
Z2 = MultiPoly.variable(CTX, "z2")
H = MultiPoly.variable(CTX, "h")


# The kernel entry points on rational term dicts: the integer numerators of
# the terms over the lcm of their denominators go in, rationals come out.

def _numerators(terms):
    den = lcm(*(Q(c).denominator for c in terms.values()))
    return {e: int(c * den) for e, c in terms.items()}, den


def _graded(terms, weights, cap, ti=-1, tm=0):
    ctx = VarContext(tuple(f"x{i}" for i in range(len(weights))))
    return exactalg._graded(MultiPoly(ctx, terms), weights, cap, ti, tm)


def _packed(buckets, width, ti=-1, tm=0):
    den = lcm(*(_numerators(t)[1] for t in buckets.values()))
    ints = {g: {e: int(c * den) for e, c in t.items()} for g, t in buckets.items()}
    return exactalg._packed(ints, den, width, ti, tm)


def _flat(series):
    num, den = exactalg._flat(series)
    return {e: Q(c, den) for e, c in num.items()}


def _mul_terms(a, b):
    (na, da), (nb, db) = _numerators(a), _numerators(b)
    return {e: Q(c, da * db) for e, c in exactalg._mul_terms(na, nb).items()}


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


def test_power_of_one_term_takes_constant_time():
    # the binomial sum over k = 0..exp is quadratic in exp: 20-35 s on 2 vCPUs
    start = time.process_time()
    power = (2 * Z1) ** 160000
    assert time.process_time() - start < 2
    assert power == MultiPoly(CTX, {(160000, 0, 0): Q(2) ** 160000})


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
    inv = series_inverse(one + H, 3)
    assert inv == 1 - H + H**2 - H**3
    assert series_inverse(one, 5) == one


def test_series_inverse_non_unit():
    with pytest.raises(JetresError, match="internal: series inverse requires grade-0"):
        series_inverse(2 + H, 3)
    with pytest.raises(JetresError, match="internal: series inverse requires grade-0"):
        series_inverse(H, 3)


def test_series_inverse_randomized():
    rng = random.Random(21)
    cap = 6
    one = MultiPoly.const(CTX, 1)
    for _ in range(100):
        u = random_poly(rng)
        u = u - constant(u) + one  # force constant term 1
        inv = series_inverse(u, cap)
        assert truncate_total(u * inv, cap) == one


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


@given(terms_st, st.integers(0, 6))
@example({UNIT: Q(1), (1, 0, 0): Q(1), (2, 0, 0): Q(1)}, 6)
@example({(1, 0, 0): Q(-2, 3), (2, 0, 0): Q(1), (0, 0, 1): Q(5, 7), (1, 0, 1): Q(3)}, 5)
def test_power_is_the_repeated_product(terms, exp):
    # the binomial split off one term against plain products, on rational
    # coefficients and on bases whose products collide, such as 1 + z1 + z1^2
    # (the zero polynomial too)
    p = MultiPoly(CTX, terms)
    oracle = MultiPoly.const(CTX, 1)
    for _ in range(exp):
        oracle = oracle * p
    assert p**exp == oracle


def _grade(e):
    return sum(w * x for w, x in zip(WEIGHTS, e))


def _cancelling_pair(p, q, r, m1, m2):
    """a = x^m1 (p x0 + q x1), b = x^m2 (r x1 - (p r / q) x0): the bucket pairs
    of grades (1, 2) and (2, 1) above the shifts give the same monomial
    x^(m1 + m2) x0 x1 with coefficients p r and -p r, and nothing else lands
    in that grade."""

    def shift(m, e):
        return tuple(x + y for x, y in zip(m, e))

    a = {shift(m1, (1, 0, 0)): p, shift(m1, (0, 1, 0)): q}
    b = {shift(m2, (0, 1, 0)): r, shift(m2, (1, 0, 0)): -p * r / q}
    return a, b


nonzero_q_st = st.builds(Q, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 5))
shift_st = st.tuples(*[st.integers(0, 1)] * 3)
operands_st = st.one_of(
    st.tuples(terms_st, terms_st),
    st.builds(_cancelling_pair, nonzero_q_st, nonzero_q_st, nonzero_q_st, shift_st, shift_st),
)


def _buckets(terms, cap):
    """The terms by grade, grades above cap dropped, for the naive oracles."""
    out = {}
    for e, c in terms.items():
        if _grade(e) <= cap:
            out.setdefault(_grade(e), {})[e] = c
    return out


def _by_grade(series):
    """The series read back grade by grade."""
    return {g: _flat(series._replace(parts={g: t})) for g, t in series.parts.items()}


@given(operands_st, st.integers(0, 10), trunc_st)
def test_graded_mul_is_the_truncated_full_product(operands, cap, trunc):
    a, b = operands
    ti, tm = trunc
    got = _graded_mul(_graded(a, WEIGHTS, cap, ti, tm), _graded(b, WEIGHTS, cap, ti, tm), cap)
    by_grade = _by_grade(got)
    assert all(_grade(e) == g for g, part in by_grade.items() for e in part)
    # canonical: no empty grade, no zero coefficient, every coefficient a Q
    assert all(got.parts.values())
    assert all(type(c) is Q and c for part in by_grade.values() for c in part.values())
    full = _mul_terms(a, b)
    assert _flat(got) == {
        e: c for e, c in full.items() if _grade(e) <= cap and (ti < 0 or e[ti] <= tm)
    }


@given(operands_st, st.integers(0, 10), trunc_st)
def test_graded_mul_is_the_naive_product(operands, cap, trunc):
    a, b = operands
    got = _graded_mul(_graded(a, WEIGHTS, cap, *trunc), _graded(b, WEIGHTS, cap, *trunc), cap)
    assert _by_grade(got) == naive_mul(_buckets(a, cap), _buckets(b, cap), cap, *trunc)


@given(terms_st, st.lists(st.builds(Q, st.integers(-9, 9), st.integers(1, 6)), max_size=8),
       cap_st, trunc_st)
def test_graded_series_is_the_naive_series(x, coeffs, cap, trunc):
    got = _graded_series(_graded(x, WEIGHTS, cap, *trunc), [1] + coeffs, cap)
    assert _by_grade(got) == naive_series(_buckets(x, cap), [1] + coeffs, cap, 3, *trunc)


@given(nonconstant_st, cap_st, trunc_st)
def test_graded_inverse_is_the_naive_inverse(x, cap, trunc):
    a = {**x, UNIT: Q(1)}
    got = _graded_inverse(_graded(a, WEIGHTS, cap, *trunc), cap)
    assert _by_grade(got) == naive_inverse(_buckets(a, cap), cap, 3, *trunc)


@given(nonconstant_st, cap_st, trunc_st)
def test_graded_inverse_times_series_is_one(x, cap, trunc):
    a = _graded({**x, UNIT: Q(1)}, WEIGHTS, cap, *trunc)
    assert _flat(_graded_mul(_graded_inverse(a, cap), a, cap)) == {UNIT: Q(1)}


@given(nonconstant_st, cap_st, trunc_st)
def test_graded_inverse_is_the_geometric_series(x, cap, trunc):
    # 1/(1 + x) = sum_m (-1)^m x^m, the definition the recurrence replaced
    a = _graded({**x, UNIT: Q(1)}, WEIGHTS, cap, *trunc)
    geometric = _graded_series(_graded(x, WEIGHTS, cap, *trunc),
                               [(-1) ** m for m in range(cap + 1)], cap)
    assert _flat(_graded_inverse(a, cap)) == _flat(geometric)


@given(terms_st, nonconstant_st, cap_st, trunc_st)
def test_every_packed_part_is_sorted_by_key(x, y, cap, trunc):
    # the one kernel loop cuts each operand at a prefix, so every part of
    # every series keeps strictly ascending keys, truncated or not
    a, b = _graded(x, WEIGHTS, cap, *trunc), _graded(y, WEIGHTS, cap, *trunc)
    unit = _graded({**y, UNIT: Q(1)}, WEIGHTS, cap, *trunc)
    for series in (_packed({0: x, 1: y}, 3, *trunc), a, _graded_mul(a, b, cap),
                   _graded_dot(a, b), _graded_series(b, [1, -2, Q(1, 3)], cap),
                   _graded_inverse(unit, cap)):
        for part in series.parts.values():
            keys = [key for key, _ in part]
            assert keys == sorted(set(keys))


@given(nonconstant_st, nonconstant_st, cap_st, trunc_st)
def test_graded_exp_of_sum_is_product_of_exps(x, y, cap, trunc):
    def exp(t):
        coeffs = [Q(1, factorial(m)) for m in range(cap + 1)]
        return _graded_series(_graded(t, WEIGHTS, cap, *trunc), coeffs, cap)

    xy = (MultiPoly(CTX, x) + MultiPoly(CTX, y)).terms
    assert _flat(exp(xy)) == _flat(_graded_mul(exp(x), exp(y), cap))


@pytest.mark.parametrize("trunc", [(-1, 0), (0, 150), (2, 90)])
def test_graded_chain_that_outgrows_its_digits(trunc):
    # every product of the chain adds the operands' reach bounds: x^3 keeps
    # 1-byte digits, x^4 needs 2-byte ones, so the chain widens on the way
    cap = 1000
    x = {(40, 0, 1): Q(1, 2), (0, 40, 0): Q(3), (1, 1, 1): Q(-2, 3), (0, 0, 30): Q(5, 7)}
    packed, naive = _graded(x, WEIGHTS, cap, *trunc), _buckets(x, cap)
    power, expected = packed, naive
    sizes = set()
    for _ in range(4):
        power = _graded_mul(power, packed, cap)
        expected = naive_mul(expected, naive, cap, *trunc)
        sizes.add(power.codec.size)
        assert _by_grade(power) == expected
    assert sizes == {1, 2}
    # a sum of two series keyed with different digits, and the series and
    # inverse whose powers outgrow the operand's digits
    expected = MultiPoly(CTX, _flat(power)) + MultiPoly(CTX, _flat(packed))
    assert _flat(graded_add(power, packed)) == expected.terms
    coeffs = [Q(1, m + 1) for m in range(6)]
    assert _by_grade(_graded_series(packed, coeffs, cap)) == naive_series(naive, coeffs, cap, 3,
                                                                          *trunc)
    unit_plus = {**x, UNIT: Q(1)}
    inverse = _graded_inverse(_graded(unit_plus, WEIGHTS, 90, *trunc), 90)
    assert inverse.codec.size == 2
    assert _by_grade(inverse) == naive_inverse(_buckets(unit_plus, 90), 90, 3, *trunc)


def _truncated_product(a, b, width, ti, tm):
    """The product of two grade-0 series packed with the truncation (ti, tm)."""
    return _flat(_graded_mul(_packed({0: a}, width, ti, tm), _packed({0: b}, width, ti, tm), 0))


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


# Exponents for the packed kernel: negative ones, and ones at the edges of
# the 1-, 2- and 4-byte digits, where a product can need a wider digit than
# either operand.
EDGES = (127, 128, 255, 256, 32767, 32768)
edge_exp_st = st.integers(-3, 3) | st.sampled_from(EDGES + tuple(-x for x in EDGES))
edge_terms_st = st.dictionaries(
    st.tuples(*[edge_exp_st] * 3),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 5)),
    max_size=5,
).map(lambda t: {e: c for e, c in t.items() if c})
edge_trunc_st = st.sampled_from([(-1, 0), (0, 1), (2, 2), (1, -3), (0, 256), (2, -32768)])


@given(
    st.one_of(
        st.tuples(terms_st, terms_st),
        st.tuples(symmetric_st, antisymmetric_st),
        st.tuples(edge_terms_st, edge_terms_st),
    ),
    edge_trunc_st,
)
def test_mul_terms_is_the_fraction_product(operands, trunc):
    a, b = operands
    ti, tm = trunc
    for x, y in ((a, b), (b, a)):
        got = _truncated_product(x, y, 3, ti, tm)
        assert got == _fraction_product(x, y, ti, tm)
        assert all(type(c) is Q and c for c in got.values())
        assert _mul_terms(x, y) == _fraction_product(x, y, -1, 0)
    assert _mul_terms({}, b) == _mul_terms(a, {}) == {}


int_terms_st = st.dictionaries(
    st.tuples(*[edge_exp_st] * 3), st.integers(-9, 9).filter(bool), max_size=5
).map(lambda t: list(t.items()))
pairs_st = st.lists(st.tuples(int_terms_st, int_terms_st), max_size=4)


def _product_sums(pairs, ti, tm):
    """Reference: the sums of all the pairs' products, term by term."""
    out = {}
    for a, b in pairs:
        for ea, ca in a:
            for eb, cb in b:
                e = tuple(x + y for x, y in zip(ea, eb))
                if ti < 0 or e[ti] <= tm:
                    out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _dot_of_pairs(pairs, ti, tm):
    """The pairs' products summed as one _graded_dot, pair i at grade i."""
    def series(side):
        return _packed({i: {e: Q(c) for e, c in pair[side]} for i, pair in enumerate(pairs)},
                       3, ti, tm)

    return _flat(_graded_dot(series(0), series(1)))


@given(st.lists(pairs_st, min_size=1, max_size=3), st.booleans(), edge_trunc_st)
def test_graded_dot_is_the_per_term_sum(groups, cancel, trunc):
    ti, tm = trunc
    if cancel:
        # a pair and its negation: every sum of the two cancels to zero
        groups = [pairs + [(a, [(e, -c) for e, c in b]) for a, b in pairs[:1]] for pairs in groups]
    assert [_dot_of_pairs(p, ti, tm) for p in groups] == [_product_sums(p, ti, tm) for p in groups]


@pytest.mark.parametrize("top", [100, 200, 20000])
def test_product_needs_a_wider_digit_than_its_operands(top):
    # each operand's exponents fit a digit that the product's 2*top does not
    a = {(top, -top, 0): Q(1), (-top, 0, 1): Q(2), (1, top, -top): Q(1, 3)}
    b = {(top, 0, -1): Q(3), (-top, top, 0): Q(-1), (0, -top, top): Q(5)}
    got = _mul_terms(a, b)
    assert got == _fraction_product(a, b, -1, 0)
    assert got[(2 * top, -top, -1)] == 3 and got[(-2 * top, top, 1)] == -2


# One variable: the truncation slot is the only digit, with none below it.
one_var_terms_st = st.dictionaries(
    st.tuples(st.integers(0, 4)), st.builds(Q, st.integers(-9, 9), st.integers(1, 5)), max_size=5
).map(lambda t: {e: c for e, c in t.items() if c})


@given(one_var_terms_st, one_var_terms_st, st.integers(0, 6), st.integers(0, 6))
def test_one_variable_truncation_keeps_the_top_exponent(a, b, cap, tm):
    assert _truncated_product({(1,): Q(1)}, {(2,): Q(1)}, 1, 0, 3) == {(3,): Q(1)}
    assert _truncated_product(a, b, 1, 0, tm) == _fraction_product(a, b, 0, tm)

    def buckets(t):
        return {e[0]: {e: c} for e, c in t.items() if e[0] <= cap}

    def graded(t):
        return _graded(t, (1,), cap, 0, tm)

    got = _graded_mul(graded(a), graded(b), cap)
    assert _by_grade(got) == naive_mul(buckets(a), buckets(b), cap, 0, tm)
    got = _graded_series(graded(a), [1, Q(1, 2), -3], cap)
    assert _by_grade(got) == naive_series(buckets(a), [1, Q(1, 2), -3], cap, 1, 0, tm)
    unit_plus = {**a, (0,): Q(1)}
    got = _graded_inverse(graded(unit_plus), cap)
    assert _by_grade(got) == naive_inverse(buckets(unit_plus), cap, 1, 0, tm)


def test_products_in_the_empty_context():
    ctx = VarContext(())
    two, three = MultiPoly.const(ctx, 2), MultiPoly.const(ctx, 3)
    assert two * three == 6 and two**3 == 8
    left = _packed({0: {(): Q(2)}, 1: {(): Q(1)}}, 0)
    right = _packed({0: {(): Q(3)}, 1: {(): Q(-1)}}, 0)
    assert _flat(_graded_dot(left, right)) == {(): 5}
    half = _graded({(): Q(1, 2)}, (), 4)
    assert _flat(_graded_mul(half, half, 4)) == {(): Q(1, 4)}
    assert _flat(graded_add(half, half)) == {(): Q(1)}


def test_graded_series_counts_its_sum_against_the_term_cap():
    # every power of x is one term, the sum of the six powers six terms
    x = _graded({(1, 0, 0): Q(1)}, WEIGHTS, 5)
    assert len(_flat(_graded_series(x, [1] * 6, 5, (6, "stage")))) == 6
    with pytest.raises(ResourceLimitError, match="stage exceeded 5 terms"):
        _graded_series(x, [1] * 6, 5, (5, "stage"))


def test_exponents_beyond_the_widest_digit_are_a_resource_error():
    big = {(2**62, 0, 0): Q(1)}
    with pytest.raises(ResourceLimitError, match="packed kernel"):
        _mul_terms(big, big)


def _substitute_per_term(poly, name, value):
    """Reference: every term, its exponent p of name cleared, times value^p."""
    if not isinstance(value, MultiPoly):
        value = MultiPoly.const(poly.ctx, value)
    i = poly.ctx.index(name)
    acc = MultiPoly.zero(poly.ctx)
    for e, c in poly.terms.items():
        acc = acc + MultiPoly(poly.ctx, {e[:i] + (0,) + e[i + 1:]: c}) * value ** e[i]
    return acc


# values: polynomials (the zero polynomial and ones holding the substituted
# variable among them), rationals including zero, and z1 -> z1 + z2 itself
value_st = st.one_of(
    terms_st.map(lambda t: MultiPoly(CTX, t)),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 5)),
    st.just(Z1 + Z2),
)


@given(terms_st, st.sampled_from(CTX.names), value_st)
@example({(2, 1, 0): Q(1), (1, 0, 3): Q(-3, 2), (0, 2, 0): Q(5)}, "z1", Z1 + Z2)
@example({(3, 1, 0): Q(2, 3), (0, 0, 1): Q(-1)}, "z1", Q(-7, 4))
@example({(1, 0, 2): Q(4), (0, 0, 0): Q(1)}, "z2", Z1 * H + 1)
def test_substitute_is_the_per_term_substitution(terms, name, value):
    p = MultiPoly(CTX, terms)
    got = p.substitute(name, value)
    assert got == _substitute_per_term(p, name, value)
    assert all(type(c) is Q and c for c in got.terms.values())


edge_value_st = st.one_of(
    edge_terms_st.map(lambda t: MultiPoly(CTX, t)),
    st.builds(Q, st.integers(-9, 9), st.integers(1, 5)),
)


@given(edge_terms_st, st.sampled_from(CTX.names), edge_value_st)
def test_substitute_with_negative_and_edge_exponents(terms, name, value):
    # the substituted variable keeps exponents 0..3 in the polynomial; the
    # others and the value carry negative and digit-edge exponents
    i = CTX.index(name)
    p = MultiPoly(CTX, {e[:i] + (min(abs(e[i]), 3),) + e[i + 1:]: c for e, c in terms.items()})
    assert p.substitute(name, value) == _substitute_per_term(p, name, value)


def test_graded_series_rejects_bad_constant_parts():
    with pytest.raises(JetresError, match="internal: series inverse requires grade-0"):
        _graded_inverse(_graded({UNIT: Q(2)}, WEIGHTS, 3), 3)


def test_series_of_different_shapes_are_an_internal_fault():
    # no caller multiplies series of different widths or truncations
    narrow = _graded({(1, 0): Q(1)}, (1, 1), 3)
    with pytest.raises(JetresError, match="internal: series of different widths"):
        _graded_mul(_graded({UNIT: Q(1)}, WEIGHTS, 3), narrow, 3)
    with pytest.raises(JetresError, match="internal: series of different widths"):
        _graded_mul(_graded({UNIT: Q(1)}, WEIGHTS, 3), _graded({UNIT: Q(1)}, WEIGHTS, 3, 0, 2), 3)


def test_segre_of_surface_multiplies_back():
    # inverse of (1+h)^4/(1+dh) for n=2 to cap 2: check c*s = 1 mod h^3
    h = MultiPoly.variable(HD_CTX, "h")
    d = MultiPoly.variable(HD_CTX, "d")
    c = ((1 + h) ** 4 * series_inverse(1 + d * h, 4)).truncate("h", 2)
    s = series_inverse(c, 6).truncate("h", 2)
    assert (c * s).truncate("h", 2) == MultiPoly.const(HD_CTX, 1)


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


WIDE = VarContext(("z1", "z2", "h", "d"))


@given(terms_st, terms_st, st.builds(Q, st.integers(-9, 9), st.integers(1, 5)),
       st.integers(0, 4), st.sampled_from(CTX.names))
@example({(1, 0, 0): Q(1, 2), UNIT: Q(1, 4)}, {UNIT: Q(1, 4)}, Q(2), 2, "z1")
def test_every_operation_keeps_the_canonical_form(a, b, q, exp, name):
    # integer numerators, none zero, over a denominator >= 1 that shares no
    # factor with all of them: sums whose denominators cancel, such as
    # (x/2 + 1/4) + 1/4 = (x + 1)/2, among them
    p, r = MultiPoly(CTX, a), MultiPoly(CTX, b)
    results = [p + r, p - r, p * r, p * q, p**exp, p.substitute(name, r),
               p.substitute(name, q), p.truncate(name, 1), p.recast(WIDE)]
    if not r.is_zero:
        results += [(p * r).divide_exact(r), (p + r).divide_exact(r)]
    for x in results:
        if x is not None:
            assert type(x.den) is int and x.den >= 1
            assert all(type(c) is int and c for c in x.num.values())
            assert gcd(x.den, *x.num.values()) == 1
    assert (p * 2) * Q(1, 2) == p and hash((p * 2) * Q(1, 2)) == hash(p)


@given(terms_st, st.permutations(WIDE.names), st.sampled_from(CTX.names))
@example({(1, 0, 0): Q(1, 2)}, list(WIDE.names), "z1")
@example({(1, 0, 0): Q(1, 2)}, list(WIDE.names), "z2")
def test_recast_needs_exactly_the_used_variables(terms, order, name):
    # a round trip through a wider context in any order gives p back; a
    # target may drop an unused variable, and one that drops a used
    # variable is refused by name
    p = MultiPoly(CTX, terms)
    back = p.recast(VarContext(tuple(order))).recast(CTX)
    assert back == p and hash(back) == hash(p)
    narrow = VarContext(tuple(x for x in order if x != name))
    if name in p.variables_used():
        with pytest.raises(ContextError, match=f"'{name}'"):
            p.recast(narrow)
    else:
        assert p.recast(narrow).recast(CTX) == p


def test_substitute_and_evaluate():
    p = Z1**2 + Z2 * H
    q = p.substitute("z1", Z2 + 1)
    assert q == (Z2 + 1) ** 2 + Z2 * H
    val = evaluate(p, {"z1": Q(2), "z2": Q(1, 2), "h": Q(3)})
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
    assert DPoly([0, 0, 0]).is_zero
    assert DPoly([1, 1]) * DPoly([0, 1]) == DPoly([0, 1, 1])


rational_st = st.builds(Q, st.integers(-9, 9), st.integers(1, 5))


@given(st.lists(rational_st, max_size=5), st.lists(rational_st, max_size=5), rational_st,
       rational_st)
def test_dpoly_evaluation_respects_the_ring_operations(a, b, c, x):
    p, q = DPoly(a), DPoly(b)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p * c)(x) == c * p(x)
    # trailing zeros are dropped
    assert DPoly(a + [0]) == p
    assert DPoly(a + [0]).degree() == p.degree()
