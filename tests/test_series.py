"""Contract and property tests for the truncated power-series ring."""

import random
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overcubic.series import (
    NonInvertibleError, Series, _divide_sparse, _kronecker_mod, _kronecker_z, _pack, _slot_width, _unpack,
)


# -- construction -------------------------------------------------------------


def test_constant_basic():
    s = Series.constant(1, 5)
    assert s.coeffs == (1, 0, 0, 0, 0, 0)
    assert s.order == 5
    assert s.modulus is None


def test_constant_reduces_mod():
    s = Series.constant(7, 3, modulus=4)
    assert s.coeffs == (3, 0, 0, 0)


def test_zero_series():
    assert Series.constant(0, 2).coeffs == (0, 0, 0)
    assert Series.zero(2).is_zero()
    with pytest.raises(ValueError, match="constant coefficient"):
        Series([])


def test_modulus_below_two_rejected():
    with pytest.raises(ValueError):
        Series.constant(1, 3, modulus=1)
    with pytest.raises(ValueError):
        Series([1, 2, 3], modulus=0)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        Series.constant(1, -1)
    assert Series.monomial(2, 3, coeff=5).coeffs == (0, 0, 5, 0)
    with pytest.raises(ValueError, match=r"exponent 4 outside \[0, 3\]"):
        Series.monomial(4, 3)


def test_canonical_residues():
    s = Series([-1, 5, 3], modulus=3)
    assert s.coeffs == (2, 2, 0)


# -- coefficient access --------------------------------------------------------


def test_coefficient_read():
    s = Series([1, 2])
    assert s.coefficient(1) == 2
    assert s[0] == 1


def test_coefficient_past_order_is_error():
    s = Series([1, 2])
    with pytest.raises(IndexError):
        s.coefficient(2)
    with pytest.raises(IndexError):
        s[-1]


def test_nonzero_terms_and_str():
    s = Series([3, 1, 0, -2])
    assert list(s.nonzero_terms()) == [(0, 3), (1, 1), (3, -2)]
    assert str(s) == "3 + q + -2*q^3 + O(q^4)"
    assert str(Series.zero(2)) == "0 + O(q^3)"
    # eight terms at most, then an ellipsis
    assert str(Series([1] * 12)) == (
        "1 + q + q^2 + q^3 + q^4 + q^5 + q^6 + q^7 + ... + O(q^12)"
    )
    # repr shows eight coefficients, then an ellipsis from order 8 on
    assert repr(Series([1, 2], modulus=5)) == "Series([1, 2], order=1, mod 5)"
    assert repr(Series(range(9))) == "Series([0, 1, 2, 3, 4, 5, 6, 7, ...], order=8)"


def test_agrees_on_the_common_window():
    a, b = Series([1, 2, 3, 4]), Series([1, 2, 5])
    assert a.agrees(b, up_to=1)
    assert not a.agrees(b)
    assert a.agrees(Series([1, 2, 3]))
    with pytest.raises(ValueError, match="beyond common order 2"):
        a.agrees(b, up_to=3)
    with pytest.raises(ValueError):
        a.agrees(Series([1, 2, 3, 4], modulus=5))


def test_equal_series_hash_alike():
    a, b = Series([1, 2, 3], modulus=5), Series([6, 7, 8], modulus=5)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Series([1, 2, 3])}) == 2
    # a series never equals a plain sequence of its coefficients
    assert Series([1, 2, 3]) != (1, 2, 3)


# -- add / mul ----------------------------------------------------------------


def test_mul_difference_of_squares():
    a = Series([1, 1, 0])  # 1 + q
    b = Series([1, -1, 0])  # 1 - q
    assert (a * b).coeffs == (1, 0, -1)


def test_mul_by_one_is_identity():
    s = Series([3, 1, 4, 1, 5])
    assert s * Series.one(s.order) == s


def test_add_negate_gives_zero():
    s = Series([3, 1, 4, 1, 5], modulus=7)
    assert (s + (-s)).is_zero()


def test_mixed_order_truncates_to_smaller():
    a = Series([1, 1, 1, 1])
    b = Series([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_mismatched_moduli_rejected():
    a = Series([1, 2], modulus=3)
    b = Series([1, 2], modulus=4)
    c = Series([1, 2])
    for x, y in [(a, b), (a, c)]:
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y
    # an operand that is no series is left to Python, which refuses it
    for operation in (lambda: c + 1, lambda: c - 1, lambda: c * 1.5, lambda: 1.5 * c):
        with pytest.raises(TypeError):
            operation()


def test_scalar_multiplication():
    s = Series([1, 2, 3])
    assert (5 * s).coeffs == (5, 10, 15)
    assert (s * 5).coeffs == (5, 10, 15)
    assert (2 * Series([1, 2], modulus=3)).coeffs == (2, 1)


# -- invert / pow --------------------------------------------------------------


def test_invert_geometric():
    inv = Series([1, -1, 0, 0, 0]).invert()
    assert inv.coeffs == (1, 1, 1, 1, 1)


def test_invert_one():
    assert Series.one(4).invert() == Series.one(4)


def test_invert_requires_unit():
    with pytest.raises(NonInvertibleError):
        Series([2, 1, 1]).invert()
    with pytest.raises(NonInvertibleError):
        Series([2, 1, 1], modulus=4).invert()


def test_invert_mod_unit():
    s = Series([3, 1, 2], modulus=4)  # 3 * 3 = 9 = 1 mod 4
    assert (s * s.invert()) == Series.one(2, modulus=4)


def test_invert_random_units():
    # 200 random unit series at order 64, over Z and mod small m
    rng = random.Random(20260809)
    one = Series.one(64)
    for trial in range(200):
        coeffs = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(64)]
        s = Series(coeffs)
        assert s * s.invert() == one
        if trial % 4 == 0:
            m = rng.choice([3, 5, 7, 11])
            t = Series([c % m for c in coeffs], m)
            if t[0] != 0:
                assert t * t.invert() == Series.one(64, m)


def test_pow_square():
    assert (Series([1, 1, 0]) ** 2).coeffs == (1, 2, 1)


def test_pow_zero_is_one():
    s = Series([5, 3, 2])  # non-unit constant term is fine for k = 0
    assert s**0 == Series.one(2)
    with pytest.raises(TypeError):
        s**0.5


def test_pow_negative_matches_invert():
    s = Series([1, -1, 0, 0])
    assert s**-1 == s.invert()
    assert s**-3 == (s.invert() * s.invert()) * s.invert()


# -- the sparse division kernel against the quadratic recurrence ----------------


def invert_reference(s):
    """``1/s`` by the O(order * nonzero terms) recurrence ``Series.invert``
    ran before the sparse kernel replaced it."""
    c0 = s.coeffs[0]
    m = s.modulus
    inv0 = c0 if m is None else pow(c0, -1, m)
    n = s.order
    nz = [(i, c) for i, c in enumerate(s.coeffs) if c and i > 0]
    out = [0] * (n + 1)
    out[0] = inv0 if m is None else inv0 % m
    for j in range(1, n + 1):
        acc = 0
        for i, c in nz:
            if i > j:
                break
            acc += c * out[j - i]
        val = -inv0 * acc
        out[j] = val if m is None else val % m
    return Series(out, m)


@st.composite
def _unit_series(draw, modulus, values):
    """A unit series of order 0..40 whose support lies on the multiples of
    a drawn step, so that steps above 1 take the q^g walk of ``invert``."""
    order = draw(st.integers(0, 40))
    step = draw(st.sampled_from([1, 2, 3, 7]))
    if modulus is None:
        c0 = draw(st.sampled_from([1, -1]))
    else:
        c0 = draw(st.integers(1, modulus - 1).filter(lambda c: gcd(c, modulus) == 1))
    rest = draw(st.lists(st.one_of(st.just(0), values), min_size=order, max_size=order))
    return Series([c0] + [c if i % step == 0 else 0 for i, c in enumerate(rest, 1)], modulus)


# Coefficients of 3, 40 and 200 bits, signed.
@given(
    st.sampled_from([3, 40, 200]).flatmap(
        lambda bits: _unit_series(None, st.integers(-(2**bits), 2**bits))
    )
)
@example(Series([1]))
@example(Series([-1]))
@example(Series([-1, 0, 5, 0, 0, 0, -2**70]))
def test_invert_matches_reference_over_z(s):
    inv = s.invert()
    assert inv == invert_reference(s)
    assert s * inv == Series.one(s.order)


# A prime, a large prime, prime powers and the composite 12.
@given(
    st.sampled_from([7, 97, 2**61 - 1, 8, 27, 12]).flatmap(
        lambda m: _unit_series(m, st.integers(0, m - 1))
    )
)
@example(Series([5], 12))
@example(Series([7, 0, 0, 11, 0, 0, 6], 12))
def test_invert_matches_reference_mod_m(s):
    inv = s.invert()
    assert inv == invert_reference(s)
    assert s * inv == Series.one(s.order, s.modulus)


@st.composite
def _division_case(draw):
    """Coefficients, a divisor's ``(t, w)`` terms and a modulus: weights
    are +-1 or any other nonzero integer."""
    m = draw(st.sampled_from([None, 4, 12, 97]))
    order = draw(st.integers(0, 40))
    values = st.integers(-(2**80), 2**80) if m is None else st.integers(0, m - 1)
    coeffs = draw(st.lists(values, min_size=order + 1, max_size=order + 1))
    exponents = sorted(draw(st.sets(st.integers(1, order), max_size=12))) if order else []
    weights = st.one_of(st.sampled_from([1, -1]), st.integers(-(2**40), 2**40).filter(bool))
    return coeffs, [(t, draw(weights)) for t in exponents], m


@given(_division_case())
def test_divide_sparse_times_divisor_is_input(case):
    coeffs, terms, m = case
    divisor = [1] + [0] * (len(coeffs) - 1)
    for t, w in terms:
        divisor[t] = w
    quotient = Series(_divide_sparse(coeffs, terms, m), m)
    assert quotient * Series(divisor, m) == Series(coeffs, m)


def schoolbook_divide(coeffs, terms, m):
    """``coeffs / (1 + sum w*q^t)``, one exponent at a time, every term
    multiplied by its weight: ``out[e] = coeffs[e] - sum(w * out[e - t])``."""
    out = []
    for e, c in enumerate(coeffs):
        acc = c - sum(w * out[e - t] for t, w in terms if t <= e)
        out.append(acc if m is None else acc % m)
    return out


# the weights of a pentagonal factor, of a theta factor phi(-q^n), and a mix
# in which the kernel's gather pair takes the first term's magnitude and
# the weighted gather every other weight
_WEIGHT_SETS = [(1, -1), (2, -2), (1, -1, 2, -2, 3, -7, 2**40)]


@settings(max_examples=200)
@given(
    st.sampled_from([None, 4, 12, 97, 2**61 - 1]),
    st.sampled_from(_WEIGHT_SETS),
    st.integers(0, 60),
    st.data(),
)
def test_divide_sparse_matches_schoolbook_division(m, weights, order, data):
    values = st.integers(-(2**80), 2**80) if m is None else st.integers(0, m - 1)
    coeffs = data.draw(st.lists(values, min_size=order + 1, max_size=order + 1))
    exponents = sorted(data.draw(st.sets(st.integers(1, order), max_size=15))) if order else []
    terms = [(t, data.draw(st.sampled_from(weights))) for t in exponents]
    assert _divide_sparse(coeffs, terms, m) == schoolbook_divide(coeffs, terms, m)


# -- substitution / extraction --------------------------------------------------


def test_substitute_power_spreads_exponents():
    s = Series([1, 1, 1, 0, 0, 0, 0])
    assert s.substitute_power(3).coeffs == (1, 0, 0, 1, 0, 0, 1)


def test_substitute_power_identity():
    s = Series([4, 5, 6])
    assert s.substitute_power(1) == s
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        s.substitute_power(0)


def test_substitute_power_explicit_order():
    s = Series([1, 2])
    assert s.substitute_power(3, order=5).coeffs == (1, 0, 0, 2, 0, 0)
    with pytest.raises(ValueError):
        s.substitute_power(3, order=6)  # q^6 would need self[2]


def test_extract_progression_reads_off():
    s = Series(list(range(9)))  # sum n q^n up to order 8
    assert s.extract_progression(3, 2).coeffs == (2, 5, 8)


def test_extract_progression_identity():
    s = Series([9, 8, 7])
    assert s.extract_progression(1, 0) == s


def test_extract_progression_bad_residue():
    s = Series([1, 2, 3, 4])
    with pytest.raises(ValueError):
        s.extract_progression(3, 3)
    with pytest.raises(ValueError):
        s.extract_progression(3, -1)
    with pytest.raises(ValueError):
        Series([1]).extract_progression(2, 1)  # start beyond order
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        s.extract_progression(0, 0)


def test_shift():
    s = Series([1, 2, 3])
    assert s.shift(1).coeffs == (0, 1, 2)
    assert s.shift(0) == s
    assert s.shift(1, order=3).coeffs == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        s.shift(1, order=4)  # would need self[3]
    with pytest.raises(ValueError, match="non-negative, got -1"):
        s.shift(-1)
    with pytest.raises(ValueError, match="order 2 cannot hold a shift by 3"):
        s.shift(3, order=2)


def test_truncate():
    s = Series([1, 2, 3])
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        s.truncate(5)


# -- reduce_mod -----------------------------------------------------------------


def test_reduce_mod_basic():
    assert Series([1, -1]).reduce_mod(3).coeffs == (1, 2)


def test_reduce_mod_tower():
    s = Series([17, -5, 23, 8])
    assert s.reduce_mod(12).reduce_mod(3) == s.reduce_mod(3)
    assert s.reduce_mod(12).reduce_mod(4) == s.reduce_mod(4)


def test_reduce_mod_incompatible():
    s = Series([1, 2], modulus=12)
    with pytest.raises(ValueError):
        s.reduce_mod(5)


# -- hypothesis properties -------------------------------------------------------

_moduli = st.sampled_from([None, 2, 3, 4, 6, 12])


@st.composite
def _series(draw, max_order=32, modulus=None):
    order = draw(st.integers(0, max_order))
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)
    )
    return Series(coeffs, modulus)


@st.composite
def _series_triple(draw):
    m = draw(_moduli)
    return (draw(_series(modulus=m)), draw(_series(modulus=m)), draw(_series(modulus=m)))


@given(_series_triple())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_series(), st.integers(1, 6))
def test_extract_after_substitute_is_truncated_identity(s, k):
    # substituting q -> q^k then reading residue class 0 recovers the
    # original coefficients on the window that survived truncation
    back = s.substitute_power(k).extract_progression(k, 0)
    assert back == s.truncate(s.order // k)


def _assert_canonical(s):
    # the reindexing operators skip re-reducing: their results must still
    # equal a series built and reduced from scratch
    assert s == Series(list(s.coeffs), s.modulus)


@given(st.sampled_from([None, 4, 12]).flatmap(lambda m: _series(modulus=m)), st.integers(1, 6))
def test_dissection_completeness(s, k):
    # the k progression extracts jointly determine the series: reassemble
    # with substitution and monomial shifts and compare exactly
    n = s.order
    total = Series.zero(n, s.modulus)
    for r in range(min(k, n + 1)):
        piece = s.extract_progression(k, r)
        spread = piece.substitute_power(k, order=n - r)
        shifted = spread.shift(r, order=n)
        for part in (piece, spread, shifted, s.truncate(n // k)):
            _assert_canonical(part)
        total = total + shifted
    assert total == s


@given(_series(modulus=None), _series(modulus=None), st.sampled_from([2, 3, 4, 6, 12]))
def test_reduce_mod_is_ring_homomorphism(a, b, m):
    assert (a * b).reduce_mod(m) == a.reduce_mod(m) * b.reduce_mod(m)
    assert (a + b).reduce_mod(m) == a.reduce_mod(m) + b.reduce_mod(m)


@settings(max_examples=60)
@given(_series(max_order=24))
def test_substitute_then_scale_exponents(s):
    sub = s.substitute_power(2)
    for e in range(sub.order + 1):
        if e % 2:
            assert sub[e] == 0
        else:
            assert sub[e] == s[e // 2]


# -- Kronecker product against the schoolbook convolution -------------------------


def schoolbook(a, b, modulus=None):
    """Truncated Cauchy product of two equal-length lists, term by term."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out if modulus is None else [c % modulus for c in out]


# At orders up to 40 the product slots of these moduli take 1 byte (2, 3),
# 1-2 bytes (4, 6, 12), 2-3 bytes (97, the strided copies at 3), 6 bytes
# (2**20 + 7, strided) and 11 bytes (2**40 + 15, wider than any array item).
_KRONECKER_MODULI = [2, 3, 4, 6, 12, 97, 2**20 + 7, 2**40 + 15]


@st.composite
def _operand_pair(draw, values):
    order = draw(st.integers(0, 40))
    same_length = st.lists(values, min_size=order + 1, max_size=order + 1)
    return draw(same_length), draw(same_length)


# Coefficient sizes whose product slots take up to 2, 4, 8, 11 and 51 bytes.
@given(
    st.sampled_from([3, 10, 25, 40, 200]).flatmap(
        lambda bits: _operand_pair(st.integers(-(2**bits), 2**bits))
    )
)
def test_kronecker_product_matches_schoolbook_over_z(pair):
    a, b = pair
    assert list((Series(a) * Series(b)).coeffs) == schoolbook(a, b)


@given(
    st.sampled_from(_KRONECKER_MODULI).flatmap(
        lambda m: st.tuples(st.just(m), _operand_pair(st.integers(0, m - 1)))
    )
)
def test_kronecker_product_matches_schoolbook_mod_m(case):
    m, (a, b) = case
    assert list((Series(a, m) * Series(b, m)).coeffs) == schoolbook(a, b, m)


def test_kronecker_product_extreme_signs():
    # all-negative and alternating operands at the edge of a slot width
    big = 2**64 - 1
    for a, b in [([-big] * 9, [-big] * 9), ([big, -big] * 5, [-big, big] * 5)]:
        assert list((Series(a) * Series(b)).coeffs) == schoolbook(a, b)
    m = 2**40 + 15
    full = [m - 1] * 50
    assert list((Series(full, m) * Series(full, m)).coeffs) == schoolbook(full, full, m)


@given(
    st.integers(1, 17).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, 2 ** (8 * w) - 1), max_size=40))
    )
)
@example((3, [2**24 - 1, 0, 1]))
@example((7, [2**56 - 1] * 3))
def test_pack_round_trips_at_every_width(case):
    # slots of 1, 2, 4 and 8 bytes are array items, of 3, 5, 6 and 7 bytes
    # strided copies of 8-byte items, wider ones to_bytes: each holds every
    # value of its bytes, the largest included
    width, values = case
    packed = _pack(values, width)
    assert packed == sum(v << (8 * width * i) for i, v in enumerate(values))
    assert _unpack(packed, width, len(values)) == values


@pytest.mark.parametrize("width", [3, 7, 8])
def test_kronecker_products_at_a_byte_boundary(width):
    # a slot bound that lands on its last byte's top bit, and one bit past
    # it, where the slot takes one more byte: both kernels against the
    # schoolbook, on operands whose top sums fill the slot
    count = 64
    m = isqrt((2 ** (8 * width) - 1) // count) + 1
    rng = random.Random(width)
    for n, w in ((count, width), (count + 1, width + 1)):
        assert _slot_width(((m - 1) * (m - 1) * n).bit_length()) == w
        for a, b in (([m - 1] * n, [m - 1] * n),
                     ([rng.randrange(m) for _ in range(n)], [rng.choice((0, m - 1)) for _ in range(n)])):
            assert _kronecker_mod(a, b, m) == schoolbook(a, b, m)
    # over Z the slot holds twice the bound, signed
    x = isqrt((2 ** (8 * width) - 1) // (2 * count))
    for n, w in ((count, width), (count + 1, width + 1)):
        assert _slot_width((2 * x * x * n).bit_length()) == w
        for a, b in (([-x] * n, [-x] * n), ([x, -x] * (n // 2) + [x] * (n % 2), [-x] * n),
                     ([rng.randint(-x, x) for _ in range(n)], [rng.choice((-x, x)) for _ in range(n)])):
            assert _kronecker_z(a, b) == schoolbook(a, b)
