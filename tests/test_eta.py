"""Tests for Euler products, eta quotients, and theta sums.

The independent oracle for every product expansion is a naive truncated
product computed with plain list arithmetic, with no code shared with the
package.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overcubic.counting import _factorize, count_overpartitions, count_partitions_brute
from overcubic.eta import (
    _expand_normalized,
    _normalized_factors,
    _prime_power_base,
    _theta_terms,
    F_MINUS_Q_Q2,
    F_Q3_Q6,
    PHI_SPEC,
    PSI_NEG_SPEC,
    PSI_SPEC,
    EtaQuotient,
    EtaQuotientParseError,
    ThetaSpec,
    chi,
    expand_eta_quotient,
    expand_f,
    gen_cubic_gf,
    gen_overcubic_gf,
    parse_eta_quotient,
    phi,
    psi,
    psi_neg,
    theta_sum,
    toh_rhs,
    TOH_TERMS,
)
from overcubic.series import Series


def naive_euler_power(step, k, order, poly=None):
    """Truncated ``poly * prod_{j>=1} (1 - q^(j*step))^k`` via lists.

    ``poly`` defaults to 1. Each factor ``1 - q^s`` is applied on its own:
    for k >= 0 as a multiply, for k < 0 as the running sum along stride s
    that divides by it.
    """
    poly = [1] + [0] * order if poly is None else list(poly)
    for _ in range(abs(k)):
        j = 1
        while j * step <= order:
            s = j * step
            if k > 0:
                for e in range(order - s, -1, -1):
                    poly[e + s] -= poly[e]
            else:
                for e in range(s, order + 1):
                    poly[e] += poly[e - s]
            j += 1
    return poly


def naive_eta_quotient(factors, order):
    """Truncated ``prod f(n)^k`` over Z, one ``naive_euler_power`` per factor."""
    poly = [1] + [0] * order
    for n, k in factors:
        poly = naive_euler_power(n, k, order, poly)
    return poly


# -- expand_f -----------------------------------------------------------------


def test_expand_f_pentagonal_signs():
    assert expand_f(1, 1, 8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0)


@pytest.mark.parametrize(
    "step,k,order",
    [(1, 1, 40), (2, 1, 40), (1, 3, 30), (3, 2, 50), (4, 5, 60), (1, -1, 40), (2, -3, 50)],
)
def test_expand_f_matches_naive_product(step, k, order):
    assert list(expand_f(step, k, order).coeffs) == naive_euler_power(step, k, order)


def test_expand_f_zero_power():
    assert expand_f(5, 0, 6) == Series.one(6)


def test_expand_f_inverse_is_partition_series():
    got = expand_f(1, -1, 10)
    expected = [count_partitions_brute(n) for n in range(11)]
    assert list(got.coeffs) == expected
    assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_expand_f_negative_power_times_positive_is_one():
    order = 32
    prod = expand_f(3, -2, order) * expand_f(3, 2, order)
    assert prod == Series.one(order)


def test_expand_f_substitute_consistency():
    # replacing q -> q^2 in the expansion of f(1) gives f(2)
    order = 40
    assert expand_f(1, 1, order).substitute_power(2) == expand_f(2, 1, order)


def test_expand_f_rejects_bad_arguments():
    with pytest.raises(ValueError):
        expand_f(0, 1, 5)
    with pytest.raises(ValueError):
        expand_f(1, 1, -1)


# -- eta quotients ---------------------------------------------------------------


def test_eta_quotient_normalization():
    e = EtaQuotient([(2, 1), (1, -1), (2, 3), (5, 0), (1, 1)])
    assert e.factors == ((2, 4),)


def test_eta_quotient_rejects_bad_subscript():
    with pytest.raises(ValueError):
        EtaQuotient([(0, 1)])


def test_overpartition_counts():
    got = expand_eta_quotient([(2, 1), (1, -2)], 3)
    assert got.coeffs == (1, 2, 4, 8)


def test_empty_quotient_is_one():
    assert expand_eta_quotient([], 5) == Series.one(5)


def test_cancelling_quotient_is_one():
    assert expand_eta_quotient([(1, 1), (1, -1)], 30) == Series.one(30)


def test_expand_with_modulus_matches_reduction():
    factors = [(4, 2), (1, -2), (2, -3)]
    order = 60
    exact = expand_eta_quotient(factors, order)
    for m in (2, 3, 4, 6, 12):
        assert expand_eta_quotient(factors, order, modulus=m) == exact.reduce_mod(m)


# -- the expansion engine against the naive product --------------------------------

_quotients = st.lists(
    st.tuples(st.integers(1, 12), st.integers(-12, 12)), max_size=4
)


@settings(max_examples=60, deadline=None)
@given(_quotients, st.integers(0, 60))
def test_expansion_matches_naive_product_over_z(factors, order):
    got = expand_eta_quotient(factors, order)
    assert list(got.coeffs) == naive_eta_quotient(factors, order)


@settings(max_examples=120, deadline=None)
@given(_quotients, st.integers(0, 60), st.sampled_from([2, 4, 8, 3, 9, 27, 25, 6, 12]))
def test_expansion_matches_naive_product_mod_m(factors, order, m):
    got = expand_eta_quotient(factors, order, modulus=m)
    assert list(got.coeffs) == [c % m for c in naive_eta_quotient(factors, order)]


@settings(max_examples=120, deadline=None)
@given(_quotients, st.integers(0, 80), st.sampled_from([2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49]))
def test_reduced_exponents_match_z_expansion(factors, order, pa):
    # under a prime power the exponents are rewritten before expanding
    exact = expand_eta_quotient(factors, order)
    assert expand_eta_quotient(factors, order, modulus=pa) == exact.reduce_mod(pa)


def test_exponent_reduction_mod_4():
    # the c = 10 overlined series f4^9/(f1^2*f2^17) is f4/(f1^2*f2) mod 4:
    # 4 sparse passes in place of 28
    c10 = EtaQuotient([(4, 9), (1, -2), (2, -17)])
    assert _normalized_factors(c10, 100, 4) == [(1, -2), (2, -1), (4, 1)]
    assert _normalized_factors(c10, 100, 12) == [(1, -2), (2, -17), (4, 9)]
    assert _normalized_factors(c10, 100, None) == [(1, -2), (2, -17), (4, 9)]
    # subscripts beyond the order drop out: f(n) = 1 + O(q^n)
    assert _normalized_factors(c10, 3, 4) == [(1, -2), (2, -1)]


@pytest.mark.parametrize("m,k", [(m, k) for m in (8, 9) for k in range(1 - m, m)])
def test_exponent_reduction_never_adds_passes(m, k):
    # mod 8, f1^5 must not become f1^-3*f2^4: 7 passes in place of 5
    factors = _normalized_factors(EtaQuotient([(1, k)]), 60, m)
    assert sum(abs(e) for _, e in factors) <= abs(k)
    assert expand_eta_quotient([(1, k)], 60, modulus=m) == expand_f(1, k, 60).reduce_mod(m)


def test_large_prime_modulus_expands_promptly():
    # 2**61 - 1 is prime: factorizing it by trial division would not finish
    m = 2**61 - 1
    got = expand_eta_quotient([(2, 1), (1, -2)], 30, modulus=m)
    assert got == expand_eta_quotient([(2, 1), (1, -2)], 30).reduce_mod(m)
    # an exponent above m/2 makes normalization ask whether m is a prime
    # power: f1^(-2^61) is f1^-1 * f(m)^-1, and f(m) is 1 at order 30
    got = expand_eta_quotient([(1, -(2**61))], 30, modulus=m)
    assert got == expand_f(1, -1, 30).reduce_mod(m)


def test_prime_power_base_matches_factorization():
    for m in range(2, 5000):
        primes = _factorize(m)
        expected = next(iter(primes)) if len(primes) == 1 else None
        assert _prime_power_base(m) == expected
    # strong pseudoprimes to the bases up to 7 and up to 23, and their powers
    for pseudo in (3215031751, 3825123056546413051):
        assert _prime_power_base(pseudo) is None
        assert _prime_power_base(pseudo**2) is None
    assert _prime_power_base(2**61 - 1) == 2**61 - 1
    assert _prime_power_base(3**40) == 3
    assert _prime_power_base(2**81) == 2
    assert _prime_power_base((2**31 - 1) ** 2) == 2**31 - 1
    assert _prime_power_base(6**20) is None
    # past the deterministic range nothing is decided, so nothing is rewritten
    assert _prime_power_base(2**89 - 1) is None


def test_exponent_reduction_mod_3_chain():
    # c = 29: f4^28/(f1^2*f2^55) mod 3 takes 7 passes in place of 85; the
    # rewrite cascades f6^-18 -> f18^-6 -> f54^-2 -> f54*f162^-1 and
    # f12^9 -> f36^3 -> f108
    c29 = EtaQuotient([(4, 28), (1, -2), (2, -55)])
    assert _normalized_factors(c29, 1000, 3) == [
        (1, 1), (2, -1), (3, -1), (4, 1), (54, 1), (108, 1), (162, -1),
    ]


# -- the expansion memo ------------------------------------------------------------

_memo_requests = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 40),
        st.sampled_from([None, 2, 3, 4, 6, 8, 9, 12]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_quotients, min_size=1, max_size=3), _memo_requests)
def test_memoized_expansion_matches_uncached(quotients, requests):
    # a few quotients requested at several orders and moduli, each twice, so
    # the second is a hit and an entry served under the wrong key would show
    for idx, order, m in requests:
        factors = quotients[idx % len(quotients)]
        key = tuple(_normalized_factors(EtaQuotient(factors), order, m))
        fresh = _expand_normalized.__wrapped__(key, order, m)
        for _ in range(2):
            assert expand_eta_quotient(factors, order, modulus=m) == fresh


def test_memo_keeps_moduli_apart():
    # f2/f1^2 normalizes to the same factors over Z, mod 4 and mod 12: only
    # the modulus tells the requests apart, and no entry is reduced to serve
    # another modulus
    _expand_normalized.cache_clear()
    exact = expand_eta_quotient([(2, 1), (1, -2)], 60)
    mod12 = expand_eta_quotient([(2, 1), (1, -2)], 60, modulus=12)
    mod4 = expand_eta_quotient([(2, 1), (1, -2)], 60, modulus=4)
    assert (exact.modulus, mod12.modulus, mod4.modulus) == (None, 12, 4)
    assert mod4 == mod12.reduce_mod(4) == exact.reduce_mod(4)
    assert gen_overcubic_gf(1, 60, modulus=4) is mod4
    info = _expand_normalized.cache_info()
    assert (info.misses, info.hits) == (3, 1)


# -- grammar ---------------------------------------------------------------------


def test_parse_simple():
    assert parse_eta_quotient("f2/f1^2").factors == ((1, -2), (2, 1))


def test_parse_mixed_notation():
    # /fN^k and *fN^-k both mean division
    a = parse_eta_quotient("f4^1/f1^2*f2^-1")
    b = parse_eta_quotient("f4/f1^2/f2")
    assert a == b
    assert a.factors == ((1, -2), (2, -1), (4, 1))


def test_parse_zero_power():
    assert parse_eta_quotient("f1^0").factors == ()


@pytest.mark.parametrize(
    "text,pos",
    [("", 0), ("g2", 0), ("*f2", 0), ("f2//f1", 2), ("f2^", 2), ("f2 f3", 2), ("f2/x", 2)],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(EtaQuotientParseError) as exc_info:
        parse_eta_quotient(text)
    assert exc_info.value.position == pos
    assert f"position {pos}" in str(exc_info.value)


def test_parse_f0_rejected():
    with pytest.raises(EtaQuotientParseError):
        parse_eta_quotient("f0^2")


# -- theta sums -------------------------------------------------------------------


def test_theta_triangular_exponents():
    got = theta_sum(PSI_SPEC, 10)
    assert got.coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)


def test_theta_square_exponents():
    got = theta_sum(PHI_SPEC, 9)
    assert got.coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)


def test_theta_spec_validation():
    with pytest.raises(ValueError):
        ThetaSpec(1, 0, 1, 0)
    with pytest.raises(ValueError):
        ThetaSpec(2, 1, 1, 3)
    with pytest.raises(ValueError):
        ThetaSpec(1, -1, 1, 3)


def test_theta_order_zero():
    assert theta_sum(PSI_SPEC, 0).coeffs == (1,)


def test_psi_has_no_exponents_two_mod_three():
    # triangular numbers are never congruent to 2 mod 3
    assert psi(30).extract_progression(3, 2).is_zero()


def test_theta_bilateral_signs():
    # f(-q, q^2): exponents (3k^2 - k)/2, sign (-1)^(k(k+1)/2)
    got = theta_sum(F_MINUS_Q_Q2, 7)
    expected = [0] * 8
    for k in range(-3, 4):
        e = (3 * k * k - k) // 2
        if e <= 7:
            expected[e] += (-1) ** ((k * (k + 1) // 2) % 2)
    assert list(got.coeffs) == expected


# -- the theta walker ----------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [PSI_SPEC, PSI_NEG_SPEC, PHI_SPEC, F_MINUS_Q_Q2, F_Q3_Q6, ThetaSpec(1, 1, 1, 0)],
)
@pytest.mark.parametrize("order", [0, 1, 2, 37, 300])
def test_theta_terms_are_the_nonzero_coefficients_of_theta_sum(spec, order):
    coeffs = theta_sum(spec, order).coeffs
    assert _theta_terms(spec, order) == [(e, c) for e, c in enumerate(coeffs) if c]


def test_theta_terms_merge_colliding_exponents():
    # k = 0 and k = -1 of f(q, 1) both land on q^0
    assert _theta_terms(ThetaSpec(1, 1, 1, 0), 3) == [(0, 2), (1, 2), (3, 2)]
    # phi's k and -k share the exponent k^2
    assert _theta_terms(PHI_SPEC, 30) == [(0, 1)] + [(k * k, 2) for k in range(1, 6)]
    # in f(q, -q) they cancel for odd k, and no zero term is kept
    assert _theta_terms(ThetaSpec(1, 1, -1, 1), 40) == [(0, 1), (4, -2), (16, 2), (36, -2)]


@pytest.mark.parametrize("step", range(1, 8))
def test_euler_factor_terms_match_naive_product(step):
    # f(n) = f(-q^n, -q^(2n)); a truncated product is a prefix of a longer
    # one, so one naive product at order 300 serves every smaller order
    naive = naive_euler_power(step, 1, 300)
    spec = ThetaSpec(-1, step, -1, 2 * step)
    for order in range(301):
        terms = _theta_terms(spec, order)
        assert terms[0] == (0, 1)
        assert terms[1:] == [(e, c) for e, c in enumerate(naive[1 : order + 1], 1) if c]


# -- named quotients vs theta sums --------------------------------------------------


@pytest.mark.parametrize(
    "spec,quotient",
    [
        (PSI_SPEC, psi),
        (PSI_NEG_SPEC, psi_neg),
        (PHI_SPEC, phi),
    ],
)
def test_named_forms_agree_with_theta_sums(spec, quotient):
    order = 500
    assert theta_sum(spec, order) == quotient(order)


def test_f_neg_q_q2_product_sum_agreement():
    # the bilateral sum for f(-q, q^2) against its quotient form
    # phi(q^3)/chi(q), compared multiplied through by chi
    order = 500
    lhs = theta_sum(F_MINUS_Q_Q2, order) * chi(order)
    assert lhs == phi(order).substitute_power(3)


def test_psi_neg_is_sign_flip_of_psi():
    order = 120
    flipped = Series(
        [(-1) ** (n % 2) * c for n, c in enumerate(psi(order).coeffs)]
    )
    assert psi_neg(order) == flipped


def test_chi_times_f1_f4_is_f2_squared():
    order = 120
    lhs = chi(order) * (expand_f(1, 1, order) * expand_f(4, 1, order))
    assert lhs == expand_f(2, 2, order)


def test_f_neg_q_q2_identity_small():
    order = 100
    lhs = theta_sum(F_MINUS_Q_Q2, order) * chi(order)
    assert lhs == phi(order).substitute_power(3)


def test_psi_dissection_small():
    order = 90
    rhs = theta_sum(F_Q3_Q6, order) + psi(order).substitute_power(9).shift(1)
    assert psi(order) == rhs


# -- named generating functions ------------------------------------------------------


def test_gen_cubic_c1_is_partition_series():
    order = 30
    assert gen_cubic_gf(1, order) == expand_f(1, -1, order)


def test_gen_cubic_known_value():
    assert gen_cubic_gf(2, 6)[4] == 9


def test_gen_cubic_mod3_progression():
    series = gen_cubic_gf(2, 95)
    for n in range(31):
        assert series[3 * n + 2] % 3 == 0


def test_gen_overcubic_c1_is_overpartition_series():
    order = 40
    got = gen_overcubic_gf(1, order)
    assert got == expand_eta_quotient([(2, 1), (1, -2)], order)
    assert got[3] == 8
    for n in range(order + 1):
        assert got[n] == count_overpartitions(n)


def test_gen_overcubic_constant_term():
    for c in (1, 2, 5, 9):
        assert gen_overcubic_gf(c, 4)[0] == 1


def test_gen_overcubic_modulus_matches_reduction():
    order = 50
    for builder in (gen_overcubic_gf, gen_cubic_gf):
        for c in (1, 2, 3, 5):
            exact = builder(c, order)
            for m in (4, 6):
                assert builder(c, order, modulus=m) == exact.reduce_mod(m)


def test_gf_color_validation():
    with pytest.raises(ValueError):
        gen_cubic_gf(0, 5)
    with pytest.raises(ValueError):
        gen_overcubic_gf(0, 5)


# -- the 3-dissection of f2/(f1*f4) ---------------------------------------------------


def test_toh_constant_term():
    assert toh_rhs(10)[0] == 1


def test_toh_terms_have_disjoint_residue_support():
    order = 120
    for shift_by, term in enumerate(TOH_TERMS):
        expansion = term.expand(order).shift(shift_by)
        for r in range(3):
            piece = expansion.extract_progression(3, r)
            if r != shift_by:
                assert piece.is_zero()
    # in particular removing the residue-0 term leaves nothing at 3n
    total = toh_rhs(order) - TOH_TERMS[0].expand(order)
    assert total.extract_progression(3, 0).is_zero()


def test_toh_identity_small():
    order = 150
    assert toh_rhs(order) == expand_eta_quotient([(2, 1), (1, -1), (4, -1)], order)
