"""Tests for the enumeration and DP counting layer.

The brute-force enumerators are the package's ground truth, so the key
assertions here are (a) brute force against hand-checked and frozen
values, and (b) the DP and generating-function routes against brute force.
"""

import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overcubic.counting as counting_module
from overcubic.counting import (
    BRUTE_FORCE_CAP,
    ColoredOverPartition,
    ColoredPart,
    EngineInconsistencyError,
    chi_distinct,
    count_gen_cubic,
    count_gen_cubic_brute,
    count_gen_overcubic_brute,
    count_gen_overcubic_dp,
    count_overpartitions,
    count_partitions,
    count_partitions_brute,
    decompose,
    iter_overcubic_partitions,
    tau_even,
    tau_odd,
)
from overcubic.eta import gen_cubic_gf, gen_overcubic_gf
from overcubic.verify import expected_mod4_residue

# Values computed by count_gen_overcubic_brute itself and frozen as
# regression constants; abar_2(2) = 6 and abar_2(4) = 26 were additionally
# checked by listing the partitions by hand.
ABAR_2 = [1, 2, 6, 12, 26, 48, 92, 160, 282, 470, 784]
ABAR_3 = [1, 2, 8, 16, 42, 80, 176, 320, 632]


# -- plain partitions -----------------------------------------------------------


def test_partition_small_values():
    assert count_partitions(0) == 1
    assert count_partitions(4) == 5  # 4, 3+1, 2+2, 2+1+1, 1+1+1+1
    assert [count_partitions(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_partition_dp_matches_brute():
    for n in range(21):
        assert count_partitions(n) == count_partitions_brute(n)


@pytest.mark.parametrize("step,modulus", [(5, 5), (7, 7), (11, 11)])
def test_ramanujan_congruences_by_counting(step, modulus):
    offset = {5: 4, 7: 5, 11: 6}[modulus]
    for n in range(21):
        assert count_partitions(step * n + offset) % modulus == 0


# -- overpartitions --------------------------------------------------------------


def test_overpartition_small_values():
    assert [count_overpartitions(n) for n in range(6)] == [1, 2, 4, 8, 14, 24]


def test_overpartition_three_lists_eight():
    got = list(iter_overcubic_partitions(1, 3))
    assert len(got) == 8 == count_overpartitions(3)
    # the eight overpartitions of 3, in (size, overlined-multiset) form
    shapes = sorted(
        tuple((p.size, p.overlined) for p in op.parts) for op in got
    )
    assert shapes == sorted(
        [
            ((3, False),),
            ((3, True),),
            ((2, False), (1, False)),
            ((2, True), (1, False)),
            ((2, False), (1, True)),
            ((2, True), (1, True)),
            ((1, False), (1, False), (1, False)),
            ((1, True), (1, False), (1, False)),
        ]
    )


def test_overpartition_matches_series():
    series = gen_overcubic_gf(1, 60)
    for n in range(61):
        assert count_overpartitions(n) == series[n]


# -- colored partitions ------------------------------------------------------------


def test_gen_cubic_known_list():
    # the nine 2-colored partitions of 4
    assert count_gen_cubic(2, 4) == 9
    assert count_gen_cubic_brute(2, 4) == 9


def test_gen_cubic_c1_reduces_to_partitions():
    for n in range(31):
        assert count_gen_cubic(1, n) == count_partitions(n)


def test_gen_cubic_matches_series():
    series = gen_cubic_gf(3, 20)
    for n in range(21):
        assert count_gen_cubic(3, n) == series[n]
        if n <= 18:
            assert count_gen_cubic_brute(3, n) == series[n]


def test_chan_congruence_small():
    for n in range(9):
        assert count_gen_cubic(2, 3 * n + 2) % 3 == 0


def per_class_dp(c, n, overlined):
    """Reference for the divisor-sum recurrence: multiply in the factor of
    each (size, color) class, about (c+1)/2 * n^2 additions."""
    dp = [0] * (n + 1)
    dp[0] = 1
    for s in range(1, n + 1):
        for _ in range(1 if s % 2 else c):
            for w in range(s, n + 1):  # 1/(1-q^s), unbounded copies
                dp[w] += dp[w - s]
            if overlined:
                for w in range(n, s - 1, -1):  # (1+q^s), the overline choice
                    dp[w] += dp[w - s]
    return dp[n]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(1, 60), st.integers(0, 150)),
        st.tuples(st.integers(1, 10**4), st.integers(0, 12)),
    ),
    st.booleans(),
)
def test_colored_dp_matches_per_class_loop(case, overlined):
    c, n = case
    expected = per_class_dp(c, n, overlined)
    assert counting_module._colored_dp(c, n, overlined) == expected
    counter = count_gen_overcubic_dp if overlined else count_gen_cubic
    assert counter(c, n) == expected


@pytest.mark.parametrize("overlined", [False, True])
def test_log_count_bound_is_a_tight_upper_bound(overlined):
    # the DP work bound prices products by the bits of a(n) through it
    for c in (1, 2, 10, 1000, 10**6, 10**100, 10**400):
        for n in (0, 1, 2, 3, 10, 101, 600) if c <= 10**6 else (2, 3, 10, 101):
            exact = math.log(counting_module._colored_dp(c, n, overlined))
            bound = counting_module._log_count_bound(c, n, overlined)
            assert exact * (1 - 1e-12) <= bound <= exact + 16 * math.log(2) + math.log(c) / 2


def test_colored_dp_step_must_divide(monkeypatch):
    # one more at sigma(2) makes 2 a(2) odd: the step cannot divide
    sums = counting_module._divisor_sums

    def corrupted(c, n, overlined):
        sigma = sums(c, n, overlined)
        sigma[1] += 1
        return sigma

    monkeypatch.setattr(counting_module, "_divisor_sums", corrupted)
    for counter in (count_gen_cubic, count_gen_overcubic_dp):
        with pytest.raises(EngineInconsistencyError, match="not integral"):
            counter(3, 2)


# -- overlined colored partitions -----------------------------------------------------


def test_overcubic_frozen_values():
    for n, expected in enumerate(ABAR_2):
        assert count_gen_overcubic_brute(2, n) == expected
        assert count_gen_overcubic_dp(2, n) == expected
    for n, expected in enumerate(ABAR_3):
        assert count_gen_overcubic_brute(3, n) == expected
        assert count_gen_overcubic_dp(3, n) == expected
    assert count_gen_overcubic_brute(2, 4) == 26


def test_overcubic_trivial_cases():
    for c in (1, 2, 3, 7):
        assert count_gen_overcubic_brute(c, 0) == 1
        assert count_gen_overcubic_dp(c, 1) == 2  # (1) and (1 overlined)
    assert count_gen_overcubic_brute(1, 3) == 8


def test_overcubic_dp_c1_is_overpartition():
    for n in range(101):
        assert count_gen_overcubic_dp(1, n) == count_overpartitions(n)


def test_overcubic_brute_cap():
    with pytest.raises(ValueError, match="capped"):
        count_gen_overcubic_brute(2, BRUTE_FORCE_CAP + 1)
    with pytest.raises(ValueError, match="capped"):
        iter_overcubic_partitions(2, BRUTE_FORCE_CAP + 1)  # on the call, not at next()
    # a large c is refused by the walk size (395 589 359 colored partitions
    # at c = 10), on the call and before anything of size c is built
    for entry in (count_gen_cubic_brute, count_gen_overcubic_brute,
                  iter_overcubic_partitions, decompose):
        for c in (10, 10**9):
            with pytest.raises(ValueError, match="capped"):
                entry(c, BRUTE_FORCE_CAP)


def test_brute_type_list_is_bounded():
    # c + 1 = 10**7 colored partitions of 2 are within the walk bound, but
    # the (size, color) class list would hold 10**7 tuples, about 1 GB
    for entry in (count_gen_cubic_brute, count_gen_overcubic_brute,
                  iter_overcubic_partitions, decompose):
        with pytest.raises(ValueError, match=r"\(size, color\) classes"):
            entry(10**7 - 1, 2)
    # the benchmark's brute-force points stay admitted
    for c, n in [(1, 30), (2, 28), (3, 24), (4, 22), (4, 30)]:
        counting_module._check_brute(c, n)


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_brute_folds_match_dp(c):
    # every fold over the one enumerator against its DP counter
    for n in range(19):
        assert count_gen_cubic_brute(c, n) == count_gen_cubic(c, n)
        overlined = count_gen_overcubic_dp(c, n)
        assert count_gen_overcubic_brute(c, n) == overlined
        if n:
            assert decompose(c, n).total == overlined
        if n <= 10:
            assert len(list(iter_overcubic_partitions(c, n))) == overlined
        if c == 1:
            assert count_partitions_brute(n) == count_partitions(n)


def test_overcubic_generator_is_lazy(monkeypatch):
    # 71 118 608 overlined partitions of 30 at c = 4: the first five must
    # come from the first few colored partitions, not from a full walk
    walk = counting_module._colored_partitions

    def bounded(c, n):
        for drawn, classes in enumerate(walk(c, n)):
            assert drawn < 5, "the enumeration ran ahead of its consumer"
            yield classes

    monkeypatch.setattr(counting_module, "_colored_partitions", bounded)
    got = list(islice(iter_overcubic_partitions(4, BRUTE_FORCE_CAP), 5))
    assert len(got) == len(set(got)) == 5
    for op in got:
        op.validate_colors(4)
        assert op.weight == BRUTE_FORCE_CAP


def test_overcubic_generator_matches_counts():
    for c in (1, 2, 3):
        for n in range(11):
            listed = list(iter_overcubic_partitions(c, n))
            assert len(listed) == count_gen_overcubic_dp(c, n)
            assert len(set(listed)) == len(listed)


def test_generator_respects_invariants():
    for op in iter_overcubic_partitions(3, 8):
        op.validate_colors(3)
        assert op.weight == 8
        keys = [p.sort_key() for p in op.parts]
        assert keys == sorted(keys)


def test_colored_part_validation():
    with pytest.raises(ValueError):
        ColoredPart(3, color=2)  # odd sizes are single-colored
    with pytest.raises(ValueError):
        ColoredPart(0)
    with pytest.raises(ValueError):
        ColoredOverPartition(
            parts=(ColoredPart(2, 1, True), ColoredPart(2, 1, True)), weight=4
        )
    with pytest.raises(ValueError):
        ColoredOverPartition(parts=(ColoredPart(2),), weight=3)
    op = ColoredOverPartition(parts=(ColoredPart(2, 2),), weight=2)
    with pytest.raises(ValueError):
        op.validate_colors(1)


# -- decomposition by distinct sizes ----------------------------------------------------


def test_decompose_weight_one():
    for c in (1, 2, 5):
        dec = decompose(c, 1)
        assert dec.p1 == 2
        assert dec.p_geq2 == 0


def test_decompose_hand_checked_case():
    # weight 4 with two colors: kappa sets listed by hand
    dec = decompose(2, 4)
    assert (dec.p1, dec.p_geq2) == (14, 12)
    assert (dec.kappa1, dec.kappa21, dec.kappa22) == (1, 4, 4)


def test_decompose_invariants_sweep():
    for c in (1, 2, 3):
        for n in range(1, 19):
            dec = decompose(c, n)
            assert dec.total == count_gen_overcubic_dp(c, n)
            assert dec.kappa1 == tau_odd(n)
            assert dec.kappa21 == tau_even(n) * c
            assert dec.p1 == 2 * (dec.kappa1 + dec.kappa21) + dec.kappa22
            assert dec.p_geq2 % 4 == 0
            assert dec.kappa22 % 4 == 0
            assert dec.p1 % 4 == expected_mod4_residue(c, n)


def test_decompose_range_check():
    with pytest.raises(ValueError):
        decompose(2, 0)
    with pytest.raises(ValueError):
        decompose(2, BRUTE_FORCE_CAP + 1)


# -- distinct-class counts ----------------------------------------------------------------


def test_chi_distinct_hand_cases():
    assert chi_distinct(3, 2) == 1  # 2+1
    assert chi_distinct(3, 1) == 2  # 3 and 1+1+1
    for n in range(1, 10):
        assert chi_distinct(n, 0) == 0


def test_chi_distinct_reconstruction():
    # summing 2^r over partitions with r distinct classes counts every
    # overline choice once, recovering the overlined totals
    for c in (1, 2, 3):
        for n in range(1, 21):
            total = sum((1 << r) * chi_distinct(n, r, c) for r in range(n + 2))
            assert total == count_gen_overcubic_dp(c, n)


def test_chi_distinct_validation():
    with pytest.raises(ValueError):
        chi_distinct(0, 1)
    with pytest.raises(ValueError):
        chi_distinct(3, -1)
    # 10**7 + 1 (size, color) classes of weight 2, refused before listing them
    with pytest.raises(ValueError, match=r"\(size, color\) classes"):
        chi_distinct(2, 1, 10**7)


def test_chi_distinct_work_is_bounded():
    # both are admitted by the class cap and would run for minutes to hours
    for args in [(2000, 2), (1000, 2, 100)]:
        with pytest.raises(ValueError, match="DP steps"):
            chi_distinct(*args)
    with pytest.raises(ValueError):
        chi_distinct(2000, 2, 1000)


# -- divisor counts ----------------------------------------------------------------------


def test_tau_twelve():
    assert tau_odd(12) == 2  # 1, 3
    assert tau_even(12) == 4  # 2, 4, 6, 12


def test_tau_against_direct_scan():
    for n in range(1, 201):
        odd = sum(1 for d in range(1, n + 1) if n % d == 0 and d % 2)
        even = sum(1 for d in range(1, n + 1) if n % d == 0 and d % 2 == 0)
        assert tau_odd(n) == odd
        assert tau_even(n) == even


def test_tau_even_of_odd_is_zero():
    for n in range(1, 100, 2):
        assert tau_even(n) == 0


def test_decompose_factorizes_each_weight_twice(monkeypatch):
    # tau_odd and tau_even factorize once each; tau_even does not redo
    # tau_odd's work
    calls = []
    factorize = counting_module._factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(counting_module, "_factorize", counted)
    dec = decompose(2, 12)
    assert (dec.tau_odd, dec.tau_even) == (2, 4)
    assert calls == [12, 12]


def test_tau_odd_of_squares_is_odd():
    for k in range(1, 51):
        assert tau_odd(k * k) % 2 == 1


def test_factorize_stops_at_a_prime_cofactor():
    # trial division of 2**61 - 1 would take hours; Miller-Rabin ends it
    assert tau_odd(2**61 - 1) == 2
    assert tau_even(2 * (2**61 - 1)) == 2
    assert counting_module._factorize(3**5 * (2**61 - 1)) == {3: 5, 2**61 - 1: 1}


def test_factorize_refuses_an_unsplit_composite():
    bound = counting_module._TRIAL_DIVISION_BOUND
    p, q = bound + 3, bound + 33  # the two primes just above 10**6
    assert all(counting_module._is_prime(x) for x in (p, q))
    with pytest.raises(ValueError, match="no prime factor"):
        tau_odd(p * q)
    # a prime too large for the deterministic test is refused too
    with pytest.raises(ValueError, match="no prime factor"):
        tau_odd(2**89 - 1)


def test_tau_validation():
    with pytest.raises(ValueError):
        tau_odd(0)
