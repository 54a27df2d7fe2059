"""Tests for the enumeration and DP counting layer.

The brute-force enumerators are the package's ground truth, so the key
assertions here are (a) brute force against hand-checked and frozen
values, and (b) the DP and generating-function routes against brute force.
"""

import hashlib
import inspect
import math
import sys
from itertools import combinations_with_replacement, islice, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overcubic.counting as counting_module
import overcubic.eta as eta_module
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
    distinct_class_profile,
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


def quadratic_dp(c, n, overlined):
    """Reference for the divide-and-conquer DP: the same recurrence, each
    step's whole sum taken directly, n(n+1)/2 products."""
    sigma = counting_module._divisor_sums(c, n, overlined)
    a = [1]
    for w in range(1, n + 1):
        value, rest = divmod(sum(map(mul, sigma, reversed(a))), w)
        assert rest == 0
        a.append(value)
    return a[n]


# a price helper that makes every block product take one route
FORCED_ROUTES = {
    "kronecker": lambda length, count, a_bits, sigma_bits: (1.0, 0.0),
    "schoolbook": lambda length, count, a_bits, sigma_bits: (0.0, 1.0),
}


@pytest.mark.parametrize("route", sorted(FORCED_ROUTES))
@pytest.mark.parametrize("overlined", [False, True])
def test_colored_dp_matches_quadratic_on_each_route(monkeypatch, route, overlined):
    shapes = []

    def forced(length, count, a_bits, sigma_bits):
        shapes.append((length, count))
        return FORCED_ROUTES[route](length, count, a_bits, sigma_bits)

    monkeypatch.setattr(counting_module, "_dp_block_prices", forced)
    for n in (31, 32, 33, 63, 64, 65, 127, 128, 129, 300):
        for c in (1, 2, 7, 1000):
            shapes.clear()
            assert counting_module._colored_dp(c, n, overlined) == quadratic_dp(c, n, overlined)
            # n + 1 weights: a single leaf up to 32 of them, block products past that
            assert bool(shapes) == (n + 1 > counting_module._DP_LEAF)


@pytest.mark.parametrize("route", sorted(FORCED_ROUTES))
def test_colored_dp_block_product_must_divide(monkeypatch, route):
    # one more at sigma(60): a(0) sigma(60) enters the sum of weight 60
    # through the root's block product, a(0..49) into the sums of 50..100
    sums = counting_module._divisor_sums

    def corrupted(c, n, overlined):
        sigma = sums(c, n, overlined)
        sigma[59] += 1
        return sigma

    monkeypatch.setattr(counting_module, "_divisor_sums", corrupted)
    monkeypatch.setattr(counting_module, "_dp_block_prices", FORCED_ROUTES[route])
    for overlined in (False, True):
        with pytest.raises(EngineInconsistencyError,
                           match="not integral for c=3, n=60: remainder 1 mod 60"):
            counting_module._colored_dp(3, 100, overlined)


def test_colored_dp_routes_by_the_bits_of_its_counts(monkeypatch):
    # counts of up to 131 bits take Kronecker block products, counts of up
    # to 6699 bits the schoolbook: each route ran 3 and 7 times faster there
    widths = []
    pack = counting_module._pack

    def recording_pack(values, width):
        widths.append(width)
        return pack(values, width)

    monkeypatch.setattr(counting_module, "_pack", recording_pack)
    counting_module._colored_dp(1, 1000, True)
    assert widths
    widths.clear()
    counting_module._colored_dp(10**6, 1000, True)
    assert not widths


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_colored_dp_at_strided_slot_widths(monkeypatch, c):
    # block products whose slots take 5, 6 or 7 bytes, packed by strided
    # copies, against the series, an independent route; and against the
    # brute fold up to its weight cap, where the DP is one leaf
    widths = set()
    pack = counting_module._pack

    def recording_pack(values, width):
        widths.add(width)
        return pack(values, width)

    monkeypatch.setattr(counting_module, "_pack", recording_pack)
    series = gen_overcubic_gf(c, 2000)
    for n in (300, 990, 1500, 2000):
        assert counting_module._colored_dp(c, n, True) == series[n]
    assert widths & {5, 6, 7}
    for n in range(20, BRUTE_FORCE_CAP + 1, 5):
        assert counting_module._colored_dp(c, n, True) == count_gen_overcubic_brute(c, n) == series[n]


def test_block_prices_route_by_count_bits():
    # measured on blocks of 32-512 weights: the Kronecker product won 1.4-11x
    # on counts of up to 64 bits, and on 256 bits from 256 weights on; the
    # schoolbook won 2-25x from 1024 bits on
    prices = counting_module._dp_block_prices
    for length, bits in [(32, 16), (32, 64), (128, 64), (512, 64), (256, 256), (512, 256)]:
        schoolbook, kronecker = prices(length, length, bits, 20)
        assert kronecker < schoolbook
    for length in (32, 128, 512):
        for bits in (1024, 4096, 16384):
            schoolbook, kronecker = prices(length, length, bits, 20)
            assert schoolbook < kronecker


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
    # a large c is refused on the call, before anything of size c is built:
    # by the walk size at c = 10 (395 589 359 colored partitions), by the
    # class count at c = 10^9
    for entry in (count_gen_cubic_brute, count_gen_overcubic_brute,
                  iter_overcubic_partitions, decompose):
        for c in (10, 10**9):
            with pytest.raises(ValueError, match="capped"):
                entry(c, BRUTE_FORCE_CAP)


def test_brute_type_list_is_bounded(monkeypatch):
    # c + 1 = 10**7 colored partitions of 2 are within the work cap, but
    # the walk's copy of the c colors would take about 400 MB
    for entry in (count_gen_cubic_brute, count_gen_overcubic_brute,
                  iter_overcubic_partitions, decompose):
        with pytest.raises(ValueError, match=r"\(size, color\) classes"):
            entry(10**7 - 1, 2)
    # the class cap is a bound on memory: the work cap alone would admit c
    # near 10^8 at n = 2, where the copy would take about 4 GB
    monkeypatch.setattr(counting_module, "_check_class_count", lambda *args: None)
    assert counting_module._check_brute(10**8 - 2, 2) == 10**8 - 1
    with pytest.raises(ValueError, match="work cap"):
        counting_module._check_brute(2 * 10**8, 2)
    monkeypatch.undo()
    # the benchmark's brute-force points stay admitted
    for c, n in [(1, 30), (2, 28), (3, 24), (4, 22), (4, 30)]:
        counting_module._check_brute(c, n)


@pytest.mark.parametrize(
    "n,c", [(2, 999_999), (3, 999_998), (4, 4469), (5, 4468), (10, 58), (20, 12), (30, 5)]
)
def test_brute_admission_edges(n, c):
    # the class cap's edges at n = 2 and 3: the largest c admitted. From
    # n = 4 on these were the edges of a cap of 10^7 colored partitions,
    # walked in 0.2-0.4 s; the work cap admits them, and its own edges are
    # in test_cli's WORK_CAP_EDGES
    assert counting_module._check_brute(c, n) == count_gen_cubic(c, n)
    if n <= 3:
        with pytest.raises(ValueError, match=r"\(size, color\) classes"):
            counting_module._check_brute(c + 1, n)


def test_brute_admits_any_c_below_weight_2():
    # one (size, color) class, so no cap grows with c, and neither does the
    # DP's work
    c = 10**5000
    for n in (0, 1):
        assert count_gen_cubic_brute(c, n) == 1
        assert count_gen_overcubic_brute(c, n) == 2**n
        assert len(list(iter_overcubic_partitions(c, n))) == 2**n
    assert decompose(c, 1).total == 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int -> str digit limit before Python 3.10.7")
def test_refusals_of_a_huge_c_name_their_cap():
    # under CPython's default digit limit a c of 5001 digits has no decimal
    # string: each refusal names it by its bit length, not by a conversion error
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as brute:
            count_gen_cubic_brute(10**5000, 30)
        with pytest.raises(ValueError) as chi:
            chi_distinct(30, 2, 10**5000)
        with pytest.raises(ValueError) as dp:
            count_gen_overcubic_dp(-(10**5000), 3)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(brute.value) == (
        "brute-force enumeration is capped at 1e+06 (size, color) classes "
        "(c=an integer of 16610 bits, n=30 has more); use the DP counter instead"
    )
    assert str(chi.value) == (
        "chi_distinct is capped at 1e+06 (size, color) classes "
        "(c=an integer of 16610 bits, n=30 has more)"
    )
    assert str(dp.value) == "color count must be at least 1, got a negative integer of 16610 bits"


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


def reference_pools(c, n):
    """``_pools`` by one ``set`` per multiset of colors: the reference."""
    if c == 1:
        return []
    return [b""] + [
        bytes(map(len, map(set, combinations_with_replacement(range(c), m))))
        for m in range(1, n // 2 + 1)
    ]


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 7, 12, 58])
def test_pools_match_one_set_per_multiset(c):
    for n in range(BRUTE_FORCE_CAP + 1 if c <= 5 else 11):
        assert counting_module._pools(c, n) == reference_pools(c, n), n


def test_overcubic_generator_is_lazy(monkeypatch):
    # 71 118 608 overlined partitions of 30 at c = 4: the first five must
    # come from the first two partitions into sizes, (30) with two
    # overlinings and (29, 1) with four, not from a full walk
    walk = counting_module._walk

    def bounded(n, pools):
        for drawn, item in enumerate(walk(n, pools)):
            assert drawn < 2, "the enumeration ran ahead of its consumer"
            yield item

    monkeypatch.setattr(counting_module, "_walk", bounded)
    got = list(islice(iter_overcubic_partitions(4, BRUTE_FORCE_CAP), 5))
    assert len(got) == len(set(got)) == 5
    for op in got:
        op.validate_colors(4)
        assert op.weight == BRUTE_FORCE_CAP


def test_overcubic_generator_streams_the_colorings_of_a_part(monkeypatch):
    # 999 999 colorings of the part 2: the first object needs only one
    drawn = []
    multisets = counting_module.combinations_with_replacement

    def counted(colors, m):
        for item in multisets(colors, m):
            drawn.append(item)
            yield item

    monkeypatch.setattr(counting_module, "combinations_with_replacement", counted)
    first = next(iter_overcubic_partitions(999_999, 2))
    assert first == ColoredOverPartition(parts=(ColoredPart(2, 1),), weight=2)
    assert len(drawn) == 1


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
    with pytest.raises(ValueError, match="color index"):
        ColoredPart(2, color=0)
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


def test_chi_distinct_sum_builds_one_profile(monkeypatch):
    # lemma L1's sum over r reads chi_distinct n + 2 times for one (n, c),
    # and the class-count DP runs once for them all
    built = []
    real = counting_module._distinct_class_profile

    def counted(n, c):
        built.append((n, c))
        return real(n, c)

    monkeypatch.setattr(counting_module, "_distinct_class_profile", counted)
    distinct_class_profile.cache_clear()
    n, c = 40, 3
    total = sum((1 << r) * chi_distinct(n, r, c) for r in range(n + 2))
    assert total == count_gen_overcubic_dp(c, n)
    assert built == [(n, c)]
    profile = distinct_class_profile(n, c)
    assert isinstance(profile, tuple) and built == [(n, c)]
    assert [chi_distinct(n, r, c) for r in range(n + 2)] == [*profile] + [0] * (n + 2 - len(profile))
    distinct_class_profile.cache_clear()


def test_chi_distinct_validation():
    with pytest.raises(ValueError):
        chi_distinct(0, 1)
    with pytest.raises(ValueError):
        chi_distinct(3, -1)
    # 10**7 + 1 (size, color) classes of weight 2, refused before listing them
    with pytest.raises(ValueError, match=r"\(size, color\) classes"):
        chi_distinct(2, 1, 10**7)


def reference_distinct_class_rows(n, c):
    """The distinct-class DP as first written: every weight scans all
    ``n + 1`` class counts. ``rows[w][r]`` for ``w <= n`` and ``r <= n + 1``:
    a class larger than ``w`` adds nothing to weight ``w``, so every row is
    that weight's whole profile."""
    dp = [[0] * (n + 2) for _ in range(n + 1)]
    dp[0][0] = 1
    types = [(s, col) for s in range(n, 0, -1) for col in range(1, (1 if s % 2 else c) + 1)]
    for size, _color in types:
        for w in range(n - size, -1, -1):
            row = dp[w]
            for r in range(n, -1, -1):
                ways = row[r]
                if not ways:
                    continue
                total = w + size
                while total <= n:
                    dp[total][r + 1] += ways
                    total += size
    return dp


def reference_distinct_class_profile(n, c):
    """``profile[r]`` for ``r <= n + 1``, by the full scan."""
    return reference_distinct_class_rows(n, c)[n]


def reference_per_class_rows(n, c):
    """The distinct-class DP one pass per (size, color) class, over the
    class counts a weight can reach: ``rows[w]`` is the profile of ``w``."""
    dp = [[0] * (limit + 1) for limit in counting_module._class_count_limits(n, c)]
    dp[0][0] = 1
    for size in range(n, 0, -1):
        for _ in range(1 if size % 2 else c):
            for w in range(n - size, -1, -1):
                row = dp[w]
                for r in range(len(row) - 1, -1, -1):
                    ways = row[r]
                    if not ways:
                        continue
                    total = w + size
                    while total <= n:
                        dp[total][r + 1] += ways
                        total += size
    return dp


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 17])
def test_distinct_class_profile_matches_full_scan(c):
    # every r up to n + 1: the profile stops at the largest reachable r
    rows = reference_distinct_class_rows(80, c)
    for n in range(1, 81):
        profile = counting_module._distinct_class_profile(n, c)
        assert profile + [0] * (82 - len(profile)) == rows[n], n
    for n in (1, 7, 30):
        want = reference_distinct_class_profile(n, c)
        assert [chi_distinct(n, r, c) for r in range(n + 2)] == want


@pytest.mark.parametrize("c", [100, 1000])
def test_distinct_class_profile_matches_one_pass_per_class(c):
    rows = reference_per_class_rows(24, c)
    for n in range(1, 25):
        assert counting_module._distinct_class_profile(n, c) == rows[n], n


@pytest.mark.parametrize(
    "c,n,digest",
    [
        (1, 1123, "47590e636b56302107dcde24ab58e7153453f9a60a8b1592e6d3c527a84799df"),
        (100, 177, "4032ac4558572b0d8ed1935e713eb4ae0c574480410ccb1aeee8e14e1e4269ec"),
    ],
)
def test_distinct_class_profile_digests(c, n, digest):
    # the sha256 of the profile's repr by reference_per_class_rows, which
    # takes a few seconds at each of these points
    profile = counting_module._distinct_class_profile(n, c)
    assert hashlib.sha256(repr(profile).encode()).hexdigest() == digest


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_class_count_limits_are_the_largest_reachable(c):
    # limits[w] is the largest r with a partition of w into r distinct classes
    limits = counting_module._class_count_limits(40, c)
    rows = reference_distinct_class_rows(40, c)
    for w in range(41):
        assert limits[w] == max(r for r, ways in enumerate(rows[w]) if ways)


@pytest.mark.parametrize(
    "n,c", [(1, 1), (2, 5), (17, 1), (40, 3), (60, 2), (24, 100), (24, 1000), (3, 10**5)]
)
def test_distinct_class_work_counts_every_scan(n, c, monkeypatch):
    # count every row entry the DP adds, through the module's add, and trace
    # its stride sums: a size of k classes takes min(k, n // size) of them,
    # not one pass per class
    added = 0

    def counted_add(x, y):
        nonlocal added
        added += 1
        return x + y

    profile_fn = counting_module._distinct_class_profile
    lines, first = inspect.getsourcelines(profile_fn)
    stride_line = first + next(i for i, line in enumerate(lines) if "previous, strided =" in line)
    strides = {}

    def tracer(frame, event, arg):
        if frame.f_code is not profile_fn.__code__:
            return None
        if event == "line" and frame.f_lineno == stride_line:
            size = frame.f_locals["size"]
            strides[size] = strides.get(size, 0) + 1
        return tracer

    monkeypatch.setattr(counting_module, "add", counted_add)
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        profile = profile_fn(n, c)
    finally:
        sys.settrace(previous)
    assert profile == reference_per_class_rows(n, c)[n]
    assert strides == {s: min(1 if s % 2 else c, n // s) for s in range(1, n + 1)}
    assert added == counting_module._distinct_class_work(n, c)


# the largest weights a cap of 10^8 row entries admitted, at c = 1, 2, 100
# and 1000, 6-10 s each; one pass per class was capped at 1123, 909, 177 and
# 85
CHI_WORK_EDGES = {1: 1990, 2: 1673, 100: 657, 1000: 606}


def test_chi_distinct_work_is_bounded():
    # the work cap refuses them now, each priced at its entries' bits; its
    # own edges are in test_cli's WORK_CAP_EDGES
    for c, edge in CHI_WORK_EDGES.items():
        with pytest.raises(ValueError, match="work cap"):
            chi_distinct(edge, 1, c)
    # all are admitted by the class cap and would run for a minute to hours
    for args in [(2000, 2), (1000, 2, 100), (20000, 2)]:
        with pytest.raises(ValueError, match="work cap"):
            chi_distinct(*args)
    with pytest.raises(ValueError, match=r"\(size, color\) classes"):
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


def test_factorize_stops_at_a_prime_power_cofactor():
    # 1000003 is past the trial-division bound; an integer square root of
    # the cofactor ends the walk instead of a refusal
    assert tau_odd(1000003**2) == 3
    assert tau_even(2 * 1000003**2) == 3
    assert counting_module._factorize(4 * 3 * 1000003**3) == {2: 2, 3: 1, 1000003: 3}


def test_factorize_refuses_an_unsplit_composite():
    bound = counting_module._TRIAL_DIVISION_BOUND
    p, q = bound + 3, bound + 33  # the two primes just above 10**6
    assert all(eta_module._is_prime(x) for x in (p, q))
    with pytest.raises(ValueError, match="no prime factor"):
        tau_odd(p * q)
    # a prime too large for the deterministic test is refused too
    with pytest.raises(ValueError, match="no prime factor"):
        tau_odd(2**89 - 1)


def test_tau_validation():
    with pytest.raises(ValueError):
        tau_odd(0)


# -- the walk against the enumerator it replaced -------------------------------


def reference_colored_partitions(c, n):
    """Reference for the brute-force walk: every c-colored partition of n
    once, as its (size, color, multiplicity) classes in canonical order, one
    interpreted step per colored partition. The same list is mutated
    between yields.

    A class takes the first (size, color) type that fits at its largest
    multiplicity; a step lowers the multiplicity, then moves to the next
    type. The last type, (1, 1), takes all the weight left."""
    types = [(s, col) for s in range(n, 0, -1) for col in range(1, (1 if s % 2 else c) + 1)]
    last = len(types) - 1
    first = [0] * (n + 1)  # first[w]: index of the first type of size <= w
    for j in range(last, -1, -1):
        first[types[j][0]] = j
    classes, frames = [], []
    idx, left = 0, n
    while True:
        while left:
            j = max(idx, first[left])
            size, color = types[j]
            mult = left // size
            frames.append((j, left))
            classes.append((size, color, mult))
            idx, left = j + 1, left - mult * size
        yield classes
        while frames:
            j, before = frames[-1]
            if j == last:
                frames.pop()
                classes.pop()
                continue
            size, color, mult = classes[-1]
            if mult > 1:
                mult -= 1
            else:
                j += 1
                size, color = types[j]
                mult = before // size
                frames[-1] = (j, before)
            classes[-1] = (size, color, mult)
            idx, left = j + 1, before - mult * size
            break
        else:
            return


def reference_histogram(c, n):
    """hist[r]: the colored partitions of n with r (size, color) classes."""
    hist = [0] * (n + 1)
    for classes in reference_colored_partitions(c, n):
        hist[len(classes)] += 1
    return hist


def walk_histogram(c, n):
    """The same histogram by the brute-force fold, one class count at a time."""
    return [counting_module._fold(c, n, [int(r == k) for r in range(n + 1)]) for k in range(n + 1)]


@pytest.mark.parametrize(
    "c,n_max", [(1, 16), (2, 16), (3, 16), (4, 16), (5, 16), (7, 10), (10, 10)]
)
def test_walk_class_counts_match_reference(c, n_max):
    for n in range(n_max + 1):
        assert walk_histogram(c, n) == reference_histogram(c, n), (c, n)


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_walk_class_counts_are_chi_distinct(c):
    # the overlining lemma's class counts: colored partitions of n with
    # exactly r classes, by enumeration against chi_distinct's DP
    for n in range(1, 21):
        assert walk_histogram(c, n) == [chi_distinct(n, r, c) for r in range(n + 1)], (c, n)


def reference_decompose(c, n):
    tallies = {"p1": 0, "p_geq2": 0, "kappa1": 0, "kappa21": 0, "kappa22": 0}
    for classes in reference_colored_partitions(c, n):
        overlined = 1 << len(classes)
        size = classes[0][0]
        if size != classes[-1][0]:
            tallies["p_geq2"] += overlined
            continue
        tallies["p1"] += overlined
        if size % 2:
            tallies["kappa1"] += 1
        elif len(classes) == 1:
            tallies["kappa21"] += 1
        else:
            tallies["kappa22"] += overlined
    return tallies


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_decompose_matches_reference(c):
    for n in range(1, 19):
        dec = decompose(c, n)
        assert {key: getattr(dec, key) for key in ("p1", "p_geq2", "kappa1", "kappa21",
                                                   "kappa22")} == reference_decompose(c, n)
        assert (dec.c, dec.n, dec.tau_odd, dec.tau_even) == (c, n, tau_odd(n), tau_even(n))


def reference_overcubic_partitions(c, n):
    for classes in reference_colored_partitions(c, n):
        choices = []
        for size, color, mult in classes:
            plain = (ColoredPart(size, color),) * mult
            choices.append((plain, (ColoredPart(size, color, True),) + plain[1:]))
        for choice in product(*choices):
            yield ColoredOverPartition(parts=sum(choice, ()), weight=n)


def test_overcubic_generator_matches_reference():
    for c in (1, 2, 3):
        for n in range(9):
            listed = list(iter_overcubic_partitions(c, n))
            assert len(listed) == len(set(listed))
            assert set(listed) == set(reference_overcubic_partitions(c, n)), (c, n)


def test_brute_counts_at_the_class_cap():
    # the largest c admitted at n = 2: (1, 1) and the part 2 in any color
    assert count_gen_cubic_brute(999_999, 2) == 1_000_000
    assert count_gen_overcubic_brute(999_999, 2) == count_gen_overcubic_dp(999_999, 2)
