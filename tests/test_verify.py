"""Tests for classification, congruence sweeps, and identity checking."""

import math
import sys

import pytest

import overcubic.eta as eta_module
import overcubic.verify as verify_module
from overcubic.counting import ColoredOverPartition, ColoredPart
from overcubic.eta import (
    _colored_quotient, _normalized_factors, expand_eta_quotient, gen_overcubic_gf, psi
)
from overcubic.series import Series
from overcubic.verify import (
    CONJECTURED_FAMILIES,
    IDENTITIES,
    OTHER,
    PROVED_FAMILIES,
    SQUARE,
    TWICE_SQUARE,
    CongruenceFamily,
    Counterexample,
    Mod4Class,
    VerificationReport,
    check_identity,
    check_named_identity,
    classify_n,
    expected_mod4_residue,
    verify_conjectured_families,
    verify_family,
    verify_mod4_classification,
    verify_proved_families,
    _prime_power_components,
)


# -- classification -----------------------------------------------------------


def test_classify_small():
    assert classify_n(1) == Mod4Class(SQUARE, 1)
    assert classify_n(2) == Mod4Class(TWICE_SQUARE, 1)
    assert classify_n(3) == Mod4Class(OTHER)
    assert classify_n(8) == Mod4Class(TWICE_SQUARE, 2)
    assert classify_n(9) == Mod4Class(SQUARE, 3)


def test_classify_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify_n(0)


def test_classify_partitions_the_integers():
    squares = {k * k for k in range(1, 1001)}
    twice = {2 * k * k for k in range(1, 1001)}
    assert not squares & twice
    for n in range(1, 10**6 + 1):
        cls = classify_n(n)
        if n in squares:
            assert cls.tag == SQUARE and cls.witness**2 == n
        elif n in twice:
            assert cls.tag == TWICE_SQUARE and 2 * cls.witness**2 == n
        else:
            assert cls.tag == OTHER and cls.witness is None


def test_nine_n_plus_three_is_always_other():
    for n in range(10**4 + 1):
        assert classify_n(9 * n + 3).tag == OTHER


def test_mod4class_validation():
    with pytest.raises(ValueError):
        Mod4Class("weird", 1)
    with pytest.raises(ValueError):
        Mod4Class(SQUARE, None)
    with pytest.raises(ValueError):
        Mod4Class(OTHER, 3)


def test_expected_residues():
    for c in (1, 2, 3, 9):
        assert expected_mod4_residue(c, 1) == 2
    assert expected_mod4_residue(3, 2) == 0  # 2*(3+1) = 8 = 0 mod 4
    assert expected_mod4_residue(2, 2) == 2  # 2*(2+1) = 6 = 2 mod 4
    assert expected_mod4_residue(5, 7) == 0


# -- the mod-4 sweep -------------------------------------------------------------


def test_mod4_sweep_small():
    report = verify_mod4_classification(2, 60, 60)
    assert report.passed
    assert report.i_range == (1, 2)
    assert report.n_range == (1, 60)
    # without an order the sweep runs at n_max, the least that covers it
    assert verify_mod4_classification(2, 60) == report


def test_mod4_sweep_overpartition_case():
    assert verify_mod4_classification(1, 50, 50).passed


def test_mod4_sweep_order_too_small():
    with pytest.raises(ValueError):
        verify_mod4_classification(2, 50, 49)


def test_mod4_sweep_lists_each_wrong_residue(monkeypatch):
    # residues the classification rules out, written into the series of
    # every odd c, whose mod-4 form is f2/f1^2; n = 60 lies past n_max and
    # n = 0 before the range, so neither may be reported. Every odd c reads
    # that one form and must report each wrong residue, the even c none
    wrong = {0: 3, 1: 0, 9: 1, 10: 3, 50: 2, 60: 1}
    genuine = gen_overcubic_gf
    odd = _normalized_factors(_colored_quotient(1, True), 60, 4)

    def corrupted(c, order, modulus=None):
        coeffs = list(genuine(c, order, modulus).coeffs)
        if _normalized_factors(_colored_quotient(c, True), order, modulus) == odd:
            for n, residue in wrong.items():
                coeffs[n] = residue
        return Series(coeffs, modulus)

    monkeypatch.setattr(verify_module, "gen_overcubic_gf", corrupted)
    report = verify_mod4_classification(6, 50, 60)
    assert list(report.counterexamples) == [
        Counterexample(c, n, residue, expected_mod4_residue(c, n))
        for c in (1, 3, 5)
        for n, residue in sorted(wrong.items())
        if 1 <= n <= 50
    ]


def test_sweeps_expand_each_distinct_quotient_once(monkeypatch):
    # each sweep expands each distinct (form, modulus, route) it reads once:
    # a form expanded twice would show as more calls than distinct keys
    keys = recorded_expansions(monkeypatch)
    # mod 4 the overlined series is f2/f1^2 for odd c and f4/(f1^2*f2) for
    # even c
    verify_mod4_classification(10, 200, 200)
    assert len(keys) == len(set(keys)) == 2
    # 27 reads: c = 5, 8, 11 mod 6, 2, 3 and c = 14, ..., 35 mod 12, 4, 3.
    # The series is 1 mod 2 and takes two forms mod 4, which leaves 21
    # distinct; serving mod 4 or mod 3 from a mod-12 series would show as
    # fewer calls
    keys.clear()
    verify_proved_families(3, 21, 200)
    assert len(keys) == len(set(keys)) == 21
    # at i <= 20 each sweep reads 111 at n <= 30 and 87 at n <= 10, where
    # the lower order makes forms of distant c coincide
    for sweep in (verify_proved_families, verify_conjectured_families):
        for n_max, distinct in ((30, 111), (10, 87)):
            keys.clear()
            sweep(20, n_max)
            assert len(keys) == len(set(keys)) == distinct


def recorded_expansions(monkeypatch):
    """The ``(factors, order, modulus, route)`` key of every expansion
    requested through ``expand_eta_quotient`` while the test runs."""
    keys = []
    real = eta_module._expand_normalized

    def recording(*key):
        keys.append(key)
        return real(*key)

    monkeypatch.setattr(eta_module, "_expand_normalized", recording)
    return keys


def test_family_sides_take_independent_routes(monkeypatch):
    # the composite side expands the theta walk, each prime-power side the
    # Euler factors: distinct expansions, even for one quotient
    keys = recorded_expansions(monkeypatch)
    verify_family(PROVED_FAMILIES[1], 2, 10, 93)
    routes = {(m, route) for _, _, m, route in keys}
    assert routes == {(12, "theta"), (4, "pentagonal"), (3, "pentagonal")}


@pytest.mark.parametrize("name", ["psi", "psi-neg", "phi"])
def test_theta_registry_checks_the_pentagonal_route(name, monkeypatch):
    # these identities check Euler-factor expansions against theta_sum; a
    # theta walk of phi would read phi's terms off the same walker
    keys = recorded_expansions(monkeypatch)
    assert check_named_identity(name, 60).passed
    assert keys and all(route == "pentagonal" for *_, route in keys)


# -- congruence families -----------------------------------------------------------


def test_family_validation():
    with pytest.raises(ValueError):
        CongruenceFamily(3, 0, 3, 2, 6)
    with pytest.raises(ValueError):
        CongruenceFamily(3, 2, 3, 3, 6)
    with pytest.raises(ValueError):
        CongruenceFamily(3, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        CongruenceFamily(3, 2, 3, 2, 6, residue=6)
    with pytest.raises(ValueError, match="c_slope"):
        CongruenceFamily(-1, 2, 3, 2, 6)
    with pytest.raises(ValueError, match="prog_slope"):
        CongruenceFamily(3, 2, 0, 0, 6)


def test_family_describe():
    fam = CongruenceFamily(3, 2, 3, 2, 6)
    assert fam.describe() == "abar_(3i+2)(3n+2) == 0 (mod 6)"
    assert fam.c_for(2) == 8


def test_first_proved_family_small_sweep():
    report = verify_family(PROVED_FAMILIES[0], 2, 40, 3 * 40 + 2)
    assert report.passed
    assert report.i_range == (1, 2)
    assert report.n_range == (0, 40)


def test_false_family_fails_with_concrete_counterexample():
    fake = CongruenceFamily(1, 1, 1, 0, 5)
    report = verify_family(fake, 2, 10, 40)
    assert not report.passed
    first = report.counterexamples[0]
    # recompute the offending coefficient independently of the harness
    series = gen_overcubic_gf(fake.c_for(first.i), 40)
    assert series[first.n] % 5 == first.observed
    assert first.observed != 0


def test_family_insufficient_order():
    with pytest.raises(ValueError, match="insufficient"):
        verify_family(PROVED_FAMILIES[0], 2, 100, 100)


def test_family_empty_range_is_vacuous():
    report = verify_family(PROVED_FAMILIES[0], 0, 10, 100)
    assert report.passed
    assert report.vacuous


def test_family_empty_n_range_is_vacuous():
    # n_max = -1 leaves nothing to check, even where the order could not
    # hold the progression's first coefficient
    for order in (100, 0):
        report = verify_family(PROVED_FAMILIES[0], 3, -1, order)
        assert report.passed
        assert report.vacuous
        assert report.to_dict()["n_range"] == [0, -1]


def test_mod4_sweep_empty_n_range_is_vacuous():
    report = verify_mod4_classification(3, 0, 0)
    assert report.passed
    assert report.vacuous
    assert report.to_dict()["vacuous"] is True


def test_vacuous_sweeps_never_report_a_negative_order():
    # an empty n range defaults to order 0; an explicit negative order that
    # covers it is refused as expand_eta_quotient refuses it
    assert verify_mod4_classification(3, -5).order == 0
    assert {r.order for r in verify_proved_families(3, -1)} == {0}
    assert {r.order for r in verify_conjectured_families(3, -1)} == {0}
    with pytest.raises(ValueError, match="^order must be non-negative, got -5$"):
        verify_mod4_classification(3, -5, -5)
    with pytest.raises(ValueError, match="^order must be non-negative, got -1$"):
        verify_family(PROVED_FAMILIES[0], 3, -1, -1)
    # an order below a non-empty range keeps its own message
    with pytest.raises(ValueError, match="below n_max"):
        verify_mod4_classification(3, 5, -1)


def test_nonempty_ranges_are_not_vacuous():
    assert not verify_mod4_classification(2, 1, 1).vacuous
    assert not verify_family(PROVED_FAMILIES[0], 1, 0, 2).vacuous
    assert not VerificationReport("x", None, (0, 0), 0).vacuous


def test_prime_power_components():
    assert _prime_power_components(6) == [2, 3]
    assert _prime_power_components(12) == [4, 3]
    assert _prime_power_components(4) == [4]


def test_family_with_a_large_prime_modulus_finishes():
    # the prime-power split of 2**61 - 1 stops at the Miller-Rabin test
    report = verify_family(CongruenceFamily(1, 1, 2, 0, 2**61 - 1), 1, 5, 20)
    assert report.n_range == (0, 5)
    assert _prime_power_components(2 * (2**61 - 1)) == [2, 2**61 - 1]


def test_conjectured_families_small_sweep():
    reports = verify_conjectured_families(1, 10, 100)
    assert len(reports) == 5
    assert all(r.passed for r in reports)
    # without an order every family runs at the largest 9n + r, 9*10 + 8
    assert verify_conjectured_families(1, 10) == verify_conjectured_families(1, 10, order=98)


def test_proved_families_small_sweep():
    reports = verify_proved_families(1, 10, 100)
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    # one order for all three, 9*10 + 3, where 3n + 2 alone needs 32
    assert verify_proved_families(1, 10) == verify_proved_families(1, 10, order=93)
    assert all(r.vacuous for r in verify_proved_families(1, -1))


# -- reports --------------------------------------------------------------------------


def test_report_status_tracks_counterexamples():
    rep = VerificationReport("x", None, (0, 5), 5)
    assert rep.passed and rep.status == "pass"
    d = rep.to_dict()
    assert set(d) == {
        "description",
        "i_range",
        "n_range",
        "order",
        "status",
        "vacuous",
        "counterexamples",
    }


def test_report_counterexamples_stay_in_range():
    fake = CongruenceFamily(1, 1, 2, 1, 7)
    report = verify_family(fake, 3, 12, 30)
    i_lo, i_hi = report.i_range
    n_lo, n_hi = report.n_range
    assert report.counterexamples
    for ce in report.counterexamples:
        assert i_lo <= ce.i <= i_hi
        assert n_lo <= ce.n <= n_hi


# -- identity checking -------------------------------------------------------------------


def test_check_identity_pass():
    order = 120
    report = check_identity(psi(order), expand_eta_quotient([(2, 2), (1, -1)], order))
    assert report.passed
    assert report.order == order


def test_check_identity_reports_first_difference():
    lhs = Series([1, 1, 5, 9])
    rhs = Series([1, 2, 5, 7])
    report = check_identity(lhs, rhs)
    assert not report.passed
    (ce,) = report.counterexamples
    assert (ce.i, ce.n, ce.observed, ce.expected) == (None, 1, 1, 2)
    # the window is the shorter series; a difference past it is not read
    window = check_identity(Series([1, 2, 3]), Series([1, 2, 3, 9]))
    assert window.passed and window.n_range == (0, 2)
    report = check_identity(Series([1, 2, 3]), Series([1, 2, 4, 9]))
    assert report.counterexamples == (Counterexample(None, 2, 3, 4),)


def test_check_identity_with_modulus():
    lhs = Series([1, 4, 7])
    rhs = Series([1, 1, 1])
    assert check_identity(lhs, rhs, modulus=3).passed
    assert not check_identity(lhs, rhs).passed


def test_check_identity_modulus_mismatch():
    with pytest.raises(ValueError):
        check_identity(Series([1], modulus=3), Series([1], modulus=4))


def test_extract_of_zero_progression_mod3():
    # coefficients of the 5-color overlined series vanish mod 3 along 3n+2
    series = gen_overcubic_gf(5, 150, modulus=3)
    zero = Series.zero(series.extract_progression(3, 2).order, modulus=3)
    report = check_identity(series.extract_progression(3, 2), zero)
    assert report.passed


# -- mod-3 extraction chains ------------------------------------------------------------


def test_mod3_reduction_for_c_3i_plus_2():
    # f4^(3i+1)/(f1^2 f2^(6i+1)) == f12^(i+1)/f6^(2i+1) * (f2/(f1 f4))^2  mod 3
    order = 150
    for i in (1, 2, 3):
        lhs = gen_overcubic_gf(3 * i + 2, order, modulus=3)
        rhs = expand_eta_quotient(
            [(12, i + 1), (6, -(2 * i + 1)), (2, 2), (1, -2), (4, -2)],
            order,
            modulus=3,
        )
        assert check_identity(lhs, rhs).passed


def test_mod3_extraction_chain_for_c_9i_plus_5():
    # pulling the 3n coefficients out of the c = 9i+5 series and renaming
    # q^3 -> q lands on f4^(3i+1)/(f2^(6i+2) f1) * f(-q, q^2)  mod 3,
    # a series with no exponents congruent to 1 mod 3
    from overcubic.eta import F_MINUS_Q_Q2, theta_sum

    order = 450
    for i in (1, 2):
        series = gen_overcubic_gf(9 * i + 5, order, modulus=3)
        pulled = series.extract_progression(3, 0)
        m = pulled.order
        rhs = expand_eta_quotient(
            [(4, 3 * i + 1), (2, -(6 * i + 2)), (1, -1)], m, modulus=3
        ) * theta_sum(F_MINUS_Q_Q2, m).reduce_mod(3)
        assert pulled == rhs
        assert pulled.extract_progression(3, 1).is_zero()


def test_mod3_reduction_for_c_9i_plus_8():
    # f4^(9i+7)/(f1^2 f2^(18i+13)) == f12^(3i+2)/(f6^(6i+4) f3) * f1 f4/f2  mod 3
    order = 150
    for i in (1, 2):
        lhs = gen_overcubic_gf(9 * i + 8, order, modulus=3)
        rhs = expand_eta_quotient(
            [(12, 3 * i + 2), (6, -(6 * i + 4)), (3, -1), (1, 1), (4, 1), (2, -1)],
            order,
            modulus=3,
        )
        assert check_identity(lhs, rhs).passed


# -- named identities ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", sorted(n for n in IDENTITIES if n != "negative-control")
)
def test_named_identities_pass_at_reduced_order(name):
    # at orders 0 and 1 a term shifted past the order drops out
    for order in (0, 1, 2, 60):
        assert check_named_identity(name, order).passed, order


def test_named_identity_default_order():
    report = check_named_identity("toh")
    assert report.passed
    assert report.order == IDENTITIES["toh"].default_order


def test_negative_control_identity_fails():
    report = check_named_identity("negative-control")
    assert not report.passed
    assert report.counterexamples


def test_unknown_identity_name():
    with pytest.raises(ValueError, match="unknown identity"):
        check_named_identity("nope")


def test_family_modulus_with_a_large_prime_power_part():
    # the prime-power part 1000003**2 lies past trial division; the
    # composite-vs-component cross-check still splits the modulus
    assert _prime_power_components(4 * 1000003**2) == [4, 1000003**2]
    report = verify_family(CongruenceFamily(1, 1, 2, 0, 4 * 1000003**2), 1, 3, 20)
    assert isinstance(report, VerificationReport)
    assert (report.i_range, report.n_range, report.order) == ((1, 1), (0, 3), 20)


HUGE = 10**5000  # 16610 bits, past CPython's default limit of 4300 digits


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int -> str digit limit before Python 3.10.7")
@pytest.mark.parametrize("refused", [
    lambda: ColoredOverPartition((ColoredPart(2, HUGE + 1),), 2).validate_colors(HUGE),
    lambda: ColoredOverPartition((ColoredPart(2 * HUGE, 2),), 2 * HUGE).validate_colors(1),
    lambda: gen_overcubic_gf(-HUGE, 10),
    lambda: classify_n(-HUGE),
    lambda: expected_mod4_residue(-HUGE, 5),
    lambda: verify_mod4_classification(-HUGE, 10, 10),
    lambda: verify_mod4_classification(1, HUGE, 10),
    lambda: Series([1, 2], modulus=-HUGE),
], ids=["validate_colors", "validate_colors_size", "colored_quotient", "classify_n",
        "expected_mod4_residue", "mod4_c_max", "mod4_order", "validate_modulus"])
def test_refusals_of_a_huge_integer_name_it_by_its_bits(refused):
    # each refusal prints an integer past the digit limit by its bit length,
    # not CPython's int -> str conversion error
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match=r"integer of 1661[01] bits") as info:
            refused()
    finally:
        sys.set_int_max_str_digits(limit)
    assert "Exceeds the limit" not in str(info.value)
