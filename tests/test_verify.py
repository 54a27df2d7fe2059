"""Tests for classification, congruence sweeps, and identity checking."""

import math
import sys
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overcubic.cli as cli_module
import overcubic.eta as eta_module
import overcubic.verify as verify_module
from overcubic.counting import ColoredOverPartition, ColoredPart
from overcubic.eta import (
    EtaQuotient, _colored_quotient, _normalized_factors, expand_eta_quotient, gen_overcubic_gf, psi
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
    # every odd c, whose mod-4 form is f2/f1^2, the first form of the
    # sweep's side; n = 60 lies past n_max and n = 0 before the range, so
    # neither may be reported. Every odd c reads that one form and must
    # report each wrong residue, the even c none
    wrong = {0: 3, 1: 0, 9: 1, 10: 3, 50: 2, 60: 1}
    odd = _normalized_factors(_colored_quotient(1, True), 60, 4)

    def corrupted(form, series):
        coeffs = list(series.coeffs)
        if form == odd:
            for n, residue in wrong.items():
                coeffs[n] = residue
        return Series(coeffs, series.modulus)

    corrupting_runs(monkeypatch, corrupted)
    report = verify_mod4_classification(6, 50, 60)
    assert list(report.counterexamples) == [
        Counterexample(c, n, residue, expected_mod4_residue(c, n))
        for c in (1, 3, 5)
        for n, residue in sorted(wrong.items())
        if 1 <= n <= 50
    ]


def test_mod4_sweep_reports_what_each_c_gives(monkeypatch):
    # wrong residues planted in the series of every even c, whose mod-4 form
    # is f4/(f1^2*f2), the second form of the sweep's side: the sweep
    # compares each parity once, and must report the counterexamples that
    # comparing every c on its own gives, c by c and n by n
    even = _normalized_factors(_colored_quotient(2, True), 40, 4)

    def planted(series):
        coeffs = list(series.coeffs)
        for n in (7, 18, 25):  # neither, twice a square, a square
            coeffs[n] = (coeffs[n] + 1) % 4
        return Series(coeffs, 4)

    corrupting_runs(monkeypatch, lambda form, series: planted(series) if form == even else series)
    report = verify_mod4_classification(7, 40)
    want = []
    for c in range(1, 8):
        series = gen_overcubic_gf(c, 40, 4)
        series = planted(series) if c % 2 == 0 else series
        want.extend(
            Counterexample(c, n, series[n], expected_mod4_residue(c, n))
            for n in range(1, 41)
            if series[n] != expected_mod4_residue(c, n)
        )
    assert report.counterexamples == tuple(want)
    assert [(ce.i, ce.n) for ce in want] == [(c, n) for c in (2, 4, 6) for n in (7, 18, 25)]


def test_mod4_sweep_matches_the_pentagonal_walk(monkeypatch):
    # the sweep expands phi(-q) and phi(-q) * phi(-q^2), the theta walk
    # reduced by phi(-q^n)^2 == 1 (mod 4); forced onto the pentagonal walk,
    # which keeps every Euler factor and divides, it must give the same
    # report, so a wrong reduction cannot pass the check it serves
    want = verify_mod4_classification(10, 2000)
    assert want.passed
    forms, walks = [], []
    real = verify_module._side_plan

    def pentagonal(side, order, m, route, later=()):
        forms.extend(side)
        ways, price = real(side, order, m, "pentagonal", later)
        walks.extend(ways)
        return ways, price

    monkeypatch.setattr(verify_module, "_side_plan", pentagonal)
    assert verify_mod4_classification(10, 2000) == want
    assert forms == [_normalized_factors(_colored_quotient(c, True), 2000, 4) for c in (1, 2)]
    # the Euler factors' walk divides: by f1^2 in the form of odd c, and by
    # f2^2 in f4/f2^2, which takes it to the form of even c
    assert [way for way, _, _ in walks] == ["whole", "quotient"]
    assert all(any(step[2] < 0 for step in steps) for _, _, steps in walks)


@pytest.mark.parametrize("n_max", range(6))
@pytest.mark.parametrize("c_max", range(1, 5))
def test_small_mod4_sweeps_read_each_c_from_its_own_series(monkeypatch, c_max, n_max):
    # below order 4 the forms of odd and even c coincide, and the side
    # serves the second as the first times their empty quotient: the series
    # the sweep reads for c = 1 and c = 2 are those of gen_overcubic_gf, and
    # the report lists exactly what comparing every c's own residues gives
    read = []
    real = verify_module._expand_side

    def recording(ways, m):
        for series in real(ways, m):
            read.append(series)
            yield series

    monkeypatch.setattr(verify_module, "_expand_side", recording)
    report = verify_mod4_classification(c_max, n_max)
    assert report.vacuous == (n_max < 1) and report.order == max(n_max, 0)
    if n_max >= 1:
        assert read == [gen_overcubic_gf(c, n_max, 4) for c in range(1, min(c_max, 2) + 1)]
    want = []
    for c in range(1, c_max + 1):
        series = gen_overcubic_gf(c, max(n_max, 0), 4)
        want.extend(
            Counterexample(c, n, series[n], expected_mod4_residue(c, n))
            for n in range(1, n_max + 1)
            if series[n] != expected_mod4_residue(c, n)
        )
    assert report.counterexamples == tuple(want) == ()


def corrupting_runs(monkeypatch, corrupt):
    """Pass every series the one runner (``_expand_side``) yields to a sweep
    through ``corrupt(form, series)``, each known by the form that its plan
    (``_side_plan``) was made for."""
    planned = {}
    real_plan, real_expand = verify_module._side_plan, verify_module._expand_side

    def planning(forms, order, m, route, later=()):
        ways, price = real_plan(forms, order, m, route, later)
        # the ways are kept, so that no other list takes their id
        planned[id(ways)] = (ways, [*forms, *(form for form, _ in later)])
        return ways, price

    def running(ways, m):
        _, forms = planned[id(ways)]
        for form, series in zip(forms, real_expand(ways, m)):
            yield corrupt(form, series)

    monkeypatch.setattr(verify_module, "_side_plan", planning)
    monkeypatch.setattr(verify_module, "_expand_side", running)


def test_mod4_forms_depend_on_c_only_through_its_parity():
    # the price of the mod-4 sweep plans the forms of c = 1 and c = 2 alone
    for order in (*range(40), 548, 2000, 10**6):
        form = {c % 2: _normalized_factors(_colored_quotient(c, True), order, 4) for c in (1, 2)}
        for c in (*range(1, 80), 10**6, 10**6 + 1, 10**400, 10**400 + 1):
            assert _normalized_factors(_colored_quotient(c, True), order, 4) == form[c % 2]


def test_sweeps_expand_each_distinct_quotient_once(monkeypatch):
    # each sweep serves each base, a distinct (form, modulus, route) that the
    # first i of a family read, once, by the way its side's plan gave it,
    # and builds each Step once per (modulus, route, exponent, s): a form
    # served twice would show as more forms served than distinct ones, a
    # Step built twice as a repeated key
    keys = recorded_expansions(monkeypatch)
    served = recorded_sides(monkeypatch)
    built = recorded_steps(monkeypatch)
    # mod 4 the overlined series is f2/f1^2 for odd c and f4/(f1^2*f2) for
    # even c, one side of two forms, each run whole: the plan walks each
    # form and their quotient once
    verify_mod4_classification(10, 200, 200)
    assert len(keys) == len(set(keys)) == 3
    assert served == [(_normalized_factors(_colored_quotient(c, True), 200, 4), 4, None, "whole")
                      for c in (1, 2)]
    # at order 1 the forms coincide: the second is the first times their
    # empty quotient, the same series, which is served twice and walks nothing
    served.clear()
    verify_mod4_classification(4, 1)
    assert served == [([(1, -2)], 4, None, "whole"), ([(1, -2)], 4, None, "quotient")]
    served.clear()
    # the bases: c = 5 mod 6, 2 and 3, whose family steps i by 1, and
    # c = 14, 23, 17, 26 mod 12 and 4 and c = 14, 17 mod 3, whose families
    # step i by 2 mod 12 and 4 and by 1 mod 3. The series is 1 mod 2 and
    # takes two forms mod 4, which leaves 11 distinct of 14 reads; serving
    # mod 4 or mod 3 from a mod-12 series would show as fewer. The Steps,
    # (f4/f2^2)^e in q^s: e = 3 at s = 3 mod 6 and mod 3, e = 9 at s = 9
    # mod 3, e = 18 at s = 9 mod 12; mod 2 and mod 4 the Step is 1 and
    # expands nothing
    verify_proved_families(3, 21, 200)
    assert len(served) == len(set(served)) == 11
    assert Counter((m, route) for _, m, route, _ in served) == {
        (2, "pentagonal"): 1, (3, "pentagonal"): 3, (4, "pentagonal"): 2,
        (6, "theta"): 1, (12, "theta"): 4,
    }
    # each at the least order its progressions read, 3*21 + 2 and 9*21 + 8
    step_order = {3: 65, 9: 197}
    assert sorted(built) == sorted(
        (m, s, tuple(_normalized_factors(verify_module._step_quotient(e), step_order[s], m)))
        for m, s, e in ((2, 3, 3), (3, 3, 3), (3, 9, 9), (4, 9, 18), (6, 3, 3), (12, 9, 18))
    )
    assert [form for m, _, form in built if m in (2, 4)] == [(), ()]
    # served by the ways their plans priced cheaper: the lone base mod 2
    # and mod 6 and the first base of every other side by its whole walk,
    # the rest as the base before them times their quotient, but the second
    # base mod 4, whose whole walk finds the rungs the first one left in the
    # side's dict and is priced under its quotient and one product
    assert Counter((m, way) for _, m, _, way in served) == {
        (2, "whole"): 1, (6, "whole"): 1, (3, "whole"): 1, (4, "whole"): 2, (12, "whole"): 1,
        (3, "quotient"): 2, (12, "quotient"): 3,
    }
    # at i <= 20 each sweep serves the same bases and Steps as at i <= 3,
    # at n <= 30 and at n <= 10, where the lower order makes forms of
    # distant c coincide: 11 and 15 bases, and 6 and 5 Steps, of which 4
    # and 3 expand
    for sweep, bases, steps in ((verify_proved_families, 11, 6), (verify_conjectured_families, 15, 5)):
        for n_max in (30, 10):
            served.clear()
            built.clear()
            sweep(20, n_max)
            assert len(served) == len(set(served)) == bases
            assert len(built) == len(set(built)) == steps
            assert [m for m, _, form in built if not form] == [2, 4]


def recorded_steps(monkeypatch):
    """The ``(modulus, s, form)`` of every Step a family sweep builds
    (``_step_series``) while the test runs: ``form`` is empty for a Step of
    1, which expands nothing."""
    built = []
    real = verify_module._step_series

    def recording(form, runs, s, n_max, m):
        built.append((m, s, form))
        return real(form, runs, s, n_max, m)

    monkeypatch.setattr(verify_module, "_step_series", recording)
    return built


def recorded_sides(monkeypatch):
    """The ``(form, modulus, route, way)`` of every form a sweep's sides
    serve (``_expand_side``) while the test runs, each side known by the
    plan (``_side_plan``) that gave it its ways; the Steps that a family
    sweep's side runs after its forms are left to ``recorded_steps``."""
    served, planned = [], {}
    real_plan, real_expand = verify_module._side_plan, verify_module._expand_side

    def planning(forms, order, m, route, later=()):
        ways, price = real_plan(forms, order, m, route, later)
        # the ways are kept, so that no other list takes their id
        planned[id(ways)] = (ways, forms, route)
        return ways, price

    def recording(ways, m):
        _, forms, route = planned[id(ways)]
        for k, series in enumerate(real_expand(ways, m)):
            if k < len(forms):
                served.append((forms[k], m, route, ways[k][0]))
            yield series

    monkeypatch.setattr(verify_module, "_side_plan", planning)
    monkeypatch.setattr(verify_module, "_expand_side", recording)
    return served


def recorded_expansions(monkeypatch):
    """The ``(factors, order, modulus, route)`` key of every walk planned
    (``_planned_steps``) while the test runs: one for each expansion
    through ``expand_eta_quotient``, and one for each way a family sweep's
    side prices."""
    keys = []
    real = eta_module._planned_steps

    def recording(factors, order, m, route, held=frozenset()):
        keys.append((tuple(factors), order, m, route))
        return real(factors, order, m, route, held)

    monkeypatch.setattr(eta_module, "_planned_steps", recording)
    return keys


def test_a_sweep_runs_the_steps_its_price_planned(monkeypatch):
    # thm15's mod-12 Step phi(-q^2)^-18 is planned after the bases, whose
    # phi(-q^2)^-13 leaves the rungs +-1 in the side's dict, and is priced
    # below its cold price; given the plan it was priced by, the sweep runs
    # each of its plans once, as planned: every base served whole or by a
    # quotient that is not 1, and every Step that is not 1
    price, sides = verify_module._families_work(PROVED_FAMILIES, 3, 60)
    side = sides[12, "theta"]
    stepped = [form for form in side.steps.values() if form]
    _, top, plan = side.ways[len(side.bases) + stepped.index(side.steps[9, 18])]
    cold = eta_module._planned_steps(side.steps[9, 18], 543, 12, "theta")
    assert top == 543 and eta_module._plan_price(plan) < eta_module._plan_price(cold)
    with runs_recorded() as runs:
        reports = verify_module._verify_families(PROVED_FAMILIES, 3, 60, None, sides)
    runs.match([side.ways for side in sides.values()])
    assert reports == verify_proved_families(3, 60)
    # an expansion over Z and mod 12 runs the plan that the CLI priced
    argv = ["expand", "--gf", "overcubic", "--c", "10", "--order", "300"]
    for modulus in ([], ["--modulus", "12"]):
        plans = []
        real_price = cli_module._expand_price

        def pricing(*args):
            priced = real_price(*args)
            plans.append(priced[1])
            return priced

        monkeypatch.setattr(cli_module, "_expand_price", pricing)
        with runs_recorded() as runs:
            assert cli_module.main([*argv, *modulus]) == 0
        monkeypatch.undo()
        runs.match(plans)
    # and so does the mod-4 sweep: one side, a form for each parity
    price, ways = verify_module._mod4_classification_work(10, 300)
    assert len(ways) == 2
    with runs_recorded() as runs:
        report = verify_module._verify_mod4(10, 300, None, ways)
    runs.match([ways])
    assert runs.passes["terms"] == 3  # phi(-q), and phi(-q) * phi(-q^2)
    assert report == verify_mod4_classification(10, 300)


class _Runs:
    """What the one runner ran: the id of each list of planned steps it ran
    (``_run_steps``), and its multiply passes term by term and by slices."""

    def __init__(self):
        self.ran, self.passes = [], Counter()

    def match(self, plans):
        """Each list of steps of the side plans ``plans`` that runs, a whole
        walk or a quotient that is not 1, ran once, and its multiply steps
        ran the term-by-term split they were planned with."""
        run = [steps for ways in plans for way, _, steps in ways if way == "whole" or steps]
        assert sorted(self.ran) == sorted(map(id, run))
        passes = Counter()
        for _, _, k, _, _, _, dense, by_terms, _ in (step for steps in run for step in steps):
            if not dense and k > 0:
                passes["terms"] += by_terms
                passes["slices"] += k - by_terms
        assert self.passes == passes


@contextmanager
def runs_recorded():
    """A :class:`_Runs` of what the runner runs while the block runs."""
    runs = _Runs()
    real_run, real_terms, real_slices = eta_module._run_steps, eta_module._times_terms, eta_module._times_f

    def running(steps, order, m, powers):
        runs.ran.append(id(steps))
        return real_run(steps, order, m, powers)

    def by_terms(*args):
        runs.passes["terms"] += 1
        return real_terms(*args)

    def by_slices(*args):
        runs.passes["slices"] += 1
        return real_slices(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eta_module, "_run_steps", running)
        mp.setattr(eta_module, "_times_terms", by_terms)
        mp.setattr(eta_module, "_times_f", by_slices)
        yield runs


def test_family_sides_take_independent_routes(monkeypatch):
    # the composite side plans the theta walk, each prime-power side the
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


def test_empty_ranges_default_to_order_zero():
    # a sweep over an empty i range or an empty n range reads nothing, so it
    # runs at order 0 by default, whatever the other range
    for sweep in (verify_proved_families, verify_conjectured_families):
        for i_max, n_max in ((0, 100), (-2, 100), (3, -1), (0, -1)):
            reports = sweep(i_max, n_max)
            assert {r.order for r in reports} == {0}
            assert all(r.vacuous and r.passed for r in reports)


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


@st.composite
def congruence_families(draw, slopes=st.integers(1, 9)):
    slope = draw(slopes)
    modulus = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 27, 36]))
    return CongruenceFamily(
        draw(st.integers(0, 27)), draw(st.integers(1, 12)), slope, draw(st.integers(0, slope - 1)),
        modulus, draw(st.integers(0, modulus - 1)),
    )


def per_form_reports(families, i_max, n_max, order):
    """The reports of ``_verify_families``, from every (i, side) of every
    family expanded on its own; the (i, n) that fail mod the family's
    modulus must be those that fail mod one of its prime-power parts."""
    reports = []
    for family in families:
        parts = _prime_power_components(family.modulus)
        sides = [(family.modulus, "theta")] + [(pe, "pentagonal") for pe in parts if len(parts) > 1]
        failures = {}
        for modulus, route in sides:
            for i in range(1, i_max + 1):
                series = expand_eta_quotient(_colored_quotient(family.c_for(i), True), order, modulus, route)
                prog = series.coeffs[family.prog_intercept :: family.prog_slope][: n_max + 1]
                failures.setdefault(route, {}).update(
                    ((i, n), got) for n, got in enumerate(prog) if got != family.residue % modulus
                )
        assert set(failures.get("pentagonal", failures["theta"])) == set(failures["theta"])
        bad = tuple(Counterexample(i, n, got, family.residue) for (i, n), got in sorted(failures["theta"].items()))
        reports.append(VerificationReport(family.describe(), (1, i_max), (0, n_max), order, bad))
    return reports


@settings(max_examples=40, deadline=None)
@given(st.lists(congruence_families(), min_size=1, max_size=3), st.integers(1, 6), st.integers(0, 40))
def test_family_sweep_matches_a_per_form_loop(families, i_max, n_max):
    # the sweep's sides share factors and serve each form once; the reports,
    # mostly of false families, must be those of a loop that expands every
    # (i, side) on its own
    order = max(f.prog_slope * n_max + f.prog_intercept for f in families)
    got = verify_module._verify_families(families, i_max, n_max, None)
    assert got == per_form_reports(families, i_max, n_max, order)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(congruence_families(st.sampled_from([1, 2, 3, 9, 27])), min_size=1, max_size=2),
    st.integers(7, 24),
    st.integers(0, 6),
)
def test_stepped_sweep_matches_a_per_form_loop(families, i_max, n_max):
    # i ranges long enough for the leads of 2, 3, 9 and 18 values of i that
    # the periods give: mod 4 (P = 2), mod 3 at s = 3 and mod 6 at s = 9
    # (3, 9) and mod 12 at s = 9 (18). Every i past its family's lead reads
    # the progression of i - lead times a Step; the reports must be those of
    # a loop that expands every (i, side) on its own
    order = max(f.prog_slope * n_max + f.prog_intercept for f in families)
    got = verify_module._verify_families(families, i_max, n_max, None)
    assert got == per_form_reports(families, i_max, n_max, order)


@pytest.mark.parametrize("modulus,s,period", [
    (2, 3, 1), (2, 9, 1), (4, 9, 2), (3, 3, 3), (3, 9, 9), (6, 3, 3), (6, 9, 9), (12, 9, 18),
    (8, 9, 4), (9, 3, 9), (9, 9, 27), (27, 3, 27), (27, 27, None), (2**61 - 1, 5, None),
    (5, 1, 1), (97, 2, 1),
])
def test_step_periods(modulus, s, period):
    # the least P with (f4/f2^2)^P a series in q^s, the lcm over the
    # prime-power parts; past the bound no period, and every i is a base
    order = 30 * s
    assert verify_module._step_period(modulus, s, order) == period
    if period is not None:
        step = expand_eta_quotient(verify_module._step_quotient(period), order, modulus)
        assert not any(c for e, c in enumerate(step.coeffs) if e % s)


def test_every_i_of_a_constant_family_reads_one_form(monkeypatch):
    # at c_slope = 0 every i reads the series of one c: one form served per
    # side and no Step expanded, whatever the i range
    served = recorded_sides(monkeypatch)
    built = recorded_steps(monkeypatch)
    family = CongruenceFamily(0, 5, 3, 2, 6)
    report = verify_family(family, 30, 20, None)
    assert Counter((m, route) for _, m, route, _ in served) == {
        (6, "theta"): 1, (2, "pentagonal"): 1, (3, "pentagonal"): 1,
    }
    assert all(form == () for *_, form in built)
    assert report == per_form_reports([family], 30, 20, 62)[0]


def test_proved_sweep_takes_a_step_product_on_each_side(monkeypatch):
    # thm15 at i <= 3 steps some i on its mod-6, mod-3 and mod-12 sides, so
    # that the stepped route is what the sweeps above compare
    products = Counter()
    real = verify_module._step

    def counting(progression, step):
        if step is not None:
            products[progression.modulus] += 1
        return real(progression, step)

    monkeypatch.setattr(verify_module, "_step", counting)
    verify_proved_families(3, 40)
    # mod 6 and mod 3 at s = 3 step i = 2, 3, mod 3 at s = 9 as well, and
    # mod 12 i = 3 of its two families
    assert products == {6: 2, 3: 6, 12: 2}


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
    report = check_identity(psi(order), expand_eta_quotient(EtaQuotient([(2, 2), (1, -1)]), order))
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
            EtaQuotient([(12, i + 1), (6, -(2 * i + 1)), (2, 2), (1, -2), (4, -2)]),
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
            EtaQuotient([(4, 3 * i + 1), (2, -(6 * i + 2)), (1, -1)]), m, modulus=3
        ) * theta_sum(F_MINUS_Q_Q2, m).reduce_mod(3)
        assert pulled == rhs
        assert pulled.extract_progression(3, 1).is_zero()


def test_mod3_reduction_for_c_9i_plus_8():
    # f4^(9i+7)/(f1^2 f2^(18i+13)) == f12^(3i+2)/(f6^(6i+4) f3) * f1 f4/f2  mod 3
    order = 150
    for i in (1, 2):
        lhs = gen_overcubic_gf(9 * i + 8, order, modulus=3)
        rhs = expand_eta_quotient(
            EtaQuotient([(12, 3 * i + 2), (6, -(6 * i + 4)), (3, -1), (1, 1), (4, 1), (2, -1)]),
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
