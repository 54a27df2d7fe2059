"""Residue classification, congruence-family sweeps, and identity checks.

Everything here is finite-order verification: a claim of the shape
"coefficient along an arithmetic progression vanishes mod m" is tested by
expanding the relevant generating function far enough and reading the
coefficients off. A :class:`VerificationReport` records exactly which
ranges were covered, so a pass never silently claims more than was checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import compress, count, repeat
from typing import Callable, List, Optional, Tuple

from .counting import EngineInconsistencyError, _factorize
from .eta import (
    _CHAN_A2, _OVERCUBIC_MOD3_C5, _RAMANUJAN_P5, _TOH_LHS,
    EtaQuotient,
    _colored_quotient,
    _expand_side,
    _normalized_factors,
    _product_price,
    _side_plan,
    F_MINUS_Q_Q2,
    F_Q3_Q6,
    PHI_SPEC,
    PSI_NEG_SPEC,
    PSI_SPEC,
    chi,
    expand_f,
    gen_cubic_gf,
    gen_overcubic_gf,
    phi,
    psi,
    psi_neg,
    theta_sum,
    toh_rhs,
)
from .series import WORK_CAP, Series, _check_work, _show

__all__ = [
    "SQUARE",
    "TWICE_SQUARE",
    "OTHER",
    "Mod4Class",
    "CongruenceFamily",
    "Counterexample",
    "EngineInconsistencyError",
    "VerificationReport",
    "classify_n",
    "expected_mod4_residue",
    "verify_mod4_classification",
    "verify_family",
    "PROVED_FAMILIES",
    "CONJECTURED_FAMILIES",
    "verify_proved_families",
    "verify_conjectured_families",
    "check_identity",
    "IDENTITIES",
    "check_named_identity",
]

SQUARE = "square"
TWICE_SQUARE = "twice_square"
OTHER = "other"


@dataclass(frozen=True)
class Mod4Class:
    """Whether n is a perfect square, twice a square, or neither.

    The witness k satisfies ``n == k*k`` or ``n == 2*k*k``; it is absent
    exactly for the ``other`` class. No positive integer is both a square
    and twice a square, so the tags are mutually exclusive.
    """

    tag: str
    witness: Optional[int] = None

    def __post_init__(self):
        if self.tag not in (SQUARE, TWICE_SQUARE, OTHER):
            raise ValueError(f"unknown tag {self.tag!r}")
        if (self.witness is None) != (self.tag == OTHER):
            raise ValueError("witness present iff tag is square or twice_square")


def classify_n(n: int) -> Mod4Class:
    if n < 1:
        raise ValueError(f"classification needs n >= 1, got {_show(n)}")
    k = math.isqrt(n)
    if k * k == n:
        return Mod4Class(SQUARE, k)
    k = math.isqrt(n // 2)
    if 2 * k * k == n:
        return Mod4Class(TWICE_SQUARE, k)
    return Mod4Class(OTHER)


def expected_mod4_residue(c: int, n: int) -> int:
    """The mod-4 residue of the overlined c-colored count predicted from n.

    2 when n is a square, ``2(c+1) mod 4`` when n is twice a square,
    0 otherwise.
    """
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {_show(c)}")
    tag = classify_n(n).tag
    if tag == SQUARE:
        return 2
    if tag == TWICE_SQUARE:
        return (2 * (c + 1)) % 4
    return 0


@dataclass(frozen=True)
class CongruenceFamily:
    """The claim: for i >= 1 and n >= 0, with c = c_slope*i + c_intercept,
    the overlined c-colored count at ``prog_slope*n + prog_intercept`` is
    congruent to ``residue`` mod ``modulus``.
    """

    c_slope: int
    c_intercept: int
    prog_slope: int
    prog_intercept: int
    modulus: int
    residue: int = 0

    def __post_init__(self):
        if self.c_slope < 0:
            raise ValueError("c_slope must be non-negative")
        if self.c_intercept < 1:
            raise ValueError("c_intercept must be at least 1")
        if self.prog_slope < 1:
            raise ValueError("prog_slope must be at least 1")
        if not 0 <= self.prog_intercept < self.prog_slope:
            raise ValueError("prog_intercept must lie in [0, prog_slope)")
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in [0, modulus)")

    def c_for(self, i: int) -> int:
        return self.c_slope * i + self.c_intercept

    def describe(self) -> str:
        return (
            f"abar_({self.c_slope}i+{self.c_intercept})"
            f"({self.prog_slope}n+{self.prog_intercept})"
            f" == {self.residue} (mod {self.modulus})"
        )


@dataclass(frozen=True)
class Counterexample:
    """One failing coefficient: parameter index, progression index, values.

    ``i`` is the swept parameter (the family index, or c for the mod-4
    sweep); it is None for plain two-series identity checks.
    """

    i: Optional[int]
    n: int
    observed: int
    expected: int

    def to_dict(self) -> dict:
        return {"i": self.i, "n": self.n, "observed": self.observed, "expected": self.expected}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one finite sweep; pass means zero counterexamples.

    Ranges are inclusive ``(lo, hi)`` pairs; ``hi < lo`` means empty.
    """

    description: str
    i_range: Optional[Tuple[int, int]]
    n_range: Tuple[int, int]
    order: int
    counterexamples: Tuple[Counterexample, ...] = ()

    @property
    def vacuous(self) -> bool:
        """True when a swept range is empty, so the pass checked nothing."""
        ranges = [self.n_range] if self.i_range is None else [self.i_range, self.n_range]
        return any(hi < lo for lo, hi in ranges)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "i_range": list(self.i_range) if self.i_range else None,
            "n_range": list(self.n_range),
            "order": self.order,
            "status": self.status,
            "vacuous": self.vacuous,
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


def verify_mod4_classification(
    c_max: int, n_max: int, order: Optional[int] = None
) -> VerificationReport:
    """Compare series coefficients mod 4 against the square / twice-square /
    other prediction for every c <= c_max and 1 <= n <= n_max, at ``order``,
    by default the least that covers them, ``n_max``, or 0 when ``n_max < 1``.
    The mod-4 form of the series depends on c only through its parity, so
    the sweep is one side of the forms of c = 1 and c = 2, ``f2/f1^2`` and
    ``f4/(f1^2*f2)``, planned and priced by
    :func:`_mod4_classification_work`, refused over ``WORK_CAP``
    (``series._check_work``) before anything is expanded, and then run from
    that plan. Each series is compared once, for its parity; the mismatches
    of a parity are reported for every c of it. The side runs the theta walk,
    which expands them as ``phi(-q)`` and ``phi(-q) * phi(-q^2)``, since
    ``phi(-q^n)^2 == 1 (mod 4)``, so no step divides; the paper's mod-4
    theorem rests on the same fact, so the test
    ``test_mod4_sweep_matches_the_pentagonal_walk`` guards the reduction: the
    Euler factors' walk, which divides, must give the same report. Both
    series and the prediction are nonzero on O(sqrt(n_max)) exponents, so a
    series is compared there alone (:func:`_mod4_mismatches`), and no row,
    tuple or slice of ``n_max`` entries is built besides the series; the
    report is that of comparing every residue."""
    order = _mod4_order(c_max, n_max, order)
    price, ways = _mod4_classification_work(c_max, n_max, order)
    _check_work(price, f"the mod-4 sweep of c <= {_show(c_max)} to n = {_show(n_max)}", "; lower n_max or c_max")
    report = VerificationReport(
        description=f"mod-4 residue classification for c <= {c_max}",
        i_range=(1, c_max),
        n_range=(1, n_max),
        order=order,
    )
    if report.vacuous:
        return report
    # the form depends on c only through its parity, and so does the
    # prediction, so each parity is compared once, at its least c, and its
    # mismatches are reported for every c of it; map, unlike a loop over
    # enumerate, keeps no series while the next one is built
    runs = map(_mod4_mismatches, _expand_side(ways, 4), count(1), repeat(n_max))
    mismatches = dict(zip((1, 0), runs))
    bad = tuple(
        Counterexample(c, n, got, want)
        for c in range(1, c_max + 1)
        for n, got, want in mismatches[c % 2]
    )
    return replace(report, counterexamples=bad)


def _mod4_mismatches(series: Series, c: int, n_max: int) -> List[Tuple[int, int, int]]:
    """The ``(n, observed, expected)`` of every ``1 <= n <= n_max`` at which
    the residues of ``series``, that of c, differ from the prediction,
    by increasing n. The prediction is 2 at a square, ``2(c+1) mod 4`` at
    twice a square and 0 elsewhere, so a residue can differ from it only on
    those O(sqrt(n_max)) exponents or where it is not 0: only they are
    compared, and no row of ``n_max`` predictions is built."""
    coeffs = series.coeffs
    expected = dict.fromkeys((2 * k * k for k in range(1, math.isqrt(n_max // 2) + 1)), 2 * (c + 1) % 4)
    expected.update(dict.fromkeys((k * k for k in range(1, math.isqrt(n_max) + 1)), 2))
    # compress stops at the end of the range, n_max, where the series may run on
    support = expected.keys() | compress(range(n_max + 1), coeffs)
    support.discard(0)
    return [(n, coeffs[n], want) for n in sorted(support) if coeffs[n] != (want := expected.get(n, 0))]


def _mod4_order(c_max: int, n_max: int, order: Optional[int]) -> int:
    """The order :func:`verify_mod4_classification` runs at, once its
    arguments are checked."""
    if c_max < 1:
        raise ValueError(f"c_max must be at least 1, got {_show(c_max)}")
    order = max(n_max, 0) if order is None else order
    if order < n_max:
        raise ValueError(f"order {_show(order)} is below n_max {_show(n_max)}; coefficients unknown")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {_show(order)}")
    return order


# What the mod-4 sweep costs besides the plans of its expansions, in updates
# of a sparse pass. Each c swept took 81-100 ns (c <= 2 * 10^7 at n <= 2000,
# in process) where an update took 14-15 ns at the work cap's other edges
# (a DP count and thm15, cold), under its price. Each
# coefficient of a series the side builds is priced by the memory the sweep
# holds, not by its time, and covers the scans that compare the series on
# its support: about 23 bytes a coefficient at the peak (82 MB at c <= 10,
# n = 2 850 392), so that no admitted sweep holds much more.
_MOD4_FORM_COEFFICIENT_PRICE = 24
_MOD4_COLOR_PRICE = 8


def _mod4_classification_work(
    c_max: int, n_max: int, order: Optional[int] = None
) -> Tuple[float, Optional[list]]:
    """``(price, ways)`` of ``verify_mod4_classification(c_max, n_max,
    order)``: the plan of its one side (:func:`~overcubic.eta._side_plan`),
    which the sweep runs as it is, and its price in the unit of
    ``series._check_work``. The side lists the normalized mod-4 forms of the
    overlined series at c = 1 and, when c_max reaches it, c = 2, the forms
    of odd and of even c: mod 4 the exponents of ``f4^(c-1)/(f1^2*f2^(2c-3))``
    reduce to -2 at 1, 1 or -1 at 2 and 0 or 1 at 4, as c is odd or even.
    Below order 4 the two forms coincide, and the planner runs the second as
    the first times their empty quotient: the same series. The side takes
    the theta walk, since mod 4 none of its steps divides. The price is the
    side's, with ``_MOD4_FORM_COEFFICIENT_PRICE`` for each coefficient of
    each series the side builds (not the second form where it is the first),
    which covers the scans that compare it, then ``_MOD4_COLOR_PRICE`` for
    each c swept. ``(0, [])`` for an empty range, which expands nothing; past
    ``WORK_CAP`` colors or coefficients, the colors and coefficients alone,
    which price it over the cap at once, and no plan."""
    order = _mod4_order(c_max, n_max, order)
    if n_max < 1:
        return 0.0, []
    if c_max >= WORK_CAP or order >= WORK_CAP:
        return float(min(c_max * _MOD4_COLOR_PRICE + order + 1, 2**64)), None
    forms = [_normalized_factors(_colored_quotient(c, True), order, 4) for c in range(1, min(c_max, 2) + 1)]
    ways, price = _side_plan([(form, order) for form in forms], 4, "theta")
    built = sum(1 for way, _, steps in ways if way == "whole" or steps)
    price += built * (order + 1) * _MOD4_FORM_COEFFICIENT_PRICE
    return price + c_max * _MOD4_COLOR_PRICE, ways


def _prime_power_components(m: int) -> List[int]:
    return [p**a for p, a in sorted(_factorize(m).items())]


def verify_family(
    family: CongruenceFamily, i_max: int, n_max: int, order: int
) -> VerificationReport:
    """Sweep a congruence family over i in [1, i_max] and n in [0, n_max].

    For a composite modulus the sweep also runs each prime-power component
    separately and insists the two routes agree on exactly which (i, n)
    fail. The composite side expands ``1/(phi(-q) * phi(-q^2)^(c-1))``,
    the theta route; each prime-power side expands the Euler factors
    ``f4^(c-1)/(f1^2*f2^(2c-3))`` after reducing their exponents, the
    pentagonal route. Both share the walk by descending subscript in
    ``q^g``, the one sparse division kernel of :mod:`overcubic.series` and
    one cost model picking sparse passes or dense powering for each step,
    and each side expands under its own modulus. Each side steps i by the
    period of its modulus: the series of c and of c + e differ by
    ``(f4/f2^2)^e``, a series in ``q^s`` mod the side's modulus when e is
    a multiple of its period P at the progression's slope s (the lcm over
    its prime-power parts of the least P whose ``(f4/f2^2)^P``, normalized
    mod the part, has every subscript divisible by s), so the progression
    of i + lead is that of i times one Step series at order ``n_max``,
    with ``lead = lcm(P, c_slope) / c_slope``. Only the first ``lead``
    values of i are expanded, the bases. Each side is planned as one list
    of expansions, its bases and then its Steps, and run from that plan by
    the one runner of :mod:`overcubic.eta`: an expansion at the order of
    the one before it, a base or a Step, may be that series times their
    quotient, where the plan prices that cheaper, and the bases and Steps
    share one dict of dense powers, but never another side's
    series, Step or power, so the two routes stay independent. The sweep
    is priced by that plan (:func:`_families_work`) and refused over
    ``WORK_CAP`` (``series._check_work``) before anything is expanded. A
    disagreement, or a Step off ``q^s``, means the engine itself is broken
    and raises :class:`EngineInconsistencyError`.
    """
    return _verify_families([family], i_max, n_max, order)[0]


# The three families with elementary proofs, and the five conjectured ones
# (three of which are instances of the first proved family).
PROVED_FAMILIES = (
    CongruenceFamily(3, 2, 3, 2, 6),
    CongruenceFamily(9, 5, 9, 3, 12),
    CongruenceFamily(9, 8, 9, 3, 12),
)

CONJECTURED_FAMILIES = (
    CongruenceFamily(3, 2, 9, 2, 6),
    CongruenceFamily(3, 2, 9, 5, 6),
    CongruenceFamily(3, 2, 9, 8, 6),
    CongruenceFamily(9, 5, 9, 3, 12),
    CongruenceFamily(9, 8, 9, 3, 12),
)


def _verify_families(families, i_max: int, n_max: int, order: Optional[int]):
    """One report per family, all at ``order``: by default the least that
    covers every family, or 0 when the i or the n range is empty, which
    reads nothing at any order that is not negative. The plan of its sides
    (:func:`_families_work`) is priced and refused over ``WORK_CAP`` before
    anything is expanded. Each side of :func:`verify_family`, a ``(modulus,
    route)`` pair, then runs its plan step for step as it was priced,
    through the one runner :func:`~overcubic.eta._expand_side`, which holds
    one dict of dense powers for the side's list of expansions, and reads
    each expansion as its entry of the side's reads says, in one pass. Its
    bases, the series of the first i of each family, are expanded once for
    all their readers, keyed on their normalized form; its Steps follow.
    Each later i of a family reads the progression of ``i - lead`` times the
    side's Step series for the family's exponent e: mod the side's modulus
    ``(f4/f2^2)^e`` is a series in ``q^s``, s the slope of the progression,
    so it passes through the progression, and one product at order
    ``n_max`` replaces an expansion at order ``s*n_max + r``. A Step with a
    coefficient off ``q^s`` raises :class:`EngineInconsistencyError`."""
    order = _families_order(families, i_max, n_max, order)
    price, sides = _families_work(families, i_max, n_max, order)
    _check_work(price, f"the family sweep of i <= {_show(i_max)} to n = {_show(n_max)}", "; lower n_max or i_max")
    reports = [VerificationReport(f.describe(), (1, i_max), (0, n_max), order) for f in families]
    if reports[0].vacuous:  # every report covers the same ranges
        return reports
    # failures[j, route] maps (i, n) to the offending residue of family j
    failures = {}
    for (modulus, route), side in sorted(sides.items()):
        progressions, steps = {}, {}
        for (key, read), series in zip(side.reads, _expand_side(side.ways, modulus)):
            if key is not None:  # a Step, read by its form
                steps[key] = _step_series(series, read, key[0], n_max, modulus)
                continue
            for j, i in read:
                family = families[j]
                progression = series.extract_progression(family.prog_slope, family.prog_intercept)
                progressions[j, i] = progression.truncate(n_max)
        for j, (lead, key) in side.leads.items():
            want = families[j].residue % modulus
            found = failures.setdefault((j, route), {})
            for i in range(1, i_max + 1):
                if i > lead:
                    progressions[j, i] = _step(progressions.pop((j, i - lead)), steps.get(key))
                found.update(
                    ((i, n), got) for n, got in enumerate(progressions[j, i].coeffs) if got != want
                )
    for j, family in enumerate(families):
        own = failures[j, "theta"]
        # with no prime-power parts there is nothing to cross-check
        if set(failures.get((j, "pentagonal"), own)) != set(own):
            raise EngineInconsistencyError(
                "prime-power decomposition disagrees with the direct check "
                f"for {family.describe()}: this is an engine bug"
            )
        bad = [Counterexample(i, n, got, family.residue) for (i, n), got in sorted(own.items())]
        reports[j] = replace(reports[j], counterexamples=tuple(bad))
    return reports


def _families_order(families, i_max: int, n_max: int, order: Optional[int]) -> int:
    """The order :func:`_verify_families` runs at, once its arguments are
    checked."""
    empty = i_max < 1 or n_max < 0
    needed = [f.prog_slope * n_max + f.prog_intercept for f in families]
    if order is None:
        order = 0 if empty else max(needed)
    for family, least in zip(families, needed):
        if order < least and not empty:
            raise ValueError(
                f"order {order} is insufficient: progression "
                f"{family.prog_slope}n+{family.prog_intercept} with n <= {n_max} "
                f"needs order >= {least}"
            )
        if order < 0:
            raise ValueError(f"order must be non-negative, got {_show(order)}")
    return order


# The periods searched for: the families' are 1 to 18, and the least period
# mod 9 at s = 9 and mod 27 at s = 3 is 27.
_PERIOD_BOUND = 32


def _step_quotient(e: int) -> EtaQuotient:
    """``(f4/f2^2)^e``, the series of c + e over the series of c."""
    return EtaQuotient([(4, e), (2, -2 * e)])


def _step_order(s: int, n_max: int, order: int) -> int:
    """The order a Step in ``q^s`` is built at: the least that covers the
    coefficients ``s*n + r`` with ``n <= n_max`` of every progression of
    slope s, which the sweep's order covers."""
    return min(order, s * n_max + s - 1)


def _step_period(modulus: int, s: int, order: int) -> Optional[int]:
    """The least P for which ``(f4/f2^2)^P`` is a series in ``q^s`` up to
    ``order`` mod ``modulus``, or ``None`` past ``_PERIOD_BOUND``: the lcm of
    the periods of the prime-power parts of the modulus. Mod 2 that is 1,
    since ``f4 == f2^2``; mod 4 it is 2; mod 3 it is 3 at s = 3 and 9 at
    s = 9, and mod 12 it is 18 at s = 9."""
    periods = [_part_period(part, s, order) for part in _prime_power_components(modulus)]
    return None if None in periods else math.lcm(*periods)


# A sweep's plan asks it for each prime-power part of each side of each
# family: thm15 asks 12 times for 4 distinct (part, s), conj73 20 times for 3.
@lru_cache(maxsize=64)
def _part_period(part: int, s: int, order: int) -> Optional[int]:
    """The least P up to ``_PERIOD_BOUND`` whose ``(f4/f2^2)^P``, normalized
    mod the prime power ``part`` (:func:`~overcubic.eta._normalized_factors`),
    has every subscript divisible by s, or ``None``."""
    for p in range(1, _PERIOD_BOUND + 1):
        if all(n % s == 0 for n, _ in _normalized_factors(_step_quotient(p), order, part)):
            return p
    return None


@dataclass(frozen=True)
class _Side:
    """The plan of one ``(modulus, route)`` side of a family sweep.

    ``leads`` maps each family j on the side to ``(lead, key)``: its first
    ``lead`` values of i are bases, and each later i is the progression of
    ``i - lead`` times the Step of ``key = (s, e)``, or the same progression
    when that Step is 1. A family with no period has every i a base, and a
    key of ``None``. ``ways`` holds the planned expansions that
    :func:`~overcubic.eta._expand_side` runs
    (:func:`~overcubic.eta._side_plan`), and ``reads`` what reads each, in
    the same order: ``(None, readers)`` for a base, the ``(j, i)`` that
    read it, by the least c that reads them, so that each base follows its
    nearest neighbour; then ``(key, form)`` for each Step that is not 1,
    its normalized form. ``price`` is what the side costs: its expansions
    as planned, and one product at ``n_max`` for each stepped i.
    """

    reads: list
    leads: dict
    ways: list
    price: float


def _sides_of(family: CongruenceFamily) -> List[Tuple[int, str]]:
    """The ``(modulus, route)`` sides that check ``family``: the theta walk
    under its modulus and, for a composite one, the Euler factors under
    each prime-power part."""
    parts = _prime_power_components(family.modulus)
    return [(family.modulus, "theta")] + [(part, "pentagonal") for part in parts if len(parts) > 1]


def _family_sides(families, i_max: int, n_max: int, order: int) -> dict:
    """The plan of each side (:func:`_sides_of`) of the sweep of
    ``families`` over ``1 <= i <= i_max`` and ``0 <= n <= n_max`` at
    ``order``. A family of slope s steps i by ``lead = lcm(P, c_slope) /
    c_slope``, P the side's period at s (:func:`_step_period`), with the
    Step of exponent ``e = lead * c_slope``; at ``c_slope = 0`` every i
    reads the one series of c: its Step, of exponent 0, is 1. Each side is
    planned once as one list of expansions, its bases at ``order`` and then
    its Steps that are not 1 at the orders their progressions read
    (:func:`~overcubic.eta._side_plan`), with one list of reads beside it
    that :func:`_verify_families` reads them by, so the plan prices the
    sweep and the sweep runs the plan."""
    sides, forms = {}, {}
    for j, family in enumerate(families):
        s = family.prog_slope
        for modulus, route in _sides_of(family):
            bases, steps, leads = sides.setdefault((modulus, route), ({}, {}, {}))
            step_order = _step_order(s, n_max, order)
            period = _step_period(modulus, s, step_order) if family.c_slope else 1
            if period is None:
                lead, key = i_max, None
            else:
                e = math.lcm(period, family.c_slope)
                lead, key = e // family.c_slope if family.c_slope else 1, (s, e)
                if i_max > lead and key not in steps:
                    steps[key] = tuple(_normalized_factors(_step_quotient(e), step_order, modulus))
            leads[j] = (lead, key)
            for i in range(1, min(lead, i_max) + 1):
                c = family.c_for(i)
                if (c, modulus) not in forms:  # families of one c_slope share their c
                    forms[c, modulus] = tuple(_normalized_factors(_colored_quotient(c, True), order, modulus))
                bases.setdefault(forms[c, modulus], []).append((j, i))
    for (modulus, route), (bases, steps, leads) in sides.items():
        least = {form: min(families[j].c_for(i) for j, i in readers) for form, readers in bases.items()}
        ordered = sorted(bases, key=least.get)
        built = [(key, form) for key, form in steps.items() if form]  # a Step of 1 is not expanded
        reads = [(None, bases[form]) for form in ordered] + built
        expansions = [(form, order) for form in ordered] + [
            (form, _step_order(s, n_max, order)) for (s, _), form in built
        ]
        ways, price = _side_plan(expansions, modulus, route)
        stepped = sum(max(i_max - lead, 0) for lead, key in leads.values() if steps.get(key))
        price += stepped * _product_price(n_max, modulus)
        sides[modulus, route] = _Side(reads, leads, ways, price)
    return sides


def _step_series(series: Series, form, s: int, n_max: int, m: int) -> Series:
    """The Step of the normalized ``form`` for progressions of slope s, to
    ``n_max``: its ``series`` under ``q^s -> q``. A coefficient off ``q^s``
    raises :class:`EngineInconsistencyError`: the period that chose the
    exponent says there is none."""
    if any(any(series.coeffs[r::s]) for r in range(1, s)):
        raise EngineInconsistencyError(
            f"the Step {EtaQuotient(form)} mod {m} has a coefficient off q^{s}: this is an engine bug"
        )
    return series.extract_progression(s, 0).truncate(n_max)


def _step(progression: Series, step: Optional[Series]) -> Series:
    """The progression of ``i + lead`` from that of ``i``: times the Step,
    or unchanged when the Step is 1."""
    return progression if step is None else progression * step


# What a family sweep costs besides the plans of its bases, Steps and step
# products, in updates of a sparse pass: each read of a progression, a
# (family, side, i), with its products and dicts, and each residue of it
# compared. conj73 at i <= 20 000, n = 0 took 1.7 us a read, and a residue
# took 21 ns, on a 2-vCPU x86 host where the other engines' edges ran 12-16
# ns an update.
_FAMILY_READ_PRICE = 100
_FAMILY_RESIDUE_PRICE = 2


def _families_work(
    families, i_max: int, n_max: int, order: Optional[int] = None
) -> Tuple[float, Optional[dict]]:
    """``(price, sides)`` of ``_verify_families(families, i_max, n_max,
    order)``: the plan of its sides (:func:`_family_sides`), which the sweep
    runs as it is, and its price in the unit of
    ``series._check_work``, the price of each side, then
    ``_FAMILY_READ_PRICE`` for each progression read and
    ``_FAMILY_RESIDUE_PRICE`` for each residue compared. ``(0, {})`` for an
    empty range, which expands nothing; when the reads alone, or the order,
    are past ``WORK_CAP``, those alone, which price it over the cap at
    once, and no plan."""
    order = _families_order(families, i_max, n_max, order)
    if i_max < 1 or n_max < 0:
        return 0.0, {}
    sides = sum(len(_sides_of(family)) for family in families)
    price = i_max * sides * (_FAMILY_READ_PRICE + (n_max + 1) * _FAMILY_RESIDUE_PRICE)
    if price > WORK_CAP or order >= WORK_CAP:
        return float(min(price + order + 1, 2**64)), None
    plan = _family_sides(families, i_max, n_max, order)
    return price + sum(side.price for side in plan.values()), plan


def verify_proved_families(
    i_max: int, n_max: int, order: Optional[int] = None
) -> List[VerificationReport]:
    return _verify_families(PROVED_FAMILIES, i_max, n_max, order)


def verify_conjectured_families(
    i_max: int, n_max: int, order: Optional[int] = None
) -> List[VerificationReport]:
    return _verify_families(CONJECTURED_FAMILIES, i_max, n_max, order)


def check_identity(
    lhs: Series,
    rhs: Series,
    modulus: Optional[int] = None,
    description: str = "identity",
) -> VerificationReport:
    """Compare two series on their common reliable window.

    A failure records the first differing exponent with both coefficient
    values (lhs as observed, rhs as expected).
    """
    if modulus is not None:
        lhs = lhs.reduce_mod(modulus)
        rhs = rhs.reduce_mod(modulus)
    n = min(lhs.order, rhs.order)
    bad = ()
    if not lhs.agrees(rhs):
        e = next(e for e, pair in enumerate(zip(lhs.coeffs, rhs.coeffs)) if pair[0] != pair[1])
        bad = (Counterexample(None, e, lhs.coeffs[e], rhs.coeffs[e]),)
    return VerificationReport(
        description=description,
        i_range=None,
        n_range=(0, n),
        order=n,
        counterexamples=bad,
    )


# -- named identity registry --------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    description: str
    default_order: int
    build: Callable[[int], Tuple[Series, Series]] = field(repr=False)

    def run(self, order: Optional[int] = None) -> VerificationReport:
        # checked as given: a build may read a derived order, 3n + 2 for
        # chan-a2, and a refusal of that would name a number never passed
        if order is not None and order < 0:
            raise ValueError(f"order must be non-negative, got {_show(order)}")
        lhs, rhs = self.build(self.default_order if order is None else order)
        return check_identity(lhs, rhs, description=self.description)


def _build_theta_vs_quotient(spec, quotient, order):
    """A theta sum against its eta quotient. The two sides stay independent:
    one walks ``spec``, the other the pentagonal specs of Euler factors."""
    return theta_sum(spec, order), quotient(order)


def _build_psi_3dissection(order):
    lhs = psi(order)
    rhs = theta_sum(F_Q3_Q6, order)
    if order >= 1:
        rhs = rhs + lhs.substitute_power(9).shift(1)
    return lhs, rhs


def _build_f_neg_q_q2(order):
    lhs = theta_sum(F_MINUS_Q_Q2, order) * chi(order)
    rhs = phi(order).substitute_power(3)
    return lhs, rhs


def _build_toh(order):
    return _TOH_LHS.expand(order), toh_rhs(order)


def _build_ramanujan_p5(order):
    lhs = expand_f(1, -1, 5 * order + 4).extract_progression(5, 4)
    rhs = 5 * _RAMANUJAN_P5.expand(order)
    return lhs, rhs


def _build_chan_a2(order):
    lhs = gen_cubic_gf(2, 3 * order + 2).extract_progression(3, 2)
    rhs = 3 * _CHAN_A2.expand(order)
    return lhs, rhs


def _build_overcubic_mod3_c5(order):
    # mod 9, not over Z, then mod 3: mod 3 the series normalizes to the
    # right side's own factors, so both sides would run one plan
    lhs = gen_overcubic_gf(5, order, 9)
    rhs = _OVERCUBIC_MOD3_C5.expand(order, modulus=3)
    return lhs.reduce_mod(3), rhs


def _build_negative_control(order):
    return Series.one(order), Series.one(order) + Series.monomial(min(1, order), order)


IDENTITIES = {
    check.name: check
    for check in (
        IdentityCheck(
            "psi",
            "psi: theta sum vs f2^2/f1",
            500,
            partial(_build_theta_vs_quotient, PSI_SPEC, psi),
        ),
        IdentityCheck(
            "psi-neg",
            "psi(-q): theta sum vs f1*f4/f2",
            500,
            partial(_build_theta_vs_quotient, PSI_NEG_SPEC, psi_neg),
        ),
        IdentityCheck(
            "phi",
            "phi: theta sum vs f2^5/(f1^2*f4^2)",
            500,
            partial(_build_theta_vs_quotient, PHI_SPEC, phi),
        ),
        IdentityCheck(
            "psi-3dissection",
            "psi(q) vs f(q^3,q^6) + q*psi(q^9)",
            300,
            _build_psi_3dissection,
        ),
        IdentityCheck(
            "f-neg-q-q2",
            "f(-q,q^2)*chi(q) vs phi(q^3)",
            300,
            _build_f_neg_q_q2,
        ),
        IdentityCheck(
            "toh",
            "f2/(f1*f4) vs its 3-dissection",
            300,
            _build_toh,
        ),
        IdentityCheck(
            "ramanujan-p5",
            "p(5n+4) series vs 5*f5^5/f1^6",
            100,
            _build_ramanujan_p5,
        ),
        IdentityCheck(
            "chan-a2",
            "a_2(3n+2) series vs 3*f3^3*f6^3/(f1^4*f2^4)",
            100,
            _build_chan_a2,
        ),
        IdentityCheck(
            "overcubic-mod3-c5",
            "5-color overlined series vs f12^2/f6^3*(f2/(f1*f4))^2, mod 3",
            300,
            _build_overcubic_mod3_c5,
        ),
        IdentityCheck(
            "negative-control",
            "deliberately false check; exercises the failure path",
            100,
            _build_negative_control,
        ),
    )
}


def check_named_identity(name: str, order: Optional[int] = None) -> VerificationReport:
    try:
        identity = IDENTITIES[name]
    except KeyError:
        known = ", ".join(sorted(IDENTITIES))
        raise ValueError(f"unknown identity {name!r}; known: {known}") from None
    return identity.run(order)
