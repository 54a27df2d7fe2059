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
from functools import partial
from typing import Callable, List, Optional, Tuple

from .counting import EngineInconsistencyError, _factorize
from .eta import (
    _colored_quotient,
    _normalized_factors,
    F_MINUS_Q_Q2,
    F_Q3_Q6,
    PHI_SPEC,
    PSI_NEG_SPEC,
    PSI_SPEC,
    chi,
    expand_eta_quotient,
    expand_f,
    gen_cubic_gf,
    gen_overcubic_gf,
    phi,
    psi,
    psi_neg,
    theta_sum,
    toh_rhs,
)
from .series import Series, _show

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
    Each distinct mod-4 form of the series is expanded once: mod 4 it is
    ``f2/f1^2`` for every odd c."""
    if c_max < 1:
        raise ValueError(f"c_max must be at least 1, got {_show(c_max)}")
    order = max(n_max, 0) if order is None else order
    if order < n_max:
        raise ValueError(f"order {_show(order)} is below n_max {_show(n_max)}; coefficients unknown")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {_show(order)}")
    report = VerificationReport(
        description=f"mod-4 residue classification for c <= {c_max}",
        i_range=(1, c_max),
        n_range=(1, n_max),
        order=order,
    )
    if report.vacuous:
        return report
    # the prediction depends on c only through 2(c+1) mod 4, its value at
    # twice a square; it is 2 at a square and 0 elsewhere
    predictions, forms = {}, {}
    bad: List[Counterexample] = []
    for c in range(1, c_max + 1):
        twice_square = 2 * (c + 1) % 4
        if twice_square not in predictions:
            row = [0] * (n_max + 1)
            for k in range(1, math.isqrt(n_max // 2) + 1):
                row[2 * k * k] = twice_square
            for k in range(1, math.isqrt(n_max) + 1):
                row[k * k] = 2
            predictions[twice_square] = tuple(row[1:])
        expected = predictions[twice_square]
        form = tuple(_normalized_factors(_colored_quotient(c, True), order, 4))
        if form not in forms:
            forms[form] = gen_overcubic_gf(c, order, modulus=4).coeffs[1 : n_max + 1]
        observed = forms[form]
        if observed != expected:
            bad.extend(
                Counterexample(c, n, got, want)
                for n, (got, want) in enumerate(zip(observed, expected), start=1)
                if got != want
            )
    return replace(report, counterexamples=tuple(bad))


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
    and each side expands under its own modulus. A disagreement means the
    engine itself is broken and raises :class:`EngineInconsistencyError`.
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
    covers every family, or 0 for an empty range. Each series that a side
    of :func:`verify_family` reads is expanded once for all its readers,
    keyed on its normalized form, modulus and route, and alike forms run
    back to back, so they share the dense powers they build."""
    needed = [f.prog_slope * n_max + f.prog_intercept for f in families]
    order = max(*needed, 0) if order is None else order
    for family, least in zip(families, needed):
        if order < least:
            raise ValueError(
                f"order {order} is insufficient: progression "
                f"{family.prog_slope}n+{family.prog_intercept} with n <= {n_max} "
                f"needs order >= {least}"
            )
        if order < 0:
            raise ValueError(f"order must be non-negative, got {_show(order)}")
    reports = [VerificationReport(f.describe(), (1, i_max), (0, n_max), order) for f in families]
    if reports[0].vacuous:  # every report covers the same ranges
        return reports
    # failures[j, route] maps (i, n) to the offending residue of family j
    readers, failures = {}, {}
    for j, family in enumerate(families):
        parts = _prime_power_components(family.modulus)
        sides = [(family.modulus, "theta")] + [(pe, "pentagonal") for pe in parts if len(parts) > 1]
        for modulus, route in sides:
            for i in range(1, i_max + 1):
                c = family.c_for(i)
                form = tuple(_normalized_factors(_colored_quotient(c, True), order, modulus))
                readers.setdefault((form, modulus, route), []).append((j, family, i))
    for (_, modulus, route), reads in sorted(readers.items()):
        # every reader's series normalizes to this form: expand the first's
        _, family, i = reads[0]
        quotient = _colored_quotient(family.c_for(i), True)
        series = expand_eta_quotient(quotient, order, modulus=modulus, route=route)
        for j, family, i in reads:
            want = family.residue % modulus
            prog = series.extract_progression(family.prog_slope, family.prog_intercept)
            failures.setdefault((j, route), {}).update(
                ((i, n), got) for n, got in enumerate(prog.coeffs[: n_max + 1]) if got != want
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
    return expand_eta_quotient([(2, 1), (1, -1), (4, -1)], order), toh_rhs(order)


def _build_ramanujan_p5(order):
    lhs = expand_f(1, -1, 5 * order + 4).extract_progression(5, 4)
    rhs = 5 * expand_eta_quotient([(5, 5), (1, -6)], order)
    return lhs, rhs


def _build_chan_a2(order):
    lhs = gen_cubic_gf(2, 3 * order + 2).extract_progression(3, 2)
    rhs = 3 * expand_eta_quotient([(3, 3), (6, 3), (1, -4), (2, -4)], order)
    return lhs, rhs


def _build_overcubic_mod3_c5(order):
    lhs = gen_overcubic_gf(5, order)
    rhs = expand_eta_quotient([(12, 2), (6, -3), (2, 2), (1, -2), (4, -2)], order, modulus=3)
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
