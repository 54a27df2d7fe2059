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
from .series import Series

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
        raise ValueError(f"classification needs n >= 1, got {n}")
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
        raise ValueError(f"color count must be at least 1, got {c}")
    return _mod4_residue(c, classify_n(n).tag)


def _mod4_residue(c: int, tag: str) -> int:
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


def verify_mod4_classification(c_max: int, n_max: int, order: int) -> VerificationReport:
    """Compare series coefficients mod 4 against the square / twice-square /
    other prediction for every c <= c_max and 1 <= n <= n_max."""
    if c_max < 1:
        raise ValueError(f"c_max must be at least 1, got {c_max}")
    if order < n_max:
        raise ValueError(f"order {order} is below n_max {n_max}; coefficients unknown")
    report = VerificationReport(
        description=f"mod-4 residue classification for c <= {c_max}",
        i_range=(1, c_max),
        n_range=(1, n_max),
        order=order,
    )
    if report.vacuous:
        return report
    tags = [classify_n(n).tag for n in range(1, n_max + 1)]
    # the prediction depends on c only through 2(c+1) mod 4
    predictions = {}
    bad: List[Counterexample] = []
    for c in range(1, c_max + 1):
        key = 2 * (c + 1) % 4
        if key not in predictions:
            predictions[key] = tuple(_mod4_residue(c, tag) for tag in tags)
        expected = predictions[key]
        observed = gen_overcubic_gf(c, order, modulus=4).coeffs[1 : n_max + 1]
        if observed != expected:
            bad.extend(
                Counterexample(c, n, got, want)
                for n, (got, want) in enumerate(zip(observed, expected), start=1)
                if got != want
            )
    return replace(report, counterexamples=tuple(bad))


def _prime_power_components(m: int) -> List[int]:
    return [p**a for p, a in sorted(_factorize(m).items())]


def _family_failures(
    family: CongruenceFamily, i_max: int, n_max: int, order: int, modulus: int
) -> dict:
    """Maps (i, n) to the offending residue, taken mod ``modulus``."""
    want = family.residue % modulus
    failures = {}
    for i in range(1, i_max + 1):
        series = gen_overcubic_gf(family.c_for(i), order, modulus=modulus)
        prog = series.extract_progression(family.prog_slope, family.prog_intercept)
        for n in range(n_max + 1):
            if prog[n] != want:
                failures[(i, n)] = prog[n]
    return failures


def verify_family(
    family: CongruenceFamily, i_max: int, n_max: int, order: int
) -> VerificationReport:
    """Sweep a congruence family over i in [1, i_max] and n in [0, n_max].

    For a composite modulus the sweep also runs each prime-power component
    separately and insists the two routes agree on exactly which (i, n)
    fail. Both routes divide through the one sparse division kernel of
    :mod:`overcubic.series`; they differ in how they raise the factors to
    their exponents. Under a prime power the engine first reduces the
    exponents and applies them as sparse passes over the pentagonal terms;
    under the composite modulus it cannot reduce them and raises the large
    ones by dense binary powering with the Kronecker product. A
    disagreement means the engine itself is broken and raises
    :class:`EngineInconsistencyError`.
    """
    needed = family.prog_slope * n_max + family.prog_intercept
    if order < needed:
        raise ValueError(
            f"order {order} is insufficient: progression "
            f"{family.prog_slope}n+{family.prog_intercept} with n <= {n_max} "
            f"needs order >= {needed}"
        )
    report = VerificationReport(
        description=family.describe(),
        i_range=(1, i_max),
        n_range=(0, n_max),
        order=order,
    )
    if report.vacuous:
        return report
    failures = _family_failures(family, i_max, n_max, order, family.modulus)
    components = _prime_power_components(family.modulus)
    if len(components) > 1:
        component_failures = set()
        for pe in components:
            component_failures |= set(_family_failures(family, i_max, n_max, order, pe))
        if component_failures != set(failures):
            raise EngineInconsistencyError(
                "prime-power decomposition disagrees with the direct check "
                f"for {family.describe()}: this is an engine bug"
            )
    bad = [
        Counterexample(i, n, observed, family.residue)
        for (i, n), observed in sorted(failures.items())
    ]
    return replace(report, counterexamples=tuple(bad))


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


def verify_proved_families(i_max: int, n_max: int, order: int) -> List[VerificationReport]:
    return [verify_family(f, i_max, n_max, order) for f in PROVED_FAMILIES]


def verify_conjectured_families(i_max: int, n_max: int, order: int) -> List[VerificationReport]:
    return [verify_family(f, i_max, n_max, order) for f in CONJECTURED_FAMILIES]


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
    elif lhs.modulus != rhs.modulus:
        raise ValueError(
            f"cannot compare series with moduli {lhs.modulus} and {rhs.modulus}"
        )
    n = min(lhs.order, rhs.order)
    bad = ()
    for e in range(n + 1):
        if lhs[e] != rhs[e]:
            bad = (Counterexample(None, e, lhs[e], rhs[e]),)
            break
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
    rhs = theta_sum(F_Q3_Q6, order) + psi(order).substitute_power(9).shift(1)
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
