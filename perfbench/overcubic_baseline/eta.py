"""Euler products, eta quotients, and Ramanujan theta functions.

``f(n)`` denotes the infinite product ``prod_{j>=1} (1 - q^(j*n))``. Every
generating function this package cares about is a finite product of integer
powers of such factors (an *eta quotient*), and the theta functions psi,
phi, chi are quotients of that shape as well.

Expansion strategy: a single factor is expanded through the pentagonal
number theorem (a bilateral sum with O(sqrt(order)) nonzero terms), then
raised to its power. Negative powers go through the series inverse, which
is cheap because the Euler factor is sparse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

from .series import Series

__all__ = [
    "EtaQuotient",
    "EtaQuotientParseError",
    "ThetaSpec",
    "PSI_SPEC",
    "PSI_NEG_SPEC",
    "PHI_SPEC",
    "F_MINUS_Q_Q2",
    "F_Q3_Q6",
    "F_MINUS_Q3_Q6",
    "TOH_TERMS",
    "expand_f",
    "expand_eta_quotient",
    "theta_sum",
    "psi",
    "psi_neg",
    "phi",
    "chi",
    "gen_cubic_gf",
    "gen_overcubic_gf",
    "toh_rhs",
    "parse_eta_quotient",
]

FactorList = Sequence[Tuple[int, int]]


class EtaQuotientParseError(ValueError):
    """Malformed eta-quotient expression; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class EtaQuotient:
    """A finite product ``prod f(n)^k`` stored as normalized (n, k) pairs.

    Normalization merges repeated subscripts, drops zero exponents, and
    sorts by subscript, so structurally equal quotients compare equal.
    """

    factors: Tuple[Tuple[int, int], ...]

    def __init__(self, factors: Iterable[Tuple[int, int]]):
        merged: dict = {}
        for n, k in factors:
            n, k = int(n), int(k)
            if n < 1:
                raise ValueError(f"factor subscript must be positive, got {n}")
            merged[n] = merged.get(n, 0) + k
        normalized = tuple(sorted((n, k) for n, k in merged.items() if k != 0))
        object.__setattr__(self, "factors", normalized)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for n, k in self.factors:
            parts.append(f"f{n}" if k == 1 else f"f{n}^{k}")
        return "*".join(parts)

    def expand(self, order: int, modulus: Optional[int] = None) -> Series:
        return expand_eta_quotient(self, order, modulus)


_TERM_RE = re.compile(r"(?P<op>[*/])?f(?P<n>\d+)(?:\^(?P<k>-?\d+))?")


def parse_eta_quotient(text: str) -> EtaQuotient:
    """Parse expressions like ``f2/f1^2`` or ``f4^1/f1^2*f2^-1``.

    Terms are ``fN`` with an optional integer exponent ``^k``, joined by
    ``*`` and ``/``; ``/fN^k`` and ``*fN^-k`` mean the same thing.
    """
    s = text.strip()
    if not s:
        raise EtaQuotientParseError("empty eta-quotient expression", 0)
    factors = []
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m:
            raise EtaQuotientParseError(f"expected a term like 'fN' in {text!r}", pos)
        op = m.group("op")
        if pos == 0 and op is not None:
            raise EtaQuotientParseError("expression cannot start with an operator", 0)
        if pos > 0 and op is None:
            raise EtaQuotientParseError("missing '*' or '/' between terms", pos)
        n = int(m.group("n"))
        if n < 1:
            raise EtaQuotientParseError("subscript must be positive", pos)
        k = int(m.group("k")) if m.group("k") is not None else 1
        factors.append((n, -k if op == "/" else k))
        pos = m.end()
    return EtaQuotient(factors)


def _euler_factor(step: int, order: int, modulus: Optional[int] = None) -> Series:
    """Pentagonal-number expansion of ``prod_{j>=1} (1 - q^(j*step))``."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    j = 1
    while True:
        e1 = step * (j * (3 * j - 1) // 2)
        if e1 > order:
            break
        sign = -1 if j % 2 else 1
        coeffs[e1] += sign
        e2 = step * (j * (3 * j + 1) // 2)
        if e2 <= order:
            coeffs[e2] += sign
        j += 1
    return Series(coeffs, modulus)


def expand_f(n: int, k: int, order: int, modulus: Optional[int] = None) -> Series:
    """Truncated expansion of ``f(n)^k`` for any integer exponent ``k``."""
    if n < 1:
        raise ValueError(f"factor subscript must be positive, got {n}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    return _euler_factor(n, order, modulus) ** k


def _coerce_factors(e: Union[EtaQuotient, FactorList]) -> EtaQuotient:
    return e if isinstance(e, EtaQuotient) else EtaQuotient(e)


def expand_eta_quotient(
    e: Union[EtaQuotient, FactorList],
    order: int,
    modulus: Optional[int] = None,
) -> Series:
    """Expand a product of eta factors, reducing after every factor.

    Reducing as soon as a modulus is available keeps coefficients bounded;
    by the homomorphism property the result matches reduce-at-the-end.
    """
    quotient = _coerce_factors(e)
    result = Series.one(order, modulus)
    for n, k in quotient.factors:
        result = result * expand_f(n, k, order, modulus)
    return result


@dataclass(frozen=True)
class ThetaSpec:
    """The two arguments of the bilateral theta sum ``f(a, b)``.

    ``a = a_sign * q^a_exp`` and ``b = b_sign * q^b_exp``; the exponent sum
    must be positive so the bilateral series converges formally.
    """

    a_sign: int
    a_exp: int
    b_sign: int
    b_exp: int

    def __post_init__(self):
        if self.a_sign not in (1, -1) or self.b_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.a_exp < 0 or self.b_exp < 0:
            raise ValueError("exponents must be non-negative")
        if self.a_exp + self.b_exp < 1:
            raise ValueError("need a_exp + b_exp >= 1")


PSI_SPEC = ThetaSpec(1, 1, 1, 3)  # f(q, q^3)
PSI_NEG_SPEC = ThetaSpec(-1, 1, -1, 3)  # f(-q, -q^3)
PHI_SPEC = ThetaSpec(1, 1, 1, 1)  # f(q, q)
F_MINUS_Q_Q2 = ThetaSpec(-1, 1, 1, 2)  # f(-q, q^2)
F_Q3_Q6 = ThetaSpec(1, 3, 1, 6)  # f(q^3, q^6)
F_MINUS_Q3_Q6 = ThetaSpec(-1, 3, 1, 6)  # f(-q^3, q^6)


def theta_sum(spec: ThetaSpec, order: int) -> Series:
    """Bilateral sum ``sum_k a^(k(k+1)/2) * b^(k(k-1)/2)`` truncated at order.

    The exponent is a positive-definite quadratic in ``k``, so walking
    ``k = 0, 1, -1, 2, -2, ...`` and stopping once both directions overshoot
    the order is exhaustive.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    coeffs = [0] * (order + 1)

    def term(k: int) -> Tuple[int, int]:
        tp = k * (k + 1) // 2
        tm = k * (k - 1) // 2
        exponent = spec.a_exp * tp + spec.b_exp * tm
        sign = (spec.a_sign ** (tp & 1)) * (spec.b_sign ** (tm & 1))
        return exponent, sign

    coeffs[0] += 1  # k = 0 contributes q^0 with sign +1
    k = 1
    while True:
        e_pos, s_pos = term(k)
        e_neg, s_neg = term(-k)
        if e_pos > order and e_neg > order:
            break
        if e_pos <= order:
            coeffs[e_pos] += s_pos
        if e_neg <= order:
            coeffs[e_neg] += s_neg
        k += 1
    return Series(coeffs)


# Named theta quotients: psi = f2^2/f1, psi(-q) = f1*f4/f2,
# phi = f2^5/(f1^2*f4^2), chi = f2^2/(f1*f4).


def psi(order: int) -> Series:
    return expand_eta_quotient([(2, 2), (1, -1)], order)


def psi_neg(order: int) -> Series:
    return expand_eta_quotient([(1, 1), (4, 1), (2, -1)], order)


def phi(order: int) -> Series:
    return expand_eta_quotient([(2, 5), (1, -2), (4, -2)], order)


def chi(order: int) -> Series:
    return expand_eta_quotient([(2, 2), (1, -1), (4, -1)], order)


def gen_cubic_gf(c: int, order: int) -> Series:
    """Counting series for partitions whose even parts carry ``c`` colors.

    Expansion of ``1 / (f1 * f2^(c-1))``; at ``c = 1`` this is the ordinary
    partition generating function.
    """
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {c}")
    return expand_eta_quotient([(1, -1), (2, -(c - 1))], order)


def gen_overcubic_gf(c: int, order: int, modulus: Optional[int] = None) -> Series:
    """Counting series for ``c``-colored partitions with overlining.

    Expansion of ``f4^(c-1) / (f1^2 * f2^(2c-3))``; at ``c = 1`` it reduces
    to the overpartition series ``f2 / f1^2``.
    """
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {c}")
    return expand_eta_quotient(
        [(4, c - 1), (1, -2), (2, -(2 * c - 3))], order, modulus
    )


# The 3-dissection of f2/(f1*f4): the residue-0, -1, -2 components of the
# generating function for partitions with distinct odd parts (Toh's lemma).
TOH_TERMS = (
    EtaQuotient([(18, 9), (3, -2), (9, -3), (12, -2), (36, -3)]),
    EtaQuotient([(6, 2), (18, 3), (3, -3), (12, -3)]),
    EtaQuotient([(6, 4), (9, 3), (36, 3), (3, -4), (12, -4), (18, -3)]),
)


def toh_rhs(order: int) -> Series:
    """Sum of the three dissection terms, shifted by q^0, q^1, q^2."""
    total = TOH_TERMS[0].expand(order)
    for shift_by, term in enumerate(TOH_TERMS[1:], start=1):
        total = total + term.expand(order).shift(shift_by)
    return total
