"""Euler products, eta quotients, and Ramanujan theta functions.

``f(n)`` denotes the infinite product ``prod_{j>=1} (1 - q^(j*n))``. Every
generating function this package cares about is a finite product of integer
powers of such factors (an *eta quotient*), and the theta functions psi,
phi, chi are quotients of that shape as well.

Expansion strategy: :func:`expand_eta_quotient` is the one expansion
route; every named series and :func:`expand_f` call it.

0. Look up the memo. The last 32 expansions are kept, keyed on the
   normalized factors of step 1, the order and the modulus, so quotients
   that normalize alike are expanded once: mod 4 the overlined series is
   ``f2/f1^2`` for every odd c. The modulus stays in the key, so an entry is
   never reduced to serve another modulus and the prime-power route of the
   congruence-family cross-check stays independent of the composite one.
   An entry never serves a smaller order either: no caller asks for one
   quotient at two orders.
1. Normalize the exponents. Factors with a subscript above the order are
   dropped, since ``f(n) = 1 + O(q^n)``. Under a prime-power modulus
   ``p^a``, one ascending pass over the subscripts rewrites each exponent
   with ``|k| > p^a/2`` by ``f(n)^(p^a) == f(pn)^(p^(a-1)) (mod p^a)``,
   unless the rewrite adds passes (mod 8, ``f1^5`` is kept rather than
   turned into ``f1^-3*f2^4``). Proof sketch:
   ``(1-x)^p == 1-x^p (mod p)`` because the inner binomial coefficients
   are multiples of p, and ``A == B (mod p^j)`` implies
   ``A^p == B^p (mod p^(j+1))`` (write ``A = B + p^j C`` and expand).
   Induction on a gives ``(1-x)^(p^a) == (1-x^p)^(p^(a-1)) (mod p^a)``;
   take the product over ``x = q^(jn)``. Both sides are units, so the
   congruence holds for negative multiples too. For example the c = 10
   overcubic series ``f4^9/(f1^2*f2^17)`` becomes ``f4/(f1^2*f2)`` mod 4.
   Over Z or a composite modulus the exponents are left alone. A prime
   power is recognized by integer roots and Miller-Rabin, not by
   factorizing, so a large prime modulus costs nothing; from 3.3e24 on
   no modulus is rewritten.
2. Apply each factor ``f(n)^k`` to one coefficient list as ``|k|`` sparse
   passes over the pentagonal terms of ``f(n)``: by Euler's pentagonal
   number theorem ``f(n)`` is the theta series ``f(-q^n, -q^(2n))``, so its
   O(sqrt(order/n)) terms come from the same bilateral walk as
   :func:`theta_sum`. A pass multiplies for ``k > 0``; for ``k < 0`` it
   runs the sparse division kernel of :mod:`overcubic.series`, the one
   recurrence that divides by a series in this package. Under a
   modulus, a factor with a large ``|k|`` is instead built from its
   pentagonal terms as a :class:`Series`, raised to ``k`` by binary
   powering with the Kronecker product (a negative ``k`` inverts it first,
   through the same kernel), and multiplied in. Over Z every factor takes
   sparse passes: coefficient growth makes dense powering lose there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import add, sub
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .series import Series, _divide_sparse, _slot_width, _validate_modulus

__all__ = [
    "EtaQuotient",
    "EtaQuotientParseError",
    "ThetaSpec",
    "PSI_SPEC",
    "PSI_NEG_SPEC",
    "PHI_SPEC",
    "F_MINUS_Q_Q2",
    "F_Q3_Q6",
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


def _pentagonal_terms(step: int, order: int) -> List[Tuple[int, int]]:
    """Terms ``(exponent, sign)`` of ``f(step)`` past the constant 1, by
    increasing exponent: by Euler's pentagonal number theorem ``f(n)`` is the
    theta series ``f(-q^n, -q^(2n))``."""
    return _theta_terms(ThetaSpec(-1, step, -1, 2 * step), order)[1:]


def _times_f(coeffs: List[int], terms, modulus: Optional[int]) -> List[int]:
    """One sparse pass: ``coeffs`` times the factor whose terms are given."""
    size = len(coeffs)
    out = coeffs[:]
    for t, sign in terms:
        out[t:] = map(add if sign > 0 else sub, out[t:], coeffs[: size - t])
    return out if modulus is None else [c % modulus for c in out]


# Miller-Rabin with the first 13 prime bases decides primality below
# _PRIME_TEST_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017), the value
# psi_13); the first 12 bases are proven only below 3.2e23.
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < _PRIME_TEST_LIMIT``."""
    if n < 2:
        return False
    for b in _PRIME_TEST_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_TEST_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_power_base(m: int) -> Optional[int]:
    """``p`` when ``m = p^a`` for a prime ``p``, else ``None``.

    Tries the integer ``a``-th root of ``m`` for every ``a <= log2(m)``.
    From ``_PRIME_TEST_LIMIT`` on it answers ``None`` without deciding,
    which only skips the exponent rewrite: never a rewrite on a probable
    prime.
    """
    if m >= _PRIME_TEST_LIMIT:
        return None
    if _is_prime(m):
        return m
    for a in range(2, m.bit_length()):
        root = round(m ** (1 / a))  # m < 2^82, so the root is near exact
        while root**a > m:
            root -= 1
        while (root + 1) ** a <= m:
            root += 1
        if root**a == m and _is_prime(root):
            return root
    return None


def _normalized_factors(
    quotient: EtaQuotient, order: int, modulus: Optional[int]
) -> List[Tuple[int, int]]:
    """The factors that matter at ``order``, exponents reduced mod a prime power.

    Factors with a subscript above ``order`` are dropped: ``f(n) = 1 +
    O(q^n)``. Under a prime-power modulus ``p^a``, one ascending pass over
    the subscripts rewrites ``f(n)^k`` with ``|k| > p^a/2`` as ``f(n)^r *
    f(pn)^((k-r)/p)``, where ``r`` is the symmetric remainder of ``k`` mod
    ``p^a``, unless that adds passes: the total ``|exponent|`` may not grow.
    A rewrite only changes the exponent at ``pn > n``, so one pass sees every
    exponent after its last change (see the module docstring for why the
    rewrite is exact).
    """
    exps = {n: k for n, k in quotient.factors if n <= order}
    # No exponent above m/2 leaves nothing to rewrite; checking that first
    # keeps _prime_power_base from running on a modulus it cannot help.
    if modulus is None or all(2 * abs(k) <= modulus for k in exps.values()):
        return sorted(exps.items())
    p = _prime_power_base(modulus)
    if p is None:
        return sorted(exps.items())
    subscripts = set()
    for n in exps:
        while n <= order:
            subscripts.add(n)
            n *= p
    for n in sorted(subscripts):
        k = exps.get(n, 0)
        if 2 * abs(k) <= modulus:
            continue
        r = k % modulus
        if 2 * r > modulus:
            r -= modulus
        up = exps.get(p * n, 0)
        # past the order f(pn) is 1, so the pushed exponent costs nothing
        pushed = up + (k - r) // p if p * n <= order else 0
        if abs(r) + abs(pushed) <= abs(k) + abs(up):
            exps[n] = r
            exps[p * n] = pushed
    return [(n, k) for n, k in sorted(exps.items()) if k]


# Under a modulus, a factor with |k| above this many passes is built from its
# pentagonal terms and raised to k by binary powering with the Kronecker
# product instead. Over Z, coefficient growth makes dense powering lose, so
# there every factor is applied as |k| sparse passes.
_SPARSE_PASS_LIMIT = 2


def expand_f(n: int, k: int, order: int, modulus: Optional[int] = None) -> Series:
    """Truncated expansion of ``f(n)^k`` for any integer exponent ``k``."""
    return expand_eta_quotient([(n, k)], order, modulus)


def _coerce_factors(e: Union[EtaQuotient, FactorList]) -> EtaQuotient:
    return e if isinstance(e, EtaQuotient) else EtaQuotient(e)


def expand_eta_quotient(
    e: Union[EtaQuotient, FactorList],
    order: int,
    modulus: Optional[int] = None,
) -> Series:
    """Expand a product of eta factors into one coefficient list.

    Each factor ``f(n)^k`` is applied in place as ``|k|`` sparse passes
    (multiply for ``k > 0``, the division kernel for ``k < 0``), except
    that under a modulus a factor with ``|k| > _SPARSE_PASS_LIMIT`` is
    built from its pentagonal terms, raised to ``k`` densely, and
    multiplied in. Reducing after every pass keeps coefficients bounded;
    by the homomorphism property the result matches reduce-at-the-end.

    Results are memoized on the normalized factors, the order and the
    modulus, so quotients that normalize alike share one expansion.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    m = _validate_modulus(modulus)
    factors = tuple(_normalized_factors(_coerce_factors(e), order, m))
    return _expand_normalized(factors, order, m)


# thm15 and conj73 at i <= 3 expand 21 distinct quotients each: nine values
# of c under a composite modulus and its prime powers, less the repeats.
_EXPANSION_CACHE_SIZE = 32


@lru_cache(maxsize=_EXPANSION_CACHE_SIZE)
def _expand_normalized(
    factors: Tuple[Tuple[int, int], ...], order: int, m: Optional[int]
) -> Series:
    """The expansion of already normalized factors; memoized, and safe to
    share because a :class:`Series` is immutable. The modulus stays in the
    key: an entry is never reduced to serve another modulus, which keeps
    the prime-power route of ``verify_family`` independent of the composite
    one."""
    coeffs = [1] + [0] * order
    for n, k in factors:
        terms = _pentagonal_terms(n, order)
        if m is not None and abs(k) > _SPARSE_PASS_LIMIT:
            f = [1] + [0] * order
            for t, sign in terms:
                f[t] = sign
            power = Series(f, m) ** k
            coeffs = list((Series._canonical(tuple(coeffs), m) * power).coeffs)
            continue
        apply_pass = _times_f if k > 0 else _divide_sparse
        for _ in range(abs(k)):
            coeffs = apply_pass(coeffs, terms, m)
    return Series._canonical(tuple(coeffs), m)


def _expansion_work(quotient: EtaQuotient, order: int, modulus: Optional[int] = None) -> int:
    """Estimated cost of ``expand_eta_quotient(quotient, order, modulus)``,
    in coefficient updates of a sparse pass.

    A sparse pass updates ``order + 1`` coefficients per pentagonal term. A
    densely powered factor costs one pass and its Kronecker products, about
    ``bits(|k|) + popcount(|k|) - 1`` of them; a product of operands packed
    into ``B`` bytes costs about ``B * sqrt(B) / 16`` updates (Karatsuba).
    """
    m = _validate_modulus(modulus)
    work = 0
    for n, k in _normalized_factors(quotient, order, m):
        one_pass = (order + 1) * len(_pentagonal_terms(n, order))
        if m is not None and abs(k) > _SPARSE_PASS_LIMIT:
            packed = (order + 1) * _slot_width((m - 1) ** 2 * (order + 1))
            products = abs(k).bit_length() + bin(abs(k)).count("1") - 1
            work += one_pass + products * packed * isqrt(packed) // 16
        else:
            work += abs(k) * one_pass
    return work


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


def _theta_terms(spec: ThetaSpec, order: int) -> List[Tuple[int, int]]:
    """Nonzero terms ``(exponent, coefficient)`` of ``f(a, b)`` up to
    ``order``, by increasing exponent, with the terms of colliding ``k``
    merged: phi's ``k`` and ``-k`` become one term of weight 2.

    The exponent is a positive-definite quadratic in ``k``, so walking
    ``k = 0, 1, -1, 2, -2, ...`` and stopping once both directions overshoot
    the order is exhaustive.
    """
    coeffs = {0: 1}  # k = 0 contributes q^0 with sign +1
    k = 1
    while True:
        inside = False
        for j in (k, -k):
            tp = j * (j + 1) // 2
            tm = j * (j - 1) // 2
            exponent = spec.a_exp * tp + spec.b_exp * tm
            if exponent <= order:
                sign = (spec.a_sign ** (tp & 1)) * (spec.b_sign ** (tm & 1))
                coeffs[exponent] = coeffs.get(exponent, 0) + sign
                inside = True
        if not inside:
            return [(e, w) for e, w in sorted(coeffs.items()) if w]
        k += 1


def theta_sum(spec: ThetaSpec, order: int) -> Series:
    """Bilateral sum ``sum_k a^(k(k+1)/2) * b^(k(k-1)/2)`` truncated at order."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    coeffs = [0] * (order + 1)
    for e, w in _theta_terms(spec, order):
        coeffs[e] = w
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


def _colored_quotient(c: int, overlined: bool) -> EtaQuotient:
    """The eta quotient of the ``c``-colored counting series, with or
    without overlining."""
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {c}")
    if overlined:
        return EtaQuotient([(4, c - 1), (1, -2), (2, -(2 * c - 3))])
    return EtaQuotient([(1, -1), (2, -(c - 1))])


def gen_cubic_gf(c: int, order: int, modulus: Optional[int] = None) -> Series:
    """Counting series for partitions whose even parts carry ``c`` colors.

    Expansion of ``1 / (f1 * f2^(c-1))``; at ``c = 1`` this is the ordinary
    partition generating function.
    """
    return expand_eta_quotient(_colored_quotient(c, False), order, modulus)


def gen_overcubic_gf(c: int, order: int, modulus: Optional[int] = None) -> Series:
    """Counting series for ``c``-colored partitions with overlining.

    Expansion of ``f4^(c-1) / (f1^2 * f2^(2c-3))``; at ``c = 1`` it reduces
    to the overpartition series ``f2 / f1^2``.
    """
    return expand_eta_quotient(_colored_quotient(c, True), order, modulus)


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
