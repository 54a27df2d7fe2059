"""Euler products, eta quotients, and Ramanujan theta functions.

``f(n)`` denotes the infinite product ``prod_{j>=1} (1 - q^(j*n))``. Every
generating function this package cares about is a finite product of integer
powers of such factors (an *eta quotient*), and the theta functions psi,
phi, chi are quotients of that shape as well.

Expansion strategy: :func:`expand_eta_quotient` is the one expansion
route; every named series and :func:`expand_f` call it. No expansion is
kept: a caller that reads one series more than once asks for it once, as
the sweeps of :mod:`overcubic.verify` do by normalized form. Only the dense
powers of step 2 are memoized, keyed on the modulus, so expansions that
differ may still find their powers built.

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
2. Apply the factors by descending subscript to one coefficient list, a
   series in ``q^g`` for ``g`` the gcd of the subscripts applied so far,
   stored as its ``order // g + 1`` coefficients of ``q^0, q^g, ...``: a
   factor ``f(n)^k`` is applied as ``f(n // g)^k`` at order ``order // g``.
   When ``g`` drops to ``h`` the list is spread by ``g // h``, and it is
   spread to ``q^1`` once, at the end: in ``f4^9/(f1^2*f2^17)``, ``f4^9``
   works on a quarter of the coefficients and ``f2^-17`` on half. The walk
   runs over one of two lists of steps. The pentagonal list is the Euler
   factors themselves. The theta list takes ``phi(-q^n)^j`` in place of
   every ``f(n)^(2j)``, since ``phi(-q^n) = f(n)^2 / f(2n)``, and adds
   ``j`` to the exponent at ``2n`` (:func:`_theta_rewrite`): the overlined
   series ``f4^9/(f1^2*f2^17)`` becomes ``1/(phi(-q) * phi(-q^2)^9)``.
   Each step takes the route that :func:`_factor_plan` prices cheaper, and
   the list whose steps are cheaper in sum runs, the pentagonal one on a
   tie, unless the caller names one. Both bases are theta series, so
   their terms come from the same bilateral walk as :func:`theta_sum`: by
   Euler's pentagonal number theorem ``f(n)`` is ``f(-q^n, -q^(2n))``,
   with O(sqrt(order/n)) terms of weight +-1, and ``phi(-q^n)`` is
   ``f(-q^n, -q^n)``, with about 0.6 times as many terms, of weight +-2.
   The sparse route runs ``|k|`` passes over them: a multiply for
   ``k > 0``, for ``k < 0`` the one division kernel of
   :mod:`overcubic.series`. The dense route, under a modulus only, takes
   ``base^k`` from one memoized ladder (:func:`_dense_power`): ``base^1``
   is built from the terms, ``base^-1`` inverts it through the same
   kernel, and any other power is the square of the power at ``k // 2``
   rounded toward zero, times ``base^+-1`` when ``k`` is odd; the power is
   then multiplied in by the Kronecker product. The ladder is keyed on the
   compressed step, the exponent, the order and the modulus, so the
   expansions of one sweep share its rungs and a repeated step costs one
   product. Its entries are bounded by the bytes they hold
   (``_POWER_MEMO_BYTES``), least recently used first out. The plan
   prices a division pass, sparse or the dense route's inverting walk,
   per term and per exponent, a multiply pass per term, and the dense
   route as a cold ladder: a rung the memo holds costs nothing, so every
   price bounds the work of its step from above.
"""

from __future__ import annotations

import re
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import add, sub
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .series import (
    Series, _divide_sparse, _kronecker_price, _show, _slot_width, _spread, _validate_modulus
)

__all__ = [
    "EtaQuotient",
    "EtaQuotientParseError",
    "ROUTES",
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


# One sweep asks for a few compressed steps (n // g, order // g) of one or two
# bases each, so each is walked once: the families sweep at i <= 3 needs 17.
@lru_cache(maxsize=64)
def _factor_terms(step: int, order: int, theta: bool = False) -> Tuple[Tuple[int, int], ...]:
    """Terms ``(exponent, weight)`` of ``f(step)``, or of ``phi(-q^step)``
    when ``theta``, past the constant 1, by increasing exponent. Both are
    theta series: by Euler's pentagonal number theorem ``f(n)`` is
    ``f(-q^n, -q^(2n))``, with weights +-1, and ``phi(-q^n) = f(-q^n, -q^n)
    = f(n)^2 / f(2n)`` has the weights ``2 * (-1)^j`` at ``j^2 * n``."""
    spec = ThetaSpec(-1, step, -1, step if theta else 2 * step)
    return tuple(_theta_terms(spec, order)[1:])


def _times_f(coeffs: List[int], terms, modulus: Optional[int]) -> List[int]:
    """One sparse pass: ``coeffs`` times the factor whose terms are given."""
    size = len(coeffs)
    out = coeffs[:]
    scaled = {1: coeffs}
    for t, w in terms:
        if abs(w) not in scaled:
            scaled[abs(w)] = [abs(w) * c for c in coeffs]
        out[t:] = map(add if w > 0 else sub, out[t:], scaled[abs(w)][: size - t])
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


def expand_f(n: int, k: int, order: int, modulus: Optional[int] = None) -> Series:
    """Truncated expansion of ``f(n)^k`` for any integer exponent ``k``."""
    return expand_eta_quotient([(n, k)], order, modulus)


def _coerce_factors(e: Union[EtaQuotient, FactorList]) -> EtaQuotient:
    return e if isinstance(e, EtaQuotient) else EtaQuotient(e)


# The two walks a request may name; with none, the plan prices both.
ROUTES = ("pentagonal", "theta")


def expand_eta_quotient(
    e: Union[EtaQuotient, FactorList],
    order: int,
    modulus: Optional[int] = None,
    route: Optional[str] = None,
) -> Series:
    """Expand a product of eta factors into one coefficient list.

    The factors are applied by descending subscript to a series in ``q^g``
    (step 2 of the module docstring), either as Euler factors ``f(n)^k``
    (``route="pentagonal"``) or with ``phi(-q^n)^j`` in place of every
    ``f(n)^(2j)`` (``route="theta"``); by default the walk that
    :func:`_factor_plan` prices cheaper in sum. Each step takes the route
    the plan prices cheaper: ``|k|`` sparse passes (multiply for ``k > 0``,
    the division kernel for ``k < 0``), or, under a modulus, dense powering
    of its base. Reducing after every step keeps coefficients bounded; by
    the homomorphism property the result matches reduce-at-the-end. Each
    call expands afresh; only the dense powers are memoized
    (:func:`_dense_power`).
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if route is not None and route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES} or None, got {route!r}")
    m = _validate_modulus(modulus)
    factors = tuple(_normalized_factors(_coerce_factors(e), order, m))
    return _expand_normalized(factors, order, m, route)


def _expand_normalized(
    factors: Tuple[Tuple[int, int], ...], order: int, m: Optional[int], route: Optional[str]
) -> Series:
    """The expansion of already normalized factors. The running product is
    a series in ``q^g`` holding only its ``order // g + 1`` coefficients of
    ``q^0, q^g, ...``; each step of :func:`_planned_steps` applies its
    base, ``f(n)`` or ``phi(-q^n)``, to it as the same base at ``n // g``
    (step 2 of the module docstring)."""
    steps = _planned_steps(factors, order, m, route)
    g = steps[0][0] if steps else 1
    coeffs = [1] + [0] * (order // g)
    for i, (h, step, k, top, theta, dense, _) in enumerate(steps):
        if h < g:
            coeffs, g = _spread(coeffs, g // h, top + 1), h
        if dense:
            power = _dense_power(step, k, top, m, theta)
            coeffs = list((Series._canonical(tuple(coeffs), m) * power if i else power).coeffs)
            continue
        terms = _factor_terms(step, top, theta)
        apply_pass = _times_f if k > 0 else _divide_sparse
        for _ in range(abs(k)):
            coeffs = apply_pass(coeffs, terms, m)
    return Series._canonical(tuple(_spread(coeffs, g, order + 1)), m)


def _held_bytes(series: Series) -> int:
    """Bytes a memo holding ``series`` keeps alive, from above: a pointer per
    coefficient, and for coefficients past CPython's cached small ints
    (-5 to 256) the size of an int as wide as the largest of them."""
    m = series.modulus
    largest = m - 1 if m is not None else max(map(abs, series.coeffs))
    if m is not None and largest <= 256:
        return 8 * len(series.coeffs)
    return (8 + sys.getsizeof(largest)) * len(series.coeffs)


class _PowerMemo:
    """Least-recently-used memo of dense powers, bounded by the bytes its
    entries hold (:func:`_held_bytes`), not by their number. An entry that
    alone passes the bound is not kept. One lock guards the entries and the
    counts, so threads may share it; a power is computed outside the lock,
    and two threads that miss on one key both compute it, to equal series."""

    def __init__(self, limit: int):
        self.limit = limit
        self.held = 0
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, Tuple[Series, int]]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[Series]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, series: Series) -> None:
        size = _held_bytes(series)
        if size > self.limit:
            return
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = (series, size)
            self.held += size
            while self.held > self.limit:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.held -= dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.held = self.hits = self.misses = 0


# The family sweeps keep well under this: thm15 at n <= 2000 (order 18 003)
# builds 41 powers of 2.4 MB in all, at n <= 6000 7.1 MB, and conj73 at
# i <= 20, n <= 300 builds 164 of 1.7 MB. At the expand work bound's orders
# one power under a small modulus holds up to 4.6 MB, so the memo keeps a
# few rungs there, and an expansion's peak memory stays within a small
# multiple of its own.
_POWER_MEMO_BYTES = 16 * 2**20
_POWER_MEMO = _PowerMemo(_POWER_MEMO_BYTES)


def _dense_power(step: int, k: int, top: int, m: Optional[int], theta: bool) -> Series:
    """``f(step)^k``, or ``phi(-q^step)^k`` when ``theta``, at order ``top``
    (mod ``m``), from one memoized ladder: ``k = 1`` is the base built from
    its terms, ``k = -1`` its inverse, and any other ``k`` the square of the
    power at ``k // 2`` rounded toward zero, times the power at ``+-1`` when
    ``k`` is odd. That is the products and the inversion of
    ``Series.__pow__``, so a cold ladder costs what the plan prices, and a
    warm one shares rungs between the expansions of a sweep. The modulus is
    in the key: an entry never serves another modulus."""
    key = (step, k, top, m, theta)
    power = _POWER_MEMO.get(key)
    if power is not None:
        return power
    if k == 1:
        f = [1] + [0] * top
        for t, w in _factor_terms(step, top, theta):
            f[t] = w if m is None else w % m
        power = Series._canonical(tuple(f), m)
    elif k == -1:
        power = _dense_power(step, 1, top, m, theta).invert()
    else:
        half = _dense_power(step, k // 2 if k > 0 else -(-k // 2), top, m, theta)
        power = half * half
        if k % 2:
            power = power * _dense_power(step, 1 if k > 0 else -1, top, m, theta)
    _POWER_MEMO.put(key, power)
    return power


def _theta_rewrite(factors: FactorList, order: int) -> List[Tuple[int, int, bool]]:
    """The factors as ``(n, k, theta)`` steps, with ``phi(-q^n)^j`` in place
    of every ``f(n)^(2j)``: since ``phi(-q^n) = f(n)^2 / f(2n)``,
    ``f(n)^(2j) = phi(-q^n)^j * f(2n)^j``, and past the order ``f(2n)`` is 1.
    A rewrite only changes the exponent at ``2n > n``, so one ascending pass
    sees every exponent after its last change. The overlined series
    ``f4^(c-1)/(f1^2*f2^(2c-3))`` becomes ``1/(phi(-q) * phi(-q^2)^(c-1))``."""
    exps = dict(factors)
    steps = []
    while exps:
        n = min(exps)
        k = exps.pop(n)
        theta = k % 2 == 0
        if theta:
            k //= 2
            up = exps.get(2 * n, 0) + k
            if 2 * n <= order and up:
                exps[2 * n] = up
            else:
                exps.pop(2 * n, None)
        steps.append((n, k, theta))
    return steps


def _planned_steps(factors: FactorList, order: int, m: Optional[int], route: Optional[str]):
    """The steps ``(g, n // g, k, order // g, theta, dense, price)`` that
    :func:`_expand_normalized` runs: the walk of the Euler factors or of
    their :func:`_theta_rewrite`, as ``route`` names, or with no route the
    one whose :func:`_factor_plan` prices are cheaper in sum, the Euler
    factors on a tie."""
    walks = []
    if route != "theta":
        walks.append([(n, k, False) for n, k in factors])
    if route != "pentagonal":
        walks.append(_theta_rewrite(factors, order))
    priced = [
        [
            (g, step, k, top, theta) + _factor_plan(step, k, top, m, not i, theta)
            for i, (g, step, k, top, theta) in enumerate(_compressed_walk(walk, order))
        ]
        for walk in walks
    ]
    # min keeps the first of equal prices: the Euler factors
    return min(priced, key=lambda steps: sum(s[-1] for s in steps))


def _compressed_walk(factors, order: int):
    """The steps ``(g, n // g, k, order // g, theta)``, one per ``(n, k,
    theta)`` factor by descending subscript, ``g`` the gcd of the subscripts
    seen so far: a product of factors whose subscripts are multiples of
    ``g`` is a series in ``q^g``."""
    g = 0
    for n, k, theta in sorted(factors, reverse=True):
        g = gcd(g, n)
        yield g, n // g, k, order // g, theta


# What a division pass costs per exponent on top of its updates, in updates:
# the kernel's gathers, sums, reduction and append take 0.5-0.75 us an
# exponent, 20-31 updates of about 24 ns (orders 10^2 to 6 * 10^4, moduli 3,
# 12 and 2^61 - 1 and over Z; 2-vCPU x86 host). A multiply pass has no such
# cost: its slices run per term.
_DIVISION_EXPONENT_PRICE = 26


def _factor_plan(
    n: int, k: int, order: int, m: Optional[int], first: bool, theta: bool = False
) -> Tuple[bool, float]:
    """``(dense, price)`` of the cheaper route of ``f(n)^k``, or of
    ``phi(-q^n)^k`` when ``theta``, in updates of a sparse pass. Sparse:
    ``|k|`` passes of ``(order + 1) * terms``, whatever the weights, since
    the division kernel scales a sum of weight-2 terms once per exponent; an
    update on ``b``-bit residues costs ``1 + b // 2000``, and a division
    pass costs ``_DIVISION_EXPONENT_PRICE`` more per exponent. Dense: 3 per
    coefficient, the inverting walk if ``k < 0`` (the division kernel over
    ``order // n + 1`` exponents, priced as a division pass), ``bits(|k|) +
    popcount(|k|) - 2`` Kronecker products to power, and one to multiply in
    unless ``first``, each at :func:`~overcubic.series._kronecker_price`.
    Over Z only sparse passes: dense slots must hold coefficient growth.
    :func:`_planned_steps` asks it at the compressed step: the base at
    ``n // g`` and ``order // g``. The dense price is that of a cold
    :func:`_dense_power` ladder: a rung the memo holds costs nothing, so
    a price bounds the work from above."""
    terms = len(_factor_terms(n, order, theta))
    update = 1 if m is None else 1 + m.bit_length() // 2000
    exponent = terms * update + (_DIVISION_EXPONENT_PRICE if k < 0 else 0)
    sparse = abs(k) * (order + 1) * exponent
    if m is None:
        return False, sparse
    walk = (order // n + 1) * exponent if k < 0 else 0
    products = abs(k).bit_length() + bin(abs(k)).count("1") - 1 - first
    width = _slot_width(((m - 1) * (m - 1) * (order + 1)).bit_length())
    product = _kronecker_price(2 * (order + 1), order + 1, width)  # two operands
    dense = 3 * (order + 1) + walk + products * product
    return (True, dense) if dense < sparse else (False, sparse)


def _expansion_work(
    quotient: EtaQuotient,
    order: int,
    modulus: Optional[int] = None,
    route: Optional[str] = None,
) -> float:
    """Price of ``expand_eta_quotient(quotient, order, modulus, route)``:
    the sum of the plan prices of the steps of :func:`_planned_steps`, which
    :func:`_expand_normalized` runs."""
    m = _validate_modulus(modulus)
    factors = _normalized_factors(quotient, order, m)
    return sum(step[-1] for step in _planned_steps(factors, order, m, route))


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
# phi = f2^5/(f1^2*f4^2), chi = f2^2/(f1*f4). psi, psi(-q) and phi take the
# pentagonal route, so that the identity registry checks it against
# theta_sum: the theta route would expand phi from phi-terms.


def psi(order: int) -> Series:
    return expand_eta_quotient([(2, 2), (1, -1)], order, route="pentagonal")


def psi_neg(order: int) -> Series:
    return expand_eta_quotient([(1, 1), (4, 1), (2, -1)], order, route="pentagonal")


def phi(order: int) -> Series:
    return expand_eta_quotient([(2, 5), (1, -2), (4, -2)], order, route="pentagonal")


def chi(order: int) -> Series:
    return expand_eta_quotient([(2, 2), (1, -1), (4, -1)], order)


def _colored_quotient(c: int, overlined: bool) -> EtaQuotient:
    """The eta quotient of the ``c``-colored counting series, with or
    without overlining."""
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {_show(c)}")
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
    """Sum of the dissection terms shifted by q^0, q^1, q^2 that ``order`` holds."""
    total = TOH_TERMS[0].expand(order)
    for shift_by, term in enumerate(TOH_TERMS[1 : order + 1], start=1):
        total = total + term.expand(order).shift(shift_by)
    return total
