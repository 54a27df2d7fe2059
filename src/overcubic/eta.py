"""Euler products, eta quotients, and Ramanujan theta functions.

``f(n)`` denotes the infinite product ``prod_{j>=1} (1 - q^(j*n))``. Every
generating function this package cares about is a finite product of integer
powers of such factors (an *eta quotient*), and the theta functions psi,
phi, chi are quotients of that shape as well.

Expansion strategy: every expansion is planned by one planner,
:func:`_side_plan`, and run by one runner, :func:`_expand_side`, exactly
as it was planned and priced. A request is a side: a list of expansions
``(form, order)``, each planned as a walk of steps that carries every
decision the run needs. A lone series (:func:`expand_eta_quotient`, which
every named series and :func:`expand_f` call, and the CLI's ``expand``)
is a side of one expansion; the sweeps of :mod:`overcubic.verify` list
theirs. Each expansion at the order of the one before it runs by its
whole walk or as that series times their quotient. No expansion is kept:
a caller that reads one series more than once asks for it once. Only the
dense powers of step 2 are memoized, in one dict that the runner owns for
the side, so each expansion of a side finds the powers the others built,
and the dict is dropped with the side.

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
   Over Z or a composite modulus the exponents are left alone, and the
   normalized factors are the form a sweep keys its expansions on. A prime
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
   Under a modulus ``2^a`` the theta list then takes each ``j`` to its
   symmetric remainder mod ``2^(a-1)`` and drops the steps reduced to 0,
   since ``phi(-q^n)^(2^(a-1)) == 1 (mod 2^a)``: mod 4 the overlined series
   is ``phi(-q) * phi(-q^2)`` for even c and ``phi(-q)`` for odd c, and
   the form it normalized to, its key in a sweep, is left as it is.
   Each step takes the route that :func:`_factor_plan` prices cheaper, and
   the list whose steps are cheaper in sum runs, the pentagonal one on a
   tie, unless the caller names one. Both bases are theta series, so
   their terms come from the same bilateral walk as :func:`theta_sum`: by
   Euler's pentagonal number theorem ``f(n)`` is ``f(-q^n, -q^(2n))``,
   with O(sqrt(order/n)) terms of weight +-1, and ``phi(-q^n)`` is
   ``f(-q^n, -q^n)``, with about 0.6 times as many terms, of weight +-2.
   The sparse route runs ``|k|`` passes over them: for ``k < 0`` the one
   division kernel of :mod:`overcubic.series`; for ``k > 0`` a multiply,
   by slices over the whole list, one a term (:func:`_times_f`), or term
   by term over the nonzero coefficients (:func:`_times_terms`) while the
   plan's bound on them (:func:`_multiply_passes`) makes that cheaper, as
   it does on a running product that starts as 1; the plan fixes how many
   passes run term by term. Under a modulus a pass term by term takes each
   residue's products with the weights once and drops those that are 0
   mod m: mod 4 each residue 2 of ``phi(-q^2)`` times a weight +-2 of
   ``phi(-q)`` vanishes, so their product runs the constant's row alone,
   and its price, a pair per nonzero coefficient and term, stays an upper
   bound. The dense route, under a modulus only, takes
   ``base^k`` from the one ladder of ``Series.__pow__``
   (:func:`~overcubic.series._ladder_power`), memoized by
   :func:`_dense_power`: ``base^1`` is built from the terms, ``base^-1``
   inverts it through the same kernel, and any other power is the square
   of the power at ``k // 2`` rounded toward zero, times ``base^+-1`` when
   ``k`` is odd; the power is then multiplied in by the Kronecker product.
   The rungs are kept in the side's dict, keyed on the compressed step,
   the order and the base, ``f`` or ``phi``, then on the exponent, so the
   expansions of a side share them and a repeated step costs one product.
   One dict serves one modulus, and it is dropped when the side is done:
   no power outlives the call that built it. The plan prices a division
   pass, sparse or the dense route's inverting walk, per term and per
   exponent, a multiply pass per term or per pair of a nonzero coefficient
   and a term, and the dense route as a ladder, cold but within a side:
   each of its expansions, planned after the plans before it, pays
   neither the terms of ``base^1`` nor the walk to ``base^-1`` where those
   plans leave the rungs in the dict (:func:`_held_after`). Any other rung
   the dict holds is priced as if built, so every price bounds the work of
   its step from above. A plan counts each base's terms in closed form
   (:func:`_term_count`), so planning walks no terms: only a step that runs
   walks those of its base.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import exp, gcd, isqrt, log, log1p, pi, sqrt
from operator import add, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .series import (
    WORK_CAP, Series, _check_work, _divide_sparse, _kronecker_mod, _kronecker_price, _ladder_power,
    _mod_slot_width, _show, _spread, _update_price, _validate_modulus,
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


# A request runs a few compressed steps (n // g, order // g) of one or two
# bases each, so each is walked once: thm15 and conj73 at i <= 3 need 14.
# Plans count the terms in closed form (_term_count) and walk none.
@lru_cache(maxsize=64)
def _factor_terms(step: int, order: int, theta: bool = False) -> Tuple[Tuple[int, int], ...]:
    """Terms ``(exponent, weight)`` of ``f(step)``, or of ``phi(-q^step)``
    when ``theta``, past the constant 1, by increasing exponent. Both are
    theta series: by Euler's pentagonal number theorem ``f(n)`` is
    ``f(-q^n, -q^(2n))``, with weights +-1, and ``phi(-q^n) = f(-q^n, -q^n)
    = f(n)^2 / f(2n)`` has the weights ``2 * (-1)^j`` at ``j^2 * n``."""
    spec = ThetaSpec(-1, step, -1, step if theta else 2 * step)
    return tuple(_theta_terms(spec, order)[1:])


def _term_count(step: int, order: int, theta: bool = False) -> int:
    """``len(_factor_terms(step, order, theta))`` in closed form, so that a
    plan walks no terms. With ``N = order // step``, ``phi(-q^step)`` has a
    term at each ``j^2 <= N``, ``j >= 1``, and ``f(step)`` one at each
    ``k(3k - 1)/2 <= N`` and each ``k(3k + 1)/2 <= N``, ``k >= 1``, the
    generalized pentagonal numbers, which are distinct: ``k(3k -+ 1)/2 <=
    N`` is ``6k -+ 1 <= isqrt(24N + 1)``."""
    top = order // step
    if theta:
        return isqrt(top)
    root = isqrt(24 * top + 1)
    return (root + 1) // 6 + (root - 1) // 6


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


def _times_terms(coeffs: List[int], terms, modulus: Optional[int]) -> List[int]:
    """One pass term by term: ``coeffs`` times the factor whose terms are
    given, each nonzero coefficient times each term that lands inside,
    reduced mod ``modulus`` when one is given (``coeffs`` must be reduced
    already). It costs at most a pair per nonzero coefficient and term, and
    a scan for the nonzero coefficients, so on a sparse running product it
    does the work of a pass of slices (:func:`_times_f`) in a fraction of
    the time. Under a modulus the nonzero coefficients are grouped by
    residue, each residue's products with the weights are taken once, and
    a product that is 0 mod ``modulus`` is dropped: mod 4 a residue 2 times
    a weight +-2 vanishes, so ``phi(-q)`` times ``phi(-q^2)`` runs the
    constant's row alone."""
    size = len(coeffs)
    out = coeffs[:]
    # a running product of 1, as at the start of a walk, needs no scan
    one = coeffs[0] and coeffs.count(0) == size - 1
    starts = (0,) if one else compress(range(size), coeffs)
    if modulus is None:
        exponents = [t for t, _ in terms]
        for i in starts:
            c = coeffs[i]
            for t, w in terms[: bisect_left(exponents, size - i)]:
                out[i + t] += w * c
        return out
    rows: dict = {}
    for i in starts:
        rows.setdefault(coeffs[i], []).append(i)
    for c, row in rows.items():
        products = [(t, r) for t, r in ((t, w * c % modulus) for t, w in terms) if r]
        if not products:
            continue
        exponents = [t for t, _ in products]
        for i in row:
            for t, p in products[: bisect_left(exponents, size - i)]:
                out[i + t] = (out[i + t] + p) % modulus
    return out


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
    return expand_eta_quotient(EtaQuotient([(n, k)]), order, modulus)


# The two walks a request may name; with none, the plan prices both.
ROUTES = ("pentagonal", "theta")


def expand_eta_quotient(
    e: EtaQuotient,
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
    the homomorphism property the result matches reduce-at-the-end. The
    expansion is a side of one form: :func:`_side_plan` plans it, the plan's
    price is refused over ``WORK_CAP`` (``series._check_work``) before any
    step runs, and :func:`_expand_side` runs that plan, with dense powers
    that its own steps share and that are dropped when it returns. Under a
    modulus that price is the CLI's ``expand`` without its rows; over Z it
    leaves out the factor for the bits of the coefficients, which is at
    least 1, so it is a lower bound and refuses nothing the CLI admits.
    """
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if route is not None and route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES} or None, got {route!r}")
    m = _validate_modulus(modulus)
    ways, price = _side_plan([(_normalized_factors(e, order, m), order)], m, route)
    _check_work(price, f"expanding {e} to order {_show(order)}", "; lower the order")
    return next(_expand_side(ways, m))


def _run_steps(steps, order: int, m: Optional[int], powers: dict) -> Series:
    """The product of planned steps, as :func:`_plan_walk` gives them, to
    ``order``. The running product is a series in ``q^g`` holding only its
    ``order // g + 1`` coefficients of ``q^0, q^g, ...``; each step applies
    its base, ``f(n)`` or ``phi(-q^n)``, to it as the same base at ``n //
    g`` (step 2 of the module docstring), as the step says: a dense step
    takes its power from the ladder ``powers`` holds (:func:`_dense_power`)
    and multiplies it in unless the running product is 1, and a multiply
    step runs its first ``by_terms`` passes term by term."""
    g = steps[0][0] if steps else 1
    coeffs = [1] + [0] * (order // g)
    for h, step, k, top, theta, nz, dense, by_terms, _ in steps:
        if h < g:
            coeffs, g = _spread(coeffs, g // h, top + 1), h
        if dense:
            power = _dense_power(step, k, top, m, theta, powers).coeffs
            coeffs = _kronecker_mod(coeffs, power, m) if nz > 1 else list(power)
            continue
        terms = _factor_terms(step, top, theta)
        if k < 0:
            for _ in range(-k):
                coeffs = _divide_sparse(coeffs, terms, m)
            continue
        for j in range(k):
            coeffs = (_times_terms if j < by_terms else _times_f)(coeffs, terms, m)
    return Series._canonical(tuple(coeffs if g == 1 else _spread(coeffs, g, order + 1)), m)


def _dense_power(step: int, k: int, top: int, m: Optional[int], theta: bool, powers: dict) -> Series:
    """``f(step)^k``, or ``phi(-q^step)^k`` when ``theta``, at order ``top``
    (mod ``m``), from the ladder of :func:`~overcubic.series._ladder_power`,
    the one of ``Series.__pow__``, so a cold ladder costs what the plan
    prices. ``powers`` keeps the rungs of each base, keyed ``(step, top,
    theta)``, ``base^1`` built from its terms; the expansions of one side,
    which share ``powers``, share its rungs. The modulus is not in
    the key: one dict serves one modulus, that of its side
    (:func:`_expand_side`)."""
    rungs = powers.get((step, top, theta))
    if rungs is None:
        f = [1] + [0] * top
        for t, w in _factor_terms(step, top, theta):
            f[t] = w if m is None else w % m
        rungs = powers[step, top, theta] = {1: Series._canonical(tuple(f), m)}
    return _ladder_power(rungs, k)


def _theta_rewrite(
    factors: FactorList, order: int, m: Optional[int] = None
) -> List[Tuple[int, int, bool]]:
    """The factors as ``(n, k, theta)`` steps, with ``phi(-q^n)^j`` in place
    of every ``f(n)^(2j)``: since ``phi(-q^n) = f(n)^2 / f(2n)``,
    ``f(n)^(2j) = phi(-q^n)^j * f(2n)^j``, and past the order ``f(2n)`` is 1.
    A rewrite only changes the exponent at ``2n > n``, so one ascending pass
    sees every exponent after its last change. The overlined series
    ``f4^(c-1)/(f1^2*f2^(2c-3))`` becomes ``1/(phi(-q) * phi(-q^2)^(c-1))``.
    Under a modulus ``m = 2^a`` each ``j`` is then taken to its symmetric
    remainder mod ``2^(a-1)``, the positive one on a tie, and a step whose
    remainder is 0 is dropped: ``phi(-q^n) = 1 + 2 * (...)``, so
    ``phi(-q^n)^(2^(a-1)) == 1 (mod 2^a)``, since ``(1 + 2^b Z)^2 =
    1 + 2^(b+1) (Z + 2^(b-1) Z^2)``. Mod 4 the overlined series is
    ``phi(-q)`` for odd c and ``phi(-q) * phi(-q^2)`` for even c; mod 2 it
    is 1."""
    period = m // 2 if m is not None and m & (m - 1) == 0 else None
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
            if period is not None:
                k %= period
                if 2 * k > period:
                    k -= period
                if not k:
                    continue
        steps.append((n, k, theta))
    return steps


def _planned_steps(
    factors: FactorList, order: int, m: Optional[int], route: Optional[str], held: frozenset = frozenset()
):
    """The steps ``(g, n // g, k, order // g, theta, nz, dense, by_terms,
    price)`` that :func:`_run_steps` runs for normalized factors: the walk
    of the Euler factors or of their :func:`_theta_rewrite`, as ``route``
    names, or with no route the one whose :func:`_factor_plan` prices,
    given the rungs ``held`` (:func:`_held_after`), are cheaper in sum, the
    Euler factors on a tie. ``nz`` bounds the nonzero coefficients of the
    running product a step starts from: 1 at the start, ``order // g + 1``
    after a division, after ``base^k`` with ``k > 0``, sparse or dense,
    what :func:`_multiply_passes` bounds, and unchanged by a spread.
    ``by_terms`` is the number of a sparse multiply step's passes that run
    term by term (:func:`_multiply_passes`), 0 for any other step."""
    walks = []
    if route != "theta":
        walks.append([(n, k, False) for n, k in factors])
    if route != "pentagonal":
        walks.append(_theta_rewrite(factors, order, m))
    # min keeps the first of equal prices: the Euler factors
    return min((_plan_walk(walk, order, m, held) for walk in walks), key=_plan_price)


def _plan_walk(walk, order: int, m: Optional[int], held: frozenset):
    """The planned steps of one walk, each at the running product's ``nz``
    bound (see :func:`_planned_steps`) and priced given the rungs
    ``held``."""
    steps, nz = [], 1
    for g, step, k, top, theta in _compressed_walk(walk, order):
        dense, price, by_terms, after = _factor_plan(step, k, top, m, nz, theta, held)
        steps.append((g, step, k, top, theta, nz, dense, by_terms, price))
        nz = after
    return steps


def _plan_price(steps) -> float:
    return sum(step[-1] for step in steps)


def _held_after(steps, held: frozenset = frozenset()) -> frozenset:
    """The rungs ``(step, +-1, top, theta)`` of :func:`_dense_power` that a
    side's dict holds once planned ``steps`` have run, given those it held
    before: a dense ``base^k`` leaves ``base^1``, and ``base^-1`` too when
    ``k < 0``. ``base^-1`` is only ever built by inverting ``base^1``, so a
    dict that holds it holds both. With no dense step it is ``held``."""
    rungs = [(step, j, top, theta) for _, step, k, top, theta, _, dense, _, _ in steps
             if dense for j in ((1, -1) if k < 0 else (1,))]
    return held.union(rungs) if rungs else held


def _expand_side(ways, m: Optional[int]) -> Iterator[Series]:
    """The series of a side's planned expansions (mod ``m``), one at a time
    in their order, each run as :func:`_side_plan` planned it: the
    ``"whole"`` walk of its form at its order, or the series before it
    times its ``"quotient"``, one Kronecker product unless the quotient is
    1. It is the one runner of every expansion, a lone one being a side of
    one. It owns the side's one dict of dense powers (:func:`_dense_power`),
    made when it starts and dropped when it is done, so a step whose rungs
    an earlier plan built costs what the plan priced."""
    powers, series = {}, None
    for way, order, steps in ways:
        if way == "whole":
            series = None  # a whole walk reads no series before it: drop it first
            series = _run_steps(steps, order, m, powers)
        elif steps:
            series = series * _run_steps(steps, order, m, powers)
        yield series


def _side_plan(expansions, m: Optional[int], route: Optional[str]):
    """``(ways, price)`` of a side: the normalized expansions ``(form,
    order)`` of ``expansions`` (mod ``m``), each along the walk ``route``
    names, or the cheaper walk with none, all of which :func:`_expand_side`
    runs in this order with one dict of dense powers. Each expansion at the
    order of the one before it takes the cheaper of
    - ``"whole"``: its whole walk;
    - ``"quotient"``: the series before it times their quotient, the
      difference of their exponents normalized mod ``m``, plus one product
      (:func:`_product_price`) unless the quotient is empty; neighbouring
      overlined series differ by ``(f4/f2^2)^e``, which walks few steps;
    its whole walk on a tie, and any other expansion its whole walk. Every
    plan is priced given the rungs that the plans before it leave in the
    dict (:func:`_held_after`), in the order they run; a rung only lowers a
    price, so no plan costs more than it would cold, and a side of one
    expansion costs its cold price. ``ways`` holds one ``(way, order,
    steps)`` per expansion, and ``price`` is the side's price."""
    ways, price, held = [], 0.0, frozenset()
    for k, (form, order) in enumerate(expansions):
        steps = _planned_steps(form, order, m, route, held)
        way, cost = ("whole", order, steps), _plan_price(steps)
        if k and expansions[k - 1][1] == order:
            quotient = _normalized_factors(_quotient(form, expansions[k - 1][0]), order, m)
            steps = _planned_steps(quotient, order, m, route, held)
            by_quotient = _plan_price(steps) + _product_price(order, m) if quotient else 0
            if by_quotient < cost:
                way, cost = ("quotient", order, steps), by_quotient
        ways.append(way)
        price += cost
        held = _held_after(way[2], held)
    return ways, price


def _quotient(form, other) -> EtaQuotient:
    """The eta quotient ``form / other`` of two factor lists."""
    return EtaQuotient([*form, *((n, -k) for n, k in other)])


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
# What a multiply pass term by term costs, in updates: 3 for each pair of a
# nonzero coefficient and a term (50-90 ns: an index, a product and a
# reduction), and 1 for each coefficient scanned for the nonzero ones
# (about 22 ns; orders 2000 to 10^6 mod 4, 2-vCPU x86 host).
_PAIR_PRICE = 3


def _multiply_passes(k: int, nz: int, order: int, terms: int) -> Tuple[int, float, int]:
    """``(by_terms, price, nz)`` of ``k > 0`` multiply passes by a base of
    ``terms`` terms on a running product of at most ``nz`` nonzero
    coefficients up to ``order``: the first ``by_terms`` passes run term by
    term (:func:`_times_terms`), at ``_PAIR_PRICE`` a pair and 1 a
    coefficient scanned, while that is cheaper than a pass of slices
    (:func:`_times_f`), ``order + 1`` updates a term; the rest run by
    slices. ``nz`` comes back bounded after the passes: a pass multiplies it
    by at most ``terms + 1``, up to ``order + 1``. Once that bound is
    reached every pass is a pass of slices, and the bound no longer moves."""
    size = order + 1
    by_terms = passes = 0
    price = 0.0
    while passes < k and nz < size and terms:
        pairs = _PAIR_PRICE * nz * terms + size
        # nz only grows, so once slices are cheaper they stay cheaper
        if pairs < size * terms:
            price += pairs
            by_terms += 1
        else:
            price += size * terms
        nz = min(size, nz * (terms + 1))
        passes += 1
    # past 2^64 passes, far past WORK_CAP, the count stays in float range
    price += min(k - passes, 2**64) * size * terms
    return by_terms, price, nz


def _factor_plan(
    n: int, k: int, order: int, m: Optional[int], nz: int, theta: bool = False,
    held: frozenset = frozenset(),
) -> Tuple[bool, float, int, int]:
    """``(dense, price, by_terms, nz)`` of the cheaper route of ``f(n)^k``,
    or of ``phi(-q^n)^k`` when ``theta``, applied to a running product of at
    most ``nz`` nonzero coefficients: the route, its price in updates of a
    sparse pass, how many of its multiply passes run term by term (0 when
    dense or ``k < 0``), and the bound on the nonzero coefficients it
    leaves, which does not depend on the route: ``order + 1`` after a
    division, else that of :func:`_multiply_passes`. Sparse, for ``k <
    0``: ``|k|`` division passes of ``(order + 1) * terms``, whatever the
    weights, since the division kernel scales a sum of weight-2 terms once
    per exponent, and ``_DIVISION_EXPONENT_PRICE`` more per exponent;
    for ``k > 0`` the multiply passes of :func:`_multiply_passes`, term by
    term while the running product is sparse, then by slices. An update on
    residues mod ``m`` costs ``series._update_price``. Dense: 3 per
    coefficient to build ``base^1`` from its terms, the inverting walk to
    ``base^-1`` if ``k < 0`` (the division kernel over ``order // n + 1``
    exponents, priced as a division pass), ``bits(|k|) + popcount(|k|) -
    2`` Kronecker products to power, and one to multiply in unless ``nz``
    is 1, each at :func:`~overcubic.series._kronecker_price`. A running
    product of one nonzero coefficient is 1, since every base has the
    constant term 1. Over Z only sparse passes: dense slots must hold
    coefficient growth. :func:`_planned_steps` asks it at the compressed
    step: the base at ``n // g`` and ``order // g``. The dense price is that
    of a :func:`_dense_power` ladder whose rungs ``base^1`` and ``base^-1``
    the side's dict holds where ``held`` names them, as the expansions
    planned before it on the side leave them (:func:`_held_after`), which
    then cost neither their terms nor the walk; any other rung is
    priced cold, though the dict may hold it, so a price bounds the work
    from above."""
    terms = _term_count(n, order, theta)
    update = 1 if m is None else _update_price((m - 1).bit_length())
    division = (terms + _DIVISION_EXPONENT_PRICE) * update  # per exponent
    if k > 0:
        by_terms, sparse, after = _multiply_passes(k, nz, order, terms)
        sparse *= update
    else:
        # past 2^64 passes, far past WORK_CAP, the count stays in float range
        by_terms, sparse, after = 0, min(-k, 2**64) * (order + 1) * division, order + 1
    if m is None:
        return False, sparse, by_terms, after
    ladder = 0 if (n, 1, order, theta) in held else 3 * (order + 1)
    if k < 0 and (n, -1, order, theta) not in held:
        ladder += (order // n + 1) * division
    products = abs(k).bit_length() + bin(abs(k)).count("1") - 1 - (nz == 1)
    dense = ladder + products * _product_price(order, m)
    return (True, dense, 0, after) if dense < sparse else (False, sparse, by_terms, after)


def _product_price(order: int, m: int) -> float:
    """The price of one product of two series to ``order`` mod ``m``,
    ``Series.__mul__``: a Kronecker product of two operands of ``order + 1``
    residues each."""
    return _kronecker_price(2 * (order + 1), order + 1, _mod_slot_width(m, order + 1))


def _expansion_work(
    quotient: EtaQuotient,
    order: int,
    modulus: Optional[int] = None,
    route: Optional[str] = None,
) -> Tuple[float, Optional[list]]:
    """``(price, ways)`` of ``expand_eta_quotient(quotient, order, modulus,
    route)``: the plan of its side of one form (:func:`_side_plan`), which
    :func:`_expand_side` runs as it is, and its price, over Z times the
    price of an update on the bits :func:`_log_majorant` bounds, as both
    walks scale alike. Past ``WORK_CAP`` coefficients, whose terms alone
    could take minutes to walk, the price is their number, and no plan."""
    m = _validate_modulus(modulus)
    if order >= WORK_CAP:
        return order + 1, None
    factors = _normalized_factors(quotient, order, m)
    ways, price = _side_plan([(factors, order)], m, route)
    if m is None:
        price *= _update_price(_coefficient_bits(tuple(factors), order, m))
    return price, ways


# The CLI asks it for the rows of an expansion it has just priced: one
# saddle-point search takes about as long as a small expansion.
@lru_cache(maxsize=64)
def _coefficient_bits(factors: Tuple[Tuple[int, int], ...], order: int, m: Optional[int]) -> float:
    """A bound on the bits of every coefficient up to ``order`` of ``prod
    f(n)^k``: those of ``m - 1`` under a modulus, over Z those of the
    saddle-point bound :func:`_log_majorant`."""
    return (m - 1).bit_length() if m is not None else _log_majorant(factors, order) / log(2)


def _log_euler(u: float) -> float:
    """``-log prod_{j>=1} (1 - e^(-ju))`` for ``u > 0``.

    Below ``u = 2 pi`` the modular transformation of Dedekind's eta maps it
    to the same sum at ``4 pi^2 / u``, where a few terms suffice.
    """
    if u < 2 * pi:
        dual = 4 * pi * pi / u
        return pi * pi / (6 * u) - u / 24 + log(u / (2 * pi)) / 2 + _log_euler(dual)
    total, j = 0.0, 1
    while True:
        term = -log1p(-exp(-j * u))
        if total + term == total:
            return total
        total += term
        j += 1


def _saddle_minimum(exponent, hi: float) -> Tuple[float, float]:
    """The minimum of a convex ``exponent`` on ``[0, hi]`` and where it is,
    found by a golden-section search of 60 steps. The interior point that
    survives a step is the other interior point of the next bracket, so
    each step after the first evaluates one new point, 61 in all, and the
    search returns the point that survives its last step."""
    lo = 0.0
    shrink = (sqrt(5) - 1) / 2
    t1, t2 = hi - shrink * hi, shrink * hi
    e1, e2 = exponent(t1), exponent(t2)
    for _ in range(59):
        if e1 < e2:
            hi, t2, e2 = t2, t1, e1
            t1 = hi - shrink * (hi - lo)
            e1 = exponent(t1)
        else:
            lo, t1, e1 = t1, t2, e2
            t2 = lo + shrink * (hi - lo)
            e2 = exponent(t2)
    return (e1, t1) if e1 < e2 else (e2, t2)


def _log_majorant(factors: FactorList, order: int) -> float:
    """An upper bound on ``log |a|`` for every coefficient ``a`` up to
    ``order`` of ``prod f(n)^k``, or of a product of some of its factors:
    the saddle-point bound ``min_t sum |k| _log_euler(nt) + order t`` on
    the majorant ``prod f(n)^-|k|``, whose coefficients are non-negative.
    An exponent past 2^64, which alone prices far past ``WORK_CAP``, is
    taken at 2^64."""
    weights = [(n, float(min(abs(k), 2**64))) for n, k in factors]
    # past t = 50 + log(sum |k|) every factor contributes under e^-50
    hi = 50.0 + log(sum(k for _, k in weights) or 1)
    return _saddle_minimum(lambda t: sum(k * _log_euler(n * t) for n, k in weights) + order * t, hi)[0]


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
_PSI = EtaQuotient([(2, 2), (1, -1)])
_PSI_NEG = EtaQuotient([(1, 1), (4, 1), (2, -1)])
_PHI = EtaQuotient([(2, 5), (1, -2), (4, -2)])
_CHI = EtaQuotient([(2, 2), (1, -1), (4, -1)])
# The 3-dissection of f2/(f1*f4): the residue-0, -1, -2 components of the
# generating function for partitions with distinct odd parts (Toh's lemma).
_TOH_LHS = EtaQuotient([(2, 1), (1, -1), (4, -1)])
TOH_TERMS = (
    EtaQuotient([(18, 9), (3, -2), (9, -3), (12, -2), (36, -3)]),
    EtaQuotient([(6, 2), (18, 3), (3, -3), (12, -3)]),
    EtaQuotient([(6, 4), (9, 3), (36, 3), (3, -4), (12, -4), (18, -3)]),
)
# The quotients of Ramanujan's p(5n+4), Chan's a_2(3n+2) and the 5-colored series mod 3.
_RAMANUJAN_P5 = EtaQuotient([(5, 5), (1, -6)])
_CHAN_A2 = EtaQuotient([(3, 3), (6, 3), (1, -4), (2, -4)])
_OVERCUBIC_MOD3_C5 = EtaQuotient([(12, 2), (6, -3), (2, 2), (1, -2), (4, -2)])


def psi(order: int) -> Series:
    return expand_eta_quotient(_PSI, order, route="pentagonal")


def psi_neg(order: int) -> Series:
    return expand_eta_quotient(_PSI_NEG, order, route="pentagonal")


def phi(order: int) -> Series:
    return expand_eta_quotient(_PHI, order, route="pentagonal")


def chi(order: int) -> Series:
    return _CHI.expand(order)


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


def toh_rhs(order: int) -> Series:
    """Sum of the dissection terms shifted by q^0, q^1, q^2 that ``order`` holds."""
    total = TOH_TERMS[0].expand(order)
    for shift_by, term in enumerate(TOH_TERMS[1 : order + 1], start=1):
        total = total + term.expand(order).shift(shift_by)
    return total
