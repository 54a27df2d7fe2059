"""Combinatorial ground truth: direct enumeration and DP part counting.

The objects counted here are partitions whose odd parts come in a single
color while even parts may take any of ``c`` colors, optionally with the
first copy of each (size, color) class overlined. Counts agree, by
construction, with the coefficient streams produced by
:mod:`overcubic.eta`; the brute-force enumerators exist precisely so that
agreement can be *checked* rather than assumed.

The DP counters of colored partitions share one recurrence,
``n a(n) = sum_{k<=n} sigma(k) a(n-k)``, with ``sigma(k)`` a weighted
divisor sum of ``k``: ``n(n+1)/2`` products whatever ``c`` is, and no eta
quotient, so the DP stays independent of the series route. Every step must
divide exactly; a remainder raises :class:`EngineInconsistencyError`.
``count_overpartitions`` takes a third route, a convolution of
distinct-part and unrestricted counts.

One non-recursive walk, ``_colored_partitions``, lists every colored
partition as its (size, color, multiplicity) classes. The brute-force
counters, ``iter_overcubic_partitions`` and ``decompose`` are folds over
it. ``count_gen_overcubic_brute`` folds each partition twice, as ``2^r``
for its ``r`` classes and as a product of the two first-copy choices per
class, and raises :class:`EngineInconsistencyError` if the totals differ.

Brute-force routines are capped at weight 30 and at 10^7 colored
partitions walked (about 10 s): the object counts grow fast enough beyond
that to make exhaustive enumeration pointless when the DP and the
generating function are available. The walk size is checked on the call, in
closed form where c alone decides it and by the DP count otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import exp, inf, log, log1p, pi, sqrt
from operator import mul
from typing import Iterator, List, Tuple

from .eta import _PRIME_TEST_LIMIT, _is_prime

__all__ = [
    "BRUTE_FORCE_CAP",
    "ColoredPart",
    "ColoredOverPartition",
    "DecompositionCounts",
    "count_partitions",
    "count_partitions_brute",
    "count_overpartitions",
    "count_gen_cubic",
    "count_gen_cubic_brute",
    "count_gen_overcubic_dp",
    "count_gen_overcubic_brute",
    "iter_overcubic_partitions",
    "decompose",
    "chi_distinct",
    "tau_odd",
    "tau_even",
]

BRUTE_FORCE_CAP = 30
# A brute-force walk over more colored partitions is refused: about 10 s.
_BRUTE_WALK_CAP = 10**7
# A walk over more (size, color) classes is refused too: its type list
# alone would take about 100 MB.
_BRUTE_TYPES_CAP = 10**6
# chi_distinct's DP runs 1.5e7 to 2.5e7 of its steps a second for n <= 600
# and c <= 1000, so more steps are refused: about 10 s.
_CHI_WORK_CAP = 1.5e8


class EngineInconsistencyError(RuntimeError):
    """Two routes through the engine disagree on the same question."""


def _check_colors(c: int) -> None:
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {c}")


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError(f"weight must be non-negative, got {n}")


def _check_brute(c: int, n: int) -> None:
    _check_colors(c)
    _check_weight(n)
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute-force enumeration is capped at weight {BRUTE_FORCE_CAP} "
            f"(got {n}); use the DP counter instead"
        )
    # The walk has 1 partition below n = 2, c + n - 1 at n = 2 and 3, and at
    # least c(c+1)/2 from n = 4 (two parts of size 2), so a large c is
    # refused in closed form before the DP or _part_types sees it.
    if n < 4:
        walk = c + n - 1 if n >= 2 else 1
    else:
        walk = c * (c + 1) // 2
        if walk <= _BRUTE_WALK_CAP:
            walk = _colored_dp(c, n, overlined=False)
    if walk > _BRUTE_WALK_CAP:
        raise ValueError(
            f"brute-force enumeration is capped at {_BRUTE_WALK_CAP:.0e} colored "
            f"partitions (c={c}, n={n} has more); use the DP counter instead"
        )
    if _type_count(c, n) > _BRUTE_TYPES_CAP:
        raise ValueError(
            f"brute-force enumeration is capped at {_BRUTE_TYPES_CAP:.0e} "
            f"(size, color) classes (c={c}, n={n} has more); use the DP counter instead"
        )


def _type_count(c: int, n: int) -> int:
    """Length of ``_part_types(c, n)``: c classes per even size, one per odd."""
    return c * (n // 2) + (n + 1) // 2


def _color_count(size: int, c: int) -> int:
    return 1 if size % 2 else c


@dataclass(frozen=True)
class ColoredPart:
    """One part: a size, a color index, and an overline flag.

    Odd sizes admit only color 1; even sizes admit colors ``1..c``.
    """

    size: int
    color: int = 1
    overlined: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"part size must be positive, got {self.size}")
        if self.color < 1:
            raise ValueError(f"color index must be positive, got {self.color}")
        if self.size % 2 and self.color != 1:
            raise ValueError(f"odd part {self.size} only admits color 1")

    def sort_key(self) -> Tuple[int, int, int]:
        # size descending, color ascending, overlined copy first
        return (-self.size, self.color, 0 if self.overlined else 1)


@dataclass(frozen=True)
class ColoredOverPartition:
    """A multiset of colored parts with at most one overline per class."""

    parts: Tuple[ColoredPart, ...]
    weight: int

    def __post_init__(self):
        if self.weight != sum(p.size for p in self.parts):
            raise ValueError("weight must equal the sum of part sizes")
        overlined = [(p.size, p.color) for p in self.parts if p.overlined]
        if len(overlined) != len(set(overlined)):
            raise ValueError("at most one overlined part per (size, color) class")

    def validate_colors(self, c: int) -> None:
        _check_colors(c)
        for p in self.parts:
            if p.color > _color_count(p.size, c):
                raise ValueError(
                    f"part {p} uses color {p.color} but only "
                    f"{_color_count(p.size, c)} colors are available"
                )


# -- plain and colored partition counting (DP) ------------------------------


def count_partitions(n: int) -> int:
    """Number of partitions of ``n``: the colored DP at one color."""
    return count_gen_cubic(1, n)


def count_overpartitions(n: int) -> int:
    """Overpartitions of ``n``.

    Computed as the convolution of distinct-part counts with unrestricted
    partition counts (overlined parts are distinct, the rest unrestricted),
    a route independent of the colored DP below.
    """
    _check_weight(n)
    distinct = [0] * (n + 1)
    distinct[0] = 1
    for s in range(1, n + 1):
        for w in range(n, s - 1, -1):
            distinct[w] += distinct[w - s]
    plain = [0] * (n + 1)
    plain[0] = 1
    for s in range(1, n + 1):
        for w in range(s, n + 1):
            plain[w] += plain[w - s]
    return sum(distinct[k] * plain[n - k] for k in range(n + 1))


def count_gen_cubic(c: int, n: int) -> int:
    """Partitions of ``n`` with ``c`` colors on even parts (no overlines)."""
    return _colored_dp(c, n, overlined=False)


def count_gen_overcubic_dp(c: int, n: int) -> int:
    """Overlined ``c``-colored partitions of ``n``.

    Each (size, color) class contributes the factor
    ``(1 + q^s) / (1 - q^s)``: an optional overlined copy plus unboundedly
    many plain copies. The count comes from the divisor-sum recurrence of
    the product of these factors (see :func:`_colored_dp`).
    """
    return _colored_dp(c, n, overlined=True)


def _divisor_sums(c: int, n: int, overlined: bool) -> List[int]:
    """``sigma[k - 1]`` for ``k = 1..n``: the coefficients of ``q F'/F``.

    Each (size, color) class of size ``s`` contributes ``s`` at every
    multiple of ``s`` through ``1/(1-q^s)``. With overlines its factor is
    ``(1+q^s)/(1-q^s)``, whose log-derivative is ``2s * sum_{j odd} q^(sj)``,
    so it contributes ``2s`` at the odd multiples only.
    """
    sigma = [0] * (n + 1)
    for s in range(1, n + 1):
        weight = s * _color_count(s, c)
        if overlined:
            weight *= 2
        for k in range(s, n + 1, 2 * s if overlined else s):
            sigma[k] += weight
    return sigma[1:]


def _colored_dp(c: int, n: int, overlined: bool) -> int:
    """The ``n``-th coefficient of the colored counting series ``F``, by
    ``w a(w) = sum_{k=1..w} sigma(k) a(w-k)`` (from ``q F' = (q F'/F) F``;
    Apostol, *Introduction to Analytic Number Theory*, ch. 14). It costs
    ``n(n+1)/2`` products whatever ``c`` is; a step whose sum ``w`` does not
    divide raises :class:`EngineInconsistencyError`."""
    _check_colors(c)
    _check_weight(n)
    sigma = _divisor_sums(c, n, overlined)
    a = [1]
    for w in range(1, n + 1):
        value, rest = divmod(sum(map(mul, sigma, reversed(a))), w)
        if rest:
            raise EngineInconsistencyError(
                f"colored DP step is not integral for c={c}, n={w}: "
                f"remainder {rest} mod {w}"
            )
        a.append(value)
    return a[n]


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


def _log_count_bound(c: int, n: int, overlined: bool) -> float:
    """An upper bound on ``log`` of the colored count of ``n``:
    ``min_t log F(e^-t) + n t``, which holds because ``F`` has non-negative
    coefficients (the saddle-point bound). It exceeds the log by a few bits,
    and by up to ``log2(c)/2`` more where the odd parts of a small odd ``n``
    cost it a factor of c. ``log F`` is ``one_color + (c-1) extra_color``:
    the one-color series and the classes of one more color, in closed form
    through :func:`_log_euler`. The second term is formed from ``log(c-1)``,
    so any ``c`` stays in float range. ``log F + n t`` is convex in ``t``,
    so a golden-section search finds its minimum.
    """
    _check_colors(c)
    _check_weight(n)
    if not n:
        return 0.0
    log_extra = log(c - 1) if c > 1 else -inf

    def exponent(t: float) -> float:
        l1, l2 = _log_euler(t), _log_euler(2 * t)
        if overlined:  # f2/f1^2, times (1+q^s)/(1-q^s) per extra color of an even s
            one_color, extra_color = 2 * l1 - l2, 2 * l2 - _log_euler(4 * t)
        else:  # 1/f1, times 1/(1-q^s) per extra color of an even size s
            one_color, extra_color = l1, l2
        # past t = 20, extra_color is e^-2t (twice that overlined) to double
        # precision; its logarithm is taken in closed form, as it underflows
        # long before (c-1) * extra_color does
        x = log_extra + (log(extra_color) if t < 20 else log(1 + overlined) - 2 * t)
        # exp overflows past 709; such a t is far from the minimum
        return inf if x > 700 else one_color + exp(x) + n * t

    # past t = 50 + log(c) every class contributes under e^-50
    lo, hi = 0.0, 50.0 + max(log_extra, 0.0)
    shrink = (sqrt(5) - 1) / 2
    for _ in range(60):
        t1, t2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if exponent(t1) < exponent(t2):
            hi = t2
        else:
            lo = t1
    return exponent((lo + hi) / 2)


# -- brute-force enumeration -------------------------------------------------


def _part_types(c: int, n: int) -> List[Tuple[int, int]]:
    """All (size, color) classes of weight at most ``n``: size descending,
    color ascending, so the last one is ``(1, 1)``."""
    return [
        (s, col)
        for s in range(n, 0, -1)
        for col in range(1, _color_count(s, c) + 1)
    ]


def _colored_partitions(c: int, n: int) -> Iterator[List[Tuple[int, int, int]]]:
    """Yield every ``c``-colored partition of ``n`` once, as the list of
    its ``(size, color, multiplicity)`` classes in canonical order. The same
    list is mutated between yields; copy it to keep it.

    The walk does not recurse (Knuth, TAOCP 4A, 7.2.1.4). ``frames`` holds
    a ``(type index, weight left before it)`` pair per class. A new class
    takes the first type that fits at its largest multiplicity; a step
    lowers the multiplicity, then moves to the next type. The last type,
    ``(1, 1)``, always takes all the weight left, so no branch dead-ends.
    """
    types = _part_types(c, n)
    last = len(types) - 1
    first = [0] * (n + 1)  # first[w]: index of the first type of size <= w
    for j in range(last, -1, -1):
        first[types[j][0]] = j
    classes: List[Tuple[int, int, int]] = []
    frames: List[Tuple[int, int]] = []
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


def _overlinings_by_weight(classes: List[Tuple[int, int, int]]) -> int:
    """``2^r`` overlinings of a colored partition with ``r`` classes."""
    return 1 << len(classes)


def _overlinings_by_choices(classes: List[Tuple[int, int, int]]) -> int:
    """Overlinings as a product over the classes of the two first-copy
    choices, plain or overlined."""
    ways = 1
    for _class in classes:
        ways *= 2
    return ways


def count_partitions_brute(n: int) -> int:
    """Partitions of ``n`` by explicit enumeration (oracle)."""
    return count_gen_cubic_brute(1, n)


def count_gen_cubic_brute(c: int, n: int) -> int:
    """Colored partitions of ``n`` by explicit enumeration (oracle)."""
    _check_brute(c, n)
    return sum(1 for _ in _colored_partitions(c, n))


def count_gen_overcubic_brute(c: int, n: int) -> int:
    """Overlined colored partitions of ``n`` by exhaustive enumeration.

    Folds every colored partition twice and insists the totals agree:
    ``2^r`` for its ``r`` classes, and the product over its classes of the
    two first-copy choices. A disagreement raises
    :class:`EngineInconsistencyError`.
    """
    _check_brute(c, n)
    weighted = subsets = 0
    for classes in _colored_partitions(c, n):
        weighted += _overlinings_by_weight(classes)
        subsets += _overlinings_by_choices(classes)
    if weighted != subsets:
        raise EngineInconsistencyError(
            f"enumeration self-check failed for c={c}, n={n}: "
            f"{weighted} != {subsets}"
        )
    return weighted


def _first_copy_choices(cls: Tuple[int, int, int]) -> Tuple[tuple, tuple]:
    """A class's parts with the first copy plain, and with it overlined."""
    size, color, mult = cls
    plain = (ColoredPart(size, color),) * mult
    return plain, (ColoredPart(size, color, True),) + plain[1:]


def iter_overcubic_partitions(c: int, n: int) -> Iterator[ColoredOverPartition]:
    """Yield every overlined colored partition of ``n`` exactly once.

    Parts within a partition appear in canonical order: size descending,
    color ascending, the overlined copy before its plain siblings.
    Arguments are checked on the call, before the first item is drawn.
    """
    _check_brute(c, n)
    return (
        ColoredOverPartition(parts=tuple(chain.from_iterable(choice)), weight=n)
        for classes in _colored_partitions(c, n)
        for choice in product(*map(_first_copy_choices, classes))
    )


# -- the single-size / multi-size decomposition ------------------------------


@dataclass(frozen=True)
class DecompositionCounts:
    """Classification of the overlined colored partitions of one weight.

    ``p1`` and ``p_geq2`` count overlined partitions with exactly one and
    at least two distinct part *sizes*; they sum to the full count.
    Within the single-size class, ``kappa1`` and ``kappa21`` count the
    underlying colored partitions (odd size, and even size in one color;
    each contributes two overlined partitions), while ``kappa22`` counts
    overlined partitions of a single even size spread over several colors,
    each such colored partition contributing ``2^(colors used)``.
    """

    c: int
    n: int
    p1: int
    p_geq2: int
    kappa1: int
    kappa21: int
    kappa22: int
    tau_odd: int
    tau_even: int

    @property
    def total(self) -> int:
        return self.p1 + self.p_geq2


def decompose(c: int, n: int) -> DecompositionCounts:
    """Enumerate and classify every overlined colored partition of ``n``."""
    if n < 1:
        raise ValueError(f"weight must be positive, got {n}")
    _check_brute(c, n)
    tallies = {"p1": 0, "p_geq2": 0, "kappa1": 0, "kappa21": 0, "kappa22": 0}
    for classes in _colored_partitions(c, n):
        overlined = _overlinings_by_weight(classes)
        size = classes[0][0]
        if size != classes[-1][0]:  # classes are size-sorted
            tallies["p_geq2"] += overlined
            continue
        tallies["p1"] += overlined
        if size % 2:
            tallies["kappa1"] += 1
        elif len(classes) == 1:
            tallies["kappa21"] += 1
        else:
            tallies["kappa22"] += overlined
    return DecompositionCounts(
        c=c,
        n=n,
        tau_odd=tau_odd(n),
        tau_even=tau_even(n),
        **tallies,
    )


def chi_distinct(n: int, r: int, c: int = 1) -> int:
    """Colored partitions of ``n`` using exactly ``r`` distinct classes.

    At ``c = 1`` this is the classical count of partitions with exactly
    ``r`` distinct part sizes.
    """
    if n < 1:
        raise ValueError(f"weight must be positive, got {n}")
    if r < 0:
        raise ValueError(f"class count must be non-negative, got {r}")
    _check_colors(c)
    if _type_count(c, n) > _BRUTE_TYPES_CAP:
        raise ValueError(
            f"chi_distinct is capped at {_BRUTE_TYPES_CAP:.0e} (size, color) "
            f"classes (c={c}, n={n} has more)"
        )
    work = _distinct_class_work(n, c)
    if work > _CHI_WORK_CAP:
        raise ValueError(
            f"chi_distinct is capped at {_CHI_WORK_CAP:.1e} DP steps, about 10 s "
            f"(c={c}, n={n} needs {work:.1e})"
        )
    profile = _distinct_class_profile(n, c)
    return profile[r] if r < len(profile) else 0


def _distinct_class_work(n: int, c: int) -> int:
    """Steps of ``_distinct_class_profile(n, c)``: each (size, color) class
    of size ``s`` scans ``n - s + 1`` weights times ``n + 1`` class counts."""
    h = n // 2
    return (n * (n + 1) // 2 + (c - 1) * h * (n - h)) * (n + 1)


def _distinct_class_profile(n: int, c: int) -> List[int]:
    """``profile[r]`` = colored partitions of ``n`` with ``r`` classes used."""
    dp = [[0] * (n + 2) for _ in range(n + 1)]
    dp[0][0] = 1
    for size, _color in _part_types(c, n):
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
    return dp[n]


# -- divisor counting --------------------------------------------------------


# Trial division stops here: about 0.1 s. A cofactor with no prime factor
# up to the bound must be a prime that eta._is_prime can decide.
_TRIAL_DIVISION_BOUND = 10**6


def _factorize(n: int) -> dict:
    """Prime factorization by trial division, which stops as soon as the
    cofactor left is 1 or prime (Miller-Rabin, ``eta._is_prime``).

    A cofactor with no prime factor up to ``_TRIAL_DIVISION_BOUND`` that is
    not prime, or that is too large for the deterministic test, raises
    ``ValueError``: factorizing it could take hours.
    """
    if n < 1:
        raise ValueError(f"can only factorize positive integers, got {n}")
    factors: dict = {}
    d = 2
    while n > 1:
        if n < _PRIME_TEST_LIMIT and _is_prime(n):
            d = n
        while n % d:
            d += 1 if d == 2 else 2
            if d > _TRIAL_DIVISION_BOUND:
                raise ValueError(
                    f"cannot factorize the cofactor {n}: it has no prime factor "
                    f"up to {_TRIAL_DIVISION_BOUND:.0e} and is not provably prime"
                )
        factors[d] = factors.get(d, 0) + 1
        n //= d
    return factors


def tau_odd(n: int) -> int:
    """Number of odd divisors of ``n``."""
    factors = _factorize(n)
    out = 1
    for p, a in factors.items():
        if p != 2:
            out *= a + 1
    return out


def tau_even(n: int) -> int:
    """Number of even divisors of ``n``: ``2^i * d`` for ``1 <= i <= v2(n)``
    and ``d`` an odd divisor, so ``v2(n) * tau_odd(n)``."""
    return ((n & -n).bit_length() - 1) * tau_odd(n)
