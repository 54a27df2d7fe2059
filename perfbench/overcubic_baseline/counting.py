"""Combinatorial ground truth: direct enumeration and DP part counting.

The objects counted here are partitions whose odd parts come in a single
color while even parts may take any of ``c`` colors, optionally with the
first copy of each (size, color) class overlined. Counts agree, by
construction, with the coefficient streams produced by
:mod:`overcubic.eta`; the brute-force enumerators exist precisely so that
agreement can be *checked* rather than assumed.

Brute-force routines are capped at weight 30: the object counts grow fast
enough beyond that to make exhaustive enumeration pointless when the DP
and the generating function are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

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


def _check_colors(c: int) -> None:
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {c}")


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError(f"weight must be non-negative, got {n}")


def _check_cap(n: int) -> None:
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute-force enumeration is capped at weight {BRUTE_FORCE_CAP} "
            f"(got {n}); use the DP counter instead"
        )


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
    """Number of partitions of ``n``, by the textbook unbounded-part DP."""
    _check_weight(n)
    dp = [0] * (n + 1)
    dp[0] = 1
    for s in range(1, n + 1):
        for w in range(s, n + 1):
            dp[w] += dp[w - s]
    return dp[n]


def count_partitions_brute(n: int) -> int:
    """Partitions of ``n`` by explicit recursive enumeration (oracle)."""
    _check_weight(n)
    _check_cap(n)

    def go(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return sum(go(remaining - s, s) for s in range(1, min(largest, remaining) + 1))

    return go(n, n)


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
    _check_colors(c)
    _check_weight(n)
    dp = [0] * (n + 1)
    dp[0] = 1
    for s in range(1, n + 1):
        for _ in range(_color_count(s, c)):
            for w in range(s, n + 1):
                dp[w] += dp[w - s]
    return dp[n]


def count_gen_overcubic_dp(c: int, n: int) -> int:
    """Overlined ``c``-colored partitions of ``n``.

    Each (size, color) class contributes the factor
    ``(1 + q^s) / (1 - q^s)``: an optional overlined copy plus unboundedly
    many plain copies.
    """
    _check_colors(c)
    _check_weight(n)
    dp = [0] * (n + 1)
    dp[0] = 1
    for s in range(1, n + 1):
        for _ in range(_color_count(s, c)):
            for w in range(s, n + 1):  # 1/(1-q^s), unbounded copies
                dp[w] += dp[w - s]
            for w in range(n, s - 1, -1):  # (1+q^s), the overline choice
                dp[w] += dp[w - s]
    return dp[n]


# -- brute-force enumeration -------------------------------------------------


def _part_types(c: int, n: int) -> List[Tuple[int, int]]:
    """All (size, color) classes of weight at most ``n``, size ascending."""
    return [
        (s, col)
        for s in range(1, n + 1)
        for col in range(1, _color_count(s, c) + 1)
    ]


def count_gen_cubic_brute(c: int, n: int) -> int:
    """Colored partitions of ``n`` by explicit enumeration (oracle)."""
    _check_colors(c)
    _check_weight(n)
    _check_cap(n)
    types = _part_types(c, n)

    def go(idx: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if idx == len(types) or types[idx][0] > remaining:
            return 0
        size = types[idx][0]
        total = go(idx + 1, remaining)
        used = size
        while used <= remaining:
            total += go(idx + 1, remaining - used)
            used += size
        return total

    return go(0, n)


def count_gen_overcubic_brute(c: int, n: int) -> int:
    """Overlined colored partitions of ``n`` by exhaustive enumeration.

    Runs two independent enumerations and insists they agree: summing
    ``2^r`` over colored partitions with ``r`` distinct classes, and
    walking every overline subset explicitly.
    """
    _check_colors(c)
    _check_weight(n)
    _check_cap(n)
    types = _part_types(c, n)

    def by_weight(idx: int, remaining: int, r: int) -> int:
        if remaining == 0:
            return 1 << r
        if idx == len(types) or types[idx][0] > remaining:
            return 0
        size = types[idx][0]
        total = by_weight(idx + 1, remaining, r)
        used = size
        while used <= remaining:
            total += by_weight(idx + 1, remaining - used, r + 1)
            used += size
        return total

    def by_subsets(idx: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if idx == len(types) or types[idx][0] > remaining:
            return 0
        size = types[idx][0]
        total = by_subsets(idx + 1, remaining)
        used = size
        while used <= remaining:
            below = by_subsets(idx + 1, remaining - used)
            total += below  # first copy plain
            total += below  # first copy overlined
            used += size
        return total

    weighted = by_weight(0, n, 0)
    subsets = by_subsets(0, n)
    if weighted != subsets:
        raise AssertionError(
            f"enumeration self-check failed for c={c}, n={n}: "
            f"{weighted} != {subsets}"
        )
    return weighted


def iter_overcubic_partitions(c: int, n: int) -> Iterator[ColoredOverPartition]:
    """Yield every overlined colored partition of ``n`` exactly once.

    Parts within a partition appear in canonical order: size descending,
    color ascending, the overlined copy before its plain siblings.
    """
    _check_colors(c)
    _check_weight(n)
    _check_cap(n)
    types = sorted(_part_types(c, n), key=lambda t: (-t[0], t[1]))

    def variants(chosen: List[Tuple[int, int, int]], idx: int, acc: List[ColoredPart]):
        if idx == len(chosen):
            yield ColoredOverPartition(parts=tuple(acc), weight=n)
            return
        size, color, mult = chosen[idx]
        plain = [ColoredPart(size, color, False)] * mult
        yield from variants(chosen, idx + 1, acc + plain)
        marked = [ColoredPart(size, color, True)] + plain[1:]
        yield from variants(chosen, idx + 1, acc + marked)

    def go(idx: int, remaining: int, chosen: List[Tuple[int, int, int]]):
        if remaining == 0:
            yield from variants(chosen, 0, [])
            return
        if idx == len(types):
            return
        size, color = types[idx]
        if size <= remaining:
            mult = 1
            while mult * size <= remaining:
                yield from go(idx + 1, remaining - mult * size, chosen + [(size, color, mult)])
                mult += 1
        yield from go(idx + 1, remaining, chosen)

    return go(0, n, [])


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
    _check_colors(c)
    if n < 1:
        raise ValueError(f"weight must be positive, got {n}")
    _check_cap(n)
    types = _part_types(c, n)
    tallies = {"p1": 0, "p_geq2": 0, "kappa1": 0, "kappa21": 0, "kappa22": 0}

    # sizes: saturating count of distinct sizes (0, 1, or 2 meaning "2+")
    def go(idx: int, remaining: int, sizes: int, single_size: int, r: int):
        if remaining == 0:
            overlined = 1 << r
            if sizes >= 2:
                tallies["p_geq2"] += overlined
            else:
                tallies["p1"] += overlined
                if single_size % 2:
                    tallies["kappa1"] += 1
                elif r == 1:
                    tallies["kappa21"] += 1
                else:
                    tallies["kappa22"] += overlined
            return
        if idx == len(types) or types[idx][0] > remaining:
            return
        size = types[idx][0]
        go(idx + 1, remaining, sizes, single_size, r)
        new_sizes = sizes + 1 if size != single_size else sizes
        used = size
        while used <= remaining:
            go(idx + 1, remaining - used, min(new_sizes, 2), size, r + 1)
            used += size
        return

    go(0, n, 0, 0, 0)
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
    profile = _distinct_class_profile(n, c)
    return profile[r] if r < len(profile) else 0


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


def _factorize(n: int) -> dict:
    """Prime factorization by trial division; fine for the sizes used here."""
    if n < 1:
        raise ValueError(f"can only factorize positive integers, got {n}")
    factors: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
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
    """Number of even divisors of ``n``."""
    factors = _factorize(n)
    total = 1
    for a in factors.values():
        total *= a + 1
    return total - tau_odd(n)
