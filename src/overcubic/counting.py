"""Combinatorial ground truth: direct enumeration and DP part counting.

The objects counted here are partitions whose odd parts come in a single
color while even parts may take any of ``c`` colors, optionally with the
first copy of each (size, color) class overlined. Counts agree, by
construction, with the coefficient streams produced by
:mod:`overcubic.eta`; the brute-force enumerators exist precisely so that
agreement can be *checked* rather than assumed.

The DP counters of colored partitions share one recurrence,
``n a(n) = sum_{k<=n} sigma(k) a(n-k)``, with ``sigma(k)`` a weighted
divisor sum of ``k``. Its sums are built by divide and conquer over the
weights, each block of them by a Kronecker product or by the schoolbook,
whichever is priced cheaper in the expansion plan's unit and at its price
of a Kronecker product; ``_dp_work`` sums those prices, each node's at the
bits of its own counts, for the CLI's work bound. The cost grows with ``c``
only through the bits of the counts. The DP shares the packing kernel of
:mod:`overcubic.series` with ``Series.__mul__`` but not the route: it
multiplies divisor sums, not eta factors, so it stays independent of the
series route. Every step must divide exactly; a remainder, which a slot
or carry fault in a block product would leave, raises
:class:`EngineInconsistencyError`.
``count_overpartitions`` takes a third route, a convolution of
distinct-part and unrestricted counts.

The brute-force counters, ``iter_overcubic_partitions`` and ``decompose``
share one non-recursive walk, ``_walk``, over the partitions of ``n`` into
sizes: ``p(n)`` of them, whatever ``c`` is. An odd size, and every size at
``c = 1``, has one coloring and adds one (size, color) class. An even size
of multiplicity ``m`` takes any multiset of ``m`` colors out of ``c``; its
pool holds each multiset's number of distinct colors, the classes it makes,
built once per call from the pool of ``m - 1`` by byte slices. A colored
partition is one element of its single pool or of the product of its pools,
so the counters and ``decompose`` visit each colored partition once and
weigh it by its class count ``r`` (``2^r`` overlinings, or 1), with the
work per object done in C through ``map``, ``sum`` and :mod:`itertools`.
``iter_overcubic_partitions`` builds its objects lazily from the same walk,
drawing each size's colorings as it goes. Each brute-force count is checked
against the DP count of the same weight, an independent route, and a
disagreement raises :class:`EngineInconsistencyError`.

Brute-force routines are capped at weight 30, a rule of the domain: the
object counts grow fast enough beyond that to make exhaustive enumeration
pointless when the DP and the generating function are available. Within
that, and 10^6 (size, color) classes, a bound on memory, a walk is priced
at its colored partitions and refused over the one work cap, as a DP count
and a ``chi_distinct`` profile are (``series._check_work``). The caps are
checked on the call, the class count first, so the DP that counts the walk
never sees a large c with work to do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import (
    accumulate, chain, combinations_with_replacement, groupby, product, repeat, starmap, takewhile
)
from math import comb, exp, inf, log
from operator import add, eq, mul, sub
from typing import Iterator, List, Tuple

from .eta import _log_euler, _prime_power_base, _saddle_minimum
from .series import (
    WORK_CAP, _check_work, _kronecker_price, _pack, _show, _slot_width, _unpack, _update_price
)

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
    "distinct_class_profile",
    "tau_odd",
    "tau_even",
]

BRUTE_FORCE_CAP = 30
# A brute-force call over more (size, color) classes is refused, a bound on
# memory: at n = 2 the walk lists c + 1 colored partitions, so the work cap
# alone would admit c near 10^8, and iter_overcubic_partitions copies the c
# colors, about 40 bytes each. chi_distinct keeps the same domain.
_BRUTE_TYPES_CAP = 10**6
# adds one to every byte below 255; a pool entry is at most BRUTE_FORCE_CAP // 2
_RAISE = bytes(range(1, 256)) + b"\0"


class EngineInconsistencyError(RuntimeError):
    """Two routes through the engine disagree on the same question."""


def _check_colors(c: int) -> None:
    if c < 1:
        raise ValueError(f"color count must be at least 1, got {_show(c)}")


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError(f"weight must be non-negative, got {_show(n)}")


def _check_brute(c: int, n: int) -> int:
    """Refuse a brute-force walk over its caps; return the number of colored
    partitions it lists, by the DP."""
    _check_colors(c)
    _check_weight(n)
    if n > BRUTE_FORCE_CAP:
        raise ValueError(
            f"brute-force enumeration is capped at weight {BRUTE_FORCE_CAP} "
            f"(got {_show(n)}); use the DP counter instead"
        )
    # bounds c from n = 2 on; below, the DP's work does not grow with c
    _check_class_count(c, n, "brute-force enumeration", "; use the DP counter instead")
    walk = _colored_dp(c, n, overlined=False)
    # a colored partition costs 1.4 + n/25 updates, as measured at n = 4-30:
    # the more weight, the more pools it is drawn from
    _check_work(walk * (1.4 + n / 25), f"brute-force enumeration at c={_show(c)}, n={n}",
                "; use the DP counter instead")
    return walk


def _check_class_count(c: int, n: int, what: str, advice: str = "") -> None:
    """Refuse ``what`` over more than ``_BRUTE_TYPES_CAP`` (size, color)
    classes of weight at most ``n``: c per even size, one per odd size."""
    if c * (n // 2) + (n + 1) // 2 > _BRUTE_TYPES_CAP:
        raise ValueError(
            f"{what} is capped at {_BRUTE_TYPES_CAP:.0e} (size, color) classes "
            f"(c={_show(c)}, n={_show(n)} has more){advice}"
        )


def _check_fold(count: int, dp: int, c: int, n: int) -> int:
    """Return the brute-force ``count`` if it equals ``dp``, the DP count of
    the same objects; raise :class:`EngineInconsistencyError` otherwise."""
    if count != dp:
        raise EngineInconsistencyError(
            f"brute-force count disagrees with the DP for c={_show(c)}, n={n}: "
            f"{count} by enumeration, {dp} by the DP"
        )
    return count


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
            raise ValueError(f"part size must be positive, got {_show(self.size)}")
        if self.color < 1:
            raise ValueError(f"color index must be positive, got {_show(self.color)}")
        if self.size % 2 and self.color != 1:
            raise ValueError(f"odd part {_show(self.size)} only admits color 1")

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
                    f"part of size {_show(p.size)} uses color {_show(p.color)} but "
                    f"only {_show(_color_count(p.size, c))} colors are available"
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


# A node of the DP's tree over at most this many weights runs the quadratic
# step directly.
_DP_LEAF = 32


def _dp_block_prices(
    length: int, count: int, a_bits: int, sigma_bits: int
) -> Tuple[float, float]:
    """The prices, schoolbook and Kronecker, of adding ``length`` counts of at
    most ``a_bits`` bits, times divisor sums of at most ``sigma_bits`` bits,
    into the sums of the next ``count`` weights.

    In updates of a sparse pass, the plan's unit: a product of a count of
    ``b`` bits by a divisor sum, added into a sum, costs ``1.45 * (1 +
    b/1040)`` word multiply-adds (fitted on blocks of 32-2500 weights) of
    3.35 updates, the median of 2.2-4.5 timed at 24-1000 bits between
    sparse passes (2-vCPU x86 host). The Kronecker product packs the block
    and ``length + count`` divisor sums, at ``series._kronecker_price``.
    """
    schoolbook = length * count * 1.45 * 3.35 * (1 + a_bits / 1040)
    width = _dp_slot_width(length, a_bits, sigma_bits)
    return schoolbook, _kronecker_price(2 * length + count, count, width)


def _dp_slot_width(length: int, a_bits: int, sigma_bits: int) -> int:
    """Bytes per slot for sums of ``length`` products of ``a_bits`` by ``sigma_bits`` bits."""
    return _slot_width(a_bits + sigma_bits + length.bit_length())


def _dp_work(c: int, n: int, overlined: bool) -> float:
    """The price of :func:`_colored_dp` at weight ``n``: over its tree of
    weights ``[0, n]``, each node's block product at the cheaper of its two
    prices and each leaf's steps by the schoolbook, a node's counts at the
    bits of its largest by :func:`_log_count_line`, every divisor sum at
    those of ``2cn(1 + n.bit_length())``, as ``2c sigma_1(k) <= 2ck(1 + ln
    k)``, level by level from the root until the sum passes ``WORK_CAP``.
    Past ``2**53`` weights, beyond floats, it is ``n``: each costs an update."""
    n = max(n, 0)  # an empty sum below weight 0
    if n > 2**53:
        return n
    intercept, slope = _log_count_line(c, n, overlined)
    sigma_bits = (2 * c * n * (n.bit_length() + 1)).bit_length()

    def bits(w: int) -> int:  # of the counts up to weight w
        return int((intercept + w * slope) / log(2)) + 1

    work, level = 0.0, [(0, n + 1)]
    while level and work <= WORK_CAP:
        below = []
        for l, r in level:
            if r - l <= _DP_LEAF:
                products = (r - l) * (r - l + 1) // 2
                work += _dp_block_prices(1, products, bits(r - 1), sigma_bits)[0]
            else:
                m = (l + r) // 2  # the split of _colored_dp's solve
                work += min(_dp_block_prices(m - l, r - m, bits(m - 1), sigma_bits))
                below += [(l, m), (m, r)]
        level = below
    return work


def _colored_dp(c: int, n: int, overlined: bool) -> int:
    """The ``n``-th coefficient of the colored counting series ``F``, by
    ``w a(w) = sum_{k=1..w} sigma(k) a(w-k)`` (from ``q F' = (q F'/F) F``;
    Apostol, *Introduction to Analytic Number Theory*, ch. 14); a step whose
    sum ``w`` does not divide raises :class:`EngineInconsistencyError`.

    The sums are built online, by divide and conquer over the weights
    ``[0, n]`` (van der Hoeven, "Relaxed multiplication using the middle
    product", ISSAC 2003). A node over ``[l, r)`` solves ``[l, m)``, adds
    the terms of ``a[l:m]`` into the sums of ``[m, r)`` with one block
    product, and solves ``[m, r)``; a node over at most ``_DP_LEAF`` weights
    takes each step's remaining terms directly. A block product runs as a
    Kronecker product (unsigned slots; see :mod:`overcubic.series`) or as
    the schoolbook, whichever :func:`_dp_block_prices` prices cheaper: the
    slots are as wide as the counts, so from counts of a few hundred bits
    on the schoolbook wins.
    """
    _check_colors(c)
    _check_weight(n)
    sigma = _divisor_sums(c, n, overlined)
    sigma_bits = max(sigma, default=0).bit_length()
    a = [1]
    sums = [0] * (n + 1)  # sums[w]: the terms sigma(w-j) a(j) added so far
    packed = {}  # (span, width): the divisor sums sigma(0..span-1), packed

    def add_block(l: int, m: int, r: int) -> None:
        block = a[l:m]
        a_bits = max(block).bit_length()
        schoolbook, kronecker = _dp_block_prices(m - l, r - m, a_bits, sigma_bits)
        if kronecker < schoolbook:
            width = _dp_slot_width(m - l, a_bits, sigma_bits)
            key = (r - l, width)
            if key not in packed:
                packed[key] = _pack([0] + sigma[: r - l - 1], width)
            product = _pack(block, width) * packed[key]
            terms = _unpack(product >> (8 * width * (m - l)), width, r - m)
        else:
            block.reverse()
            terms = [sum(map(mul, sigma[w - m : w - l], block)) for w in range(m, r)]
        sums[m:r] = map(add, sums[m:r], terms)

    def solve(l: int, r: int) -> None:
        if r - l > _DP_LEAF:
            m = (l + r) // 2
            solve(l, m)
            add_block(l, m, r)
            solve(m, r)
            return
        for w in range(max(l, 1), r):
            value, rest = divmod(sums[w] + sum(map(mul, sigma, reversed(a[l:]))), w)
            if rest:
                raise EngineInconsistencyError(
                    f"colored DP step is not integral for c={_show(c)}, n={w}: "
                    f"remainder {rest} mod {w}"
                )
            a.append(value)

    solve(0, n + 1)
    return a[n]


def _log_count_line(c: int, n: int, overlined: bool) -> Tuple[float, float]:
    """``(log F(e^-t), t)`` at the ``t`` that minimizes ``log F(e^-t) + n
    t``, ``F`` the colored counting series: as ``F`` has non-negative
    coefficients, the line ``log F(e^-t) + w t`` bounds ``log a(w)`` for
    every ``w`` (the saddle-point bound), at ``n`` by a few bits more, and
    by up to ``log2(c)/2`` more where the odd parts of a small odd ``n``
    cost it a factor of c. ``log F`` is ``one_color + (c-1) extra_color``,
    in closed form through ``eta._log_euler``, the second term formed from
    ``log(c-1)``, so any ``c`` stays in float range.
    """
    _check_colors(c)
    _check_weight(n)
    if not n:
        return 0.0, 0.0
    log_extra = log(c - 1) if c > 1 else -inf

    def log_series(t: float) -> float:
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
        return inf if x > 700 else one_color + exp(x)

    # past t = 50 + log(c) every class contributes under e^-50
    least, t = _saddle_minimum(lambda t: log_series(t) + n * t, 50.0 + max(log_extra, 0.0))
    return least - n * t, t


def _log_count_bound(c: int, n: int, overlined: bool) -> float:
    """An upper bound on ``log`` of the colored count of ``n``."""
    intercept, slope = _log_count_line(c, n, overlined)
    return intercept + n * slope


# -- brute-force enumeration -------------------------------------------------


def _walk(
    n: int, pools: List[bytes]
) -> Iterator[Tuple[List[Tuple[int, int, int]], int, List[bytes]]]:
    """Yield every partition of ``n`` into sizes once, as its ``(size,
    multiplicity, weight left before it)`` triples, size descending, with
    its colorings: the class count ``fixed`` of its sizes with one
    coloring, and the pools of its other sizes. The same lists are mutated
    between yields; copy them to keep them.

    ``pools[m]`` is the pool of an even size of multiplicity ``m``; with no
    pools every size has one coloring and one class, as an odd size always
    has. A colored partition is one element of the product of its
    partition's pools, and has ``fixed`` plus that element's entries as its
    number of (size, color) classes.

    The walk does not recurse (Knuth, TAOCP 4A, 7.2.1.4). A new triple
    takes the largest size that fits, below the previous one, at its
    largest multiplicity; a step lowers the multiplicity, then the size.
    Size 1 always takes all the weight left, so no branch dead-ends.
    """
    colored = [bool(pools) and not s % 2 for s in range(n + 1)]
    stack: List[Tuple[int, int, int]] = []
    drawn: List[bytes] = []
    fixed = 0
    top = left = n  # the largest size the next triple may take; weight left
    while True:
        while left:
            size = top if top < left else left
            mult = left // size
            stack.append((size, mult, left))
            if colored[size]:
                drawn.append(pools[mult])
            else:
                fixed += 1
            top, left = size - 1, left - mult * size
        yield stack, fixed, drawn
        while stack:
            size, mult, before = stack.pop()
            if colored[size]:
                drawn.pop()
            else:
                fixed -= 1
            if size == 1:
                continue
            if mult > 1:
                mult -= 1
            else:
                size -= 1
                mult = before // size
            stack.append((size, mult, before))
            if colored[size]:
                drawn.append(pools[mult])
            else:
                fixed += 1
            top, left = size - 1, before - mult * size
            break
        else:
            return


def _pools(c: int, n: int) -> List[bytes]:
    """``pools[m]``, for ``m <= n // 2``: per multiset of ``m`` colors out of
    ``c``, the number of distinct colors in it, the classes that an even
    size of multiplicity ``m`` colored by it makes. Empty at ``c = 1``.

    In ``combinations_with_replacement`` order the multisets over the last
    ``j`` colors end the list, so ``pools[m]`` joins, for ``j = c..1``, that
    tail of ``pools[m-1]`` with the first of those colors added: its first
    ``comb(j+m-3, m-2)`` entries hold that color already, the rest gain one."""
    if c == 1:
        return []
    pools = [b"", b"\x01" * c] if n >= 2 else [b""]
    for m in range(2, n // 2 + 1):
        last, joined = pools[-1], []
        for j in range(c, 0, -1):
            tail, kept = len(last) - comb(j + m - 2, m - 1), comb(j + m - 3, m - 2)
            joined += last[tail : tail + kept], last[tail + kept :].translate(_RAISE)
        pools.append(b"".join(joined))
    return pools


def _weigh(weights: List[int], fixed: int, drawn: List[bytes]) -> int:
    """The sum of ``weights[r]`` over the colorings of one partition into
    sizes, ``r`` their number of classes: ``fixed`` plus, per element of its
    single pool or of the product of its two or more pools, the element's
    entries. Each coloring is visited once."""
    if not drawn:
        return weights[fixed]
    counts = drawn[0]
    for pool in drawn[1:]:
        counts = starmap(add, product(counts, pool))
    return sum(map(weights[fixed:].__getitem__, counts))


def _fold(c: int, n: int, weights: List[int]) -> int:
    """The sum of ``weights[r]`` over every ``c``-colored partition of ``n``,
    ``r`` its number of (size, color) classes; ``weights`` covers ``r <= n``."""
    total = 0
    for _stack, fixed, drawn in _walk(n, _pools(c, n)):
        # inline for a partition with no pools, every one at c = 1: a call
        # per partition is about a tenth of that walk
        total += _weigh(weights, fixed, drawn) if drawn else weights[fixed]
    return total


def count_partitions_brute(n: int) -> int:
    """Partitions of ``n`` by explicit enumeration (oracle)."""
    return count_gen_cubic_brute(1, n)


def count_gen_cubic_brute(c: int, n: int) -> int:
    """Colored partitions of ``n`` by explicit enumeration (oracle), checked
    against the DP count."""
    walk = _check_brute(c, n)
    return _check_fold(_fold(c, n, [1] * (n + 1)), walk, c, n)


def count_gen_overcubic_brute(c: int, n: int) -> int:
    """Overlined colored partitions of ``n`` by exhaustive enumeration.

    Folds every colored partition as its ``2^r`` overlinings, one plain or
    overlined first copy per class, and checks the total against
    :func:`count_gen_overcubic_dp`'s recurrence; a disagreement raises
    :class:`EngineInconsistencyError`.
    """
    _check_brute(c, n)
    total = _fold(c, n, [1 << r for r in range(n + 1)])
    return _check_fold(total, _colored_dp(c, n, overlined=True), c, n)


def _first_copy_choices(cls: Tuple[int, int, int]) -> Tuple[tuple, tuple]:
    """A class's parts with the first copy plain, and with it overlined."""
    size, color, mult = cls
    plain = (ColoredPart(size, color),) * mult
    return plain, (ColoredPart(size, color, True),) + plain[1:]


def _extend(prefixes: Iterator[tuple], size: int, mult: int, colors: int) -> Iterator[tuple]:
    """Each prefix followed by the ``mult`` parts of one size, in every
    coloring out of ``colors`` and every overlining, in canonical order.
    The colorings are drawn anew under each prefix, so only the current
    one is held."""
    for prefix in prefixes:
        for coloring in combinations_with_replacement(range(1, colors + 1), mult):
            classes = [(size, color, len(tuple(run))) for color, run in groupby(coloring)]
            for choice in product(*map(_first_copy_choices, classes)):
                yield prefix + tuple(chain.from_iterable(choice))


def _partition_parts(stack: List[Tuple[int, int, int]], c: int) -> Iterator[tuple]:
    """The parts of every overlined colored partition of one partition into
    sizes, drawn lazily, size by size."""
    parts: Iterator[tuple] = iter([()])
    for size, mult, _before in stack:
        parts = _extend(parts, size, mult, _color_count(size, c))
    return parts


def iter_overcubic_partitions(c: int, n: int) -> Iterator[ColoredOverPartition]:
    """Yield every overlined colored partition of ``n`` exactly once.

    Parts within a partition appear in canonical order: size descending,
    color ascending, the overlined copy before its plain siblings.
    Arguments are checked on the call, before the first item is drawn.
    """
    _check_brute(c, n)
    return (
        ColoredOverPartition(parts=parts, weight=n)
        for stack, _fixed, _drawn in _walk(n, [])
        for parts in _partition_parts(stack, c)
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
        raise ValueError(f"weight must be positive, got {_show(n)}")
    _check_brute(c, n)
    overlined = [1 << r for r in range(n + 1)]  # by class count r
    tallies = {"p1": 0, "p_geq2": 0, "kappa1": 0, "kappa21": 0, "kappa22": 0}
    for stack, fixed, drawn in _walk(n, _pools(c, n)):
        weight = _weigh(overlined, fixed, drawn)
        if len(stack) > 1:
            tallies["p_geq2"] += weight
            continue
        # one size: one class, or its pool of colorings; those of one class
        # have 2 overlinings each, the rest kappa22's 2^r
        ones = drawn[0].count(1) if drawn else 1
        tallies["p1"] += weight
        tallies["kappa1" if stack[0][0] % 2 else "kappa21"] += ones
        tallies["kappa22"] += weight - 2 * ones
    _check_fold(tallies["p1"] + tallies["p_geq2"], _colored_dp(c, n, overlined=True), c, n)
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
    ``r`` distinct part sizes: entry ``r`` of
    :func:`distinct_class_profile`, which builds the counts of every ``r``
    once per ``(n, c)``.
    """
    if r < 0:
        raise ValueError(f"class count must be non-negative, got {_show(r)}")
    profile = distinct_class_profile(n, c)
    return profile[r] if r < len(profile) else 0


# A sum over r, as lemma L1 takes it, reads one (n, c) n + 2 times; a few
# entries serve sums that alternate between weights or color counts.
@lru_cache(maxsize=8)
def distinct_class_profile(n: int, c: int = 1) -> Tuple[int, ...]:
    """``profile[r]`` = colored partitions of ``n`` using exactly ``r``
    distinct (size, color) classes, for ``r`` up to the most classes a
    partition of ``n`` can use; every larger ``r`` counts 0.

    A DP of its own counts them, one step per part size, priced at 2.2
    updates per row entry it adds (as measured), each on counts of the bits
    of the largest. Memoized on ``(n, c)``, so a sum over ``r`` builds one
    profile.
    """
    if n < 1:
        raise ValueError(f"weight must be positive, got {_show(n)}")
    _check_colors(c)
    _check_class_count(c, n, "chi_distinct")
    bits = _log_count_bound(c, n, False) / log(2)
    _check_work(2.2 * _distinct_class_work(n, c) * _update_price(bits),
                f"chi_distinct at c={_show(c)}, n={_show(n)}")
    return tuple(_distinct_class_profile(n, c))


def _class_count_limits(n: int, c: int) -> List[int]:
    """``limits[w]``, for ``w <= n``: the most distinct (size, color) classes
    a colored partition of ``w`` can use, the largest ``r`` whose ``r``
    smallest classes weigh at most ``w``."""
    sizes = chain.from_iterable(repeat(s, _color_count(s, c)) for s in range(1, n + 1))
    starts = [0] * (n + 1)  # starts[w]: the r whose r smallest classes weigh w
    for weight in takewhile(n.__ge__, accumulate(sizes)):
        starts[weight] += 1
    return list(accumulate(starts))


def _distinct_class_work(n: int, c: int) -> int:
    """The row entries ``_distinct_class_profile(n, c)`` adds, counted
    exactly, or until the count passes ``WORK_CAP``, which an entry's price
    of an update at least then passes too.

    With ``length[w] = limits[w] + 1``, the ``j``-th stride sum of a size
    ``s`` adds ``length[w - (j+1)s]`` entries at each ``w >= (j+1)s``, and
    the DP then adds ``min(length[w] - j, length[w - js])`` at each
    ``w >= js``.
    """
    length = [limit + 1 for limit in _class_count_limits(n, c)]
    reached = [0, *accumulate(length)]  # the entries of the rows of weights below w
    work = 0
    for size in range(1, n + 1):
        # at j = 1, length[w - s], less one where length[w] equals it
        work += reached[n - size + 1] - sum(map(eq, length[size:], length))
        for j in range(1, min(_color_count(size, c), n // size) + 1):
            work += reached[max(n - (j + 1) * size + 1, 0)]
            if j > 1:
                work += sum(map(min, map(sub, length[j * size :], repeat(j)), length))
        if work > WORK_CAP:
            break
    return work


def _distinct_class_profile(n: int, c: int) -> List[int]:
    """``profile[r]`` = colored partitions of ``n`` with ``r`` classes used,
    for ``r`` up to the most classes a partition of ``n`` can use.

    ``dp[w]`` holds one count per reachable ``r``. The ``k`` classes of a
    size ``s`` multiply the counts by ``(1 + y X)^k = sum_j C(k, j) y^j
    X^j``, ``X = q^s / (1 - q^s)`` a class used, ``y`` counting classes:
    ``min(k, n // s)`` stride sums, the ``j``-th ``X^j`` times the counts
    before the size, each added ``j`` classes up times ``C(k, j)``.
    """
    dp = [[0] * (limit + 1) for limit in _class_count_limits(n, c)]
    dp[0][0] = 1
    for size in range(n, 0, -1):
        colors = _color_count(size, c)
        strided = dp
        for j in range(1, min(colors, n // size) + 1):
            lo = j * size
            previous, strided = strided, [[]] * lo
            for w in range(lo, n + 1):
                t, u = previous[w - size], strided[w - size]
                strided.append([*map(add, t, u), *t[len(u) :]])
            ways = comb(colors, j)
            for row, t in zip(dp[lo:], strided[lo:]):
                # entries of t past the row's reachable r are zero
                terms = map(mul, t, repeat(ways)) if ways > 1 else t
                row[j : j + len(t)] = map(add, row[j:], terms)
    return dp[n]


# -- divisor counting --------------------------------------------------------


# Trial division stops here: about 0.1 s. A cofactor with no prime factor
# up to the bound must be a prime power that eta._prime_power_base decides.
_TRIAL_DIVISION_BOUND = 10**6


def _factorize(n: int) -> dict:
    """Prime factorization by trial division, which stops as soon as the
    cofactor left is 1 or a prime power (``eta._prime_power_base``).

    A cofactor with no prime factor up to ``_TRIAL_DIVISION_BOUND`` that is
    not a prime power, or that is too large for the deterministic test,
    raises ``ValueError``: factorizing it could take hours.
    """
    if n < 1:
        raise ValueError(f"can only factorize positive integers, got {_show(n)}")
    factors: dict = {}
    d = 2
    while n > 1:
        d = _prime_power_base(n) or d
        while n % d:
            d += 1 if d == 2 else 2
            if d > _TRIAL_DIVISION_BOUND:
                raise ValueError(
                    f"cannot factorize the cofactor {_show(n)}: it has no prime factor "
                    f"up to {_TRIAL_DIVISION_BOUND:.0e} and is not provably a prime power"
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
