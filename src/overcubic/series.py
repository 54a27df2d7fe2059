"""Truncated formal power series with exact integer or residue coefficients.

A :class:`Series` stores the coefficients of exponents ``0..order`` as a
dense tuple. Coefficients are either plain Python integers (exact, arbitrary
precision) or, when a modulus ``m`` is attached, canonical residues in
``[0, m)``. All arithmetic is exact; there is no floating point anywhere.

Truncation semantics: a coefficient beyond ``order`` is *unknown*, not zero.
Binary operations on operands of different orders therefore truncate to the
smaller order, and :meth:`Series.coefficient` refuses to read past the end
instead of inventing zeros.

Multiplication is one Kronecker substitution: each operand is packed into a
single big integer, one coefficient per fixed-width slot, the two integers
are multiplied by CPython's big-int arithmetic, and the product is read back
slot by slot. A slot is the least whole number of bytes that holds every
coefficient of the product, so none carries into the next one and the
result is exact.

Division is one sparse recurrence, :func:`_divide_sparse`, which walks up
``coeffs / (1 + sum w*q^t)`` over the nonzero terms only. :meth:`Series.invert`
and every pass of :mod:`overcubic.eta` that divides by a series run it.
"""

from __future__ import annotations

import sys
from array import array
from math import gcd, log2
from operator import itemgetter, mul
from typing import Iterable, Iterator, List, Optional, Sequence, Union

__all__ = ["Series", "NonInvertibleError"]

# array typecodes by item size, for packing slots of 1, 2, 4 or 8 bytes; a
# slot of 3, 5, 6 or 7 bytes is packed through the 8-byte one.
_TYPECODES = {array(tc).itemsize: tc for tc in "BHILQ"}
_WORD = _TYPECODES[8]


class NonInvertibleError(ValueError):
    """The constant term is not a unit, so no series inverse exists."""


def _show(x: int) -> str:
    """``x`` in decimal, or by its sign and bit length where CPython's limit
    on the digits of an int -> str conversion refuses the decimal: a
    refusal must not fail on the number it refuses."""
    try:
        return str(x)
    except ValueError:
        return f"{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits"


def _validate_modulus(modulus: Optional[int]) -> Optional[int]:
    if modulus is None:
        return None
    m = int(modulus)
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {_show(modulus)}")
    return m


class Series:
    """Exact truncated power series in one variable.

    Instances are immutable: every operation returns a fresh series and the
    coefficient tuple is never mutated, so values can be shared freely
    across threads.
    """

    __slots__ = ("_coeffs", "_modulus")

    def __init__(self, coeffs: Iterable[int], modulus: Optional[int] = None):
        m = _validate_modulus(modulus)
        if m is None:
            cs = tuple(int(c) for c in coeffs)
        else:
            cs = tuple(int(c) % m for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = cs
        self._modulus = m

    @classmethod
    def _canonical(cls, coeffs: tuple, modulus: Optional[int]) -> "Series":
        """Wrap a non-empty tuple that already holds canonical coefficients
        (ints, reduced into ``[0, modulus)`` when a modulus is given), so
        results computed internally are not checked and reduced again."""
        series = object.__new__(cls)
        series._coeffs = coeffs
        series._modulus = modulus
        return series

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value: int, order: int, modulus: Optional[int] = None) -> "Series":
        """Series whose constant coefficient is ``value`` and all others 0."""
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        coeffs = [0] * (order + 1)
        coeffs[0] = int(value)
        return cls(coeffs, modulus)

    @classmethod
    def zero(cls, order: int, modulus: Optional[int] = None) -> "Series":
        return cls.constant(0, order, modulus)

    @classmethod
    def one(cls, order: int, modulus: Optional[int] = None) -> "Series":
        return cls.constant(1, order, modulus)

    @classmethod
    def monomial(
        cls,
        exponent: int,
        order: int,
        modulus: Optional[int] = None,
        coeff: int = 1,
    ) -> "Series":
        """``coeff * q**exponent`` truncated at ``order``."""
        if not 0 <= exponent <= order:
            raise ValueError(f"exponent {exponent} outside [0, {order}]")
        coeffs = [0] * (order + 1)
        coeffs[exponent] = int(coeff)
        return cls(coeffs, modulus)

    # -- basic accessors ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def modulus(self) -> Optional[int]:
        return self._modulus

    def coefficient(self, n: int) -> int:
        """Coefficient of ``q**n``. Reading past ``order`` is an error."""
        if not 0 <= n <= self.order:
            raise IndexError(
                f"exponent {n} outside the reliable window [0, {self.order}]"
            )
        return self._coeffs[n]

    __getitem__ = coefficient

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def nonzero_terms(self) -> Iterator[tuple]:
        """Pairs ``(exponent, coefficient)`` for the nonzero coefficients."""
        return ((i, c) for i, c in enumerate(self._coeffs) if c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs and self._modulus == other._modulus

    def __hash__(self) -> int:
        return hash((self._coeffs, self._modulus))

    def agrees(self, other: "Series", up_to: Optional[int] = None) -> bool:
        """Coefficientwise equality on the common reliable window."""
        self._check_compatible(other)
        n = min(self.order, other.order)
        if up_to is not None:
            if up_to > n:
                raise ValueError(f"comparison order {up_to} beyond common order {n}")
            n = up_to
        return self._coeffs[: n + 1] == other._coeffs[: n + 1]

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        if self.order >= 8:
            shown += ", ..."
        mod = f", mod {self._modulus}" if self._modulus is not None else ""
        return f"Series([{shown}], order={self.order}{mod})"

    def __str__(self) -> str:
        terms = []
        for i, c in self.nonzero_terms():
            if len(terms) == 8:
                terms.append("...")
                break
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{c}*{q}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order + 1})"

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if self._modulus != other._modulus:
            raise ValueError(
                f"mismatched moduli: {self._modulus} vs {other._modulus}"
            )

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return Series([a[i] + b[i] for i in range(n + 1)], self._modulus)

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs], self._modulus)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: int) -> "Series":
        return Series([factor * c for c in self._coeffs], self._modulus)

    def __mul__(self, other: Union["Series", int]) -> "Series":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        n = min(self.order, other.order)
        m = self._modulus
        a = self._coeffs[: n + 1]
        b = other._coeffs[: n + 1]
        if m is None:
            return Series._canonical(tuple(_kronecker_z(a, b)), None)
        return Series._canonical(tuple(_kronecker_mod(a, b, m)), m)

    def __rmul__(self, other: int) -> "Series":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def invert(self) -> "Series":
        """Multiplicative inverse, valid whenever the constant term is a unit.

        The constant term is factored out and the rest divided through
        :func:`_divide_sparse`, which walks only the nonzero coefficients of
        ``self``. Under a modulus their weights stay residues in ``[0, m)``:
        the kernel matches its unweighted gather pair modulo ``m``, so
        ``m - 1`` joins the pair of ``f(n)`` as -1 and ``m - 2`` that of
        ``phi(-q^n)`` as -2, and the other weights stay non-negative because
        sums of non-negative products run 10-30 % faster than signed ones.
        The walk runs in ``q^g``, ``g`` the gcd of the exponents of those
        terms: inverting ``f(n) = prod (1 - q^(jn))`` walks ``order // n``
        exponents.
        """
        c0 = self._coeffs[0]
        m = self._modulus
        if m is None:
            if c0 not in (1, -1):
                raise NonInvertibleError(
                    f"constant term {c0} is not a unit over the integers"
                )
            inv0 = c0
        else:
            try:
                inv0 = pow(c0, -1, m)
            except ValueError as exc:
                raise NonInvertibleError(
                    f"constant term {c0} is not invertible mod {m}"
                ) from exc
        n = self.order
        nz = [(i, c) for i, c in enumerate(self._coeffs) if c and i > 0]
        g = gcd(*(i for i, _ in nz)) or 1
        terms = []
        for i, c in nz:
            terms.append((i // g, c * inv0 if m is None else c * inv0 % m))
        out = _spread(_divide_sparse([inv0] + [0] * (n // g), terms, m), g, n + 1)
        return Series._canonical(tuple(out), m)

    def __pow__(self, exponent: int) -> "Series":
        """``self ** exponent`` from the one ladder of :func:`_ladder_power`:
        a negative exponent inverts ``self`` first, which raises
        :class:`NonInvertibleError` unless its constant term is a unit."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return Series.one(self.order, self._modulus)
        return _ladder_power({1: self}, exponent)

    # -- reindexing operators ----------------------------------------------

    def substitute_power(self, k: int, order: Optional[int] = None) -> "Series":
        """The map ``q -> q**k``: coefficient of ``q**(k*n)`` is ``self[n]``.

        By default the result keeps ``self.order`` (terms pushed beyond it
        are dropped). An explicit ``order`` may extend that as far as the
        known coefficients allow, i.e. up to ``k*self.order + k - 1``.
        """
        if k < 1:
            raise ValueError(f"substitution power must be >= 1, got {k}")
        target = self.order if order is None else order
        if target < 0 or target > k * self.order + k - 1:
            raise ValueError(
                f"target order {target} not determined by a series of order "
                f"{self.order} under q -> q^{k}"
            )
        out = _spread(self._coeffs[: target // k + 1], k, target + 1)
        return Series._canonical(tuple(out), self._modulus)

    def extract_progression(self, k: int, r: int) -> "Series":
        """Coefficients along ``k*n + r``: result ``[n] == self[k*n + r]``."""
        if k < 1:
            raise ValueError(f"progression step must be >= 1, got {k}")
        if not 0 <= r < k:
            raise ValueError(f"residue {r} outside [0, {k})")
        if r > self.order:
            raise ValueError(
                f"progression start {r} beyond truncation order {self.order}"
            )
        return Series._canonical(self._coeffs[r :: k], self._modulus)

    def shift(self, s: int, order: Optional[int] = None) -> "Series":
        """Multiply by ``q**s``. Keeps ``self.order`` unless ``order`` given."""
        if s < 0:
            raise ValueError(f"shift must be non-negative, got {s}")
        target = self.order if order is None else order
        if target < s:
            raise ValueError(f"target order {target} cannot hold a shift by {s}")
        if target - s > self.order:
            raise ValueError(
                f"shift by {s} to order {target} needs coefficients beyond "
                f"order {self.order}"
            )
        return Series._canonical((0,) * s + self._coeffs[: target - s + 1], self._modulus)

    def truncate(self, order: int) -> "Series":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return Series._canonical(self._coeffs[: order + 1], self._modulus)

    def reduce_mod(self, m: int) -> "Series":
        """Reduce every coefficient to its canonical residue in ``[0, m)``.

        Allowed on integer series, or on residue series whose modulus is a
        multiple of ``m`` (the natural tower of quotient maps).
        """
        m = _validate_modulus(m)
        if self._modulus is not None and self._modulus % m != 0:
            raise ValueError(
                f"cannot reduce a mod-{self._modulus} series mod {m}: "
                f"{m} does not divide {self._modulus}"
            )
        return Series(self._coeffs, m)


def _spread(coeffs: Sequence[int], step: int, size: int) -> List[int]:
    """``coeffs`` under ``q -> q^step``, zero-filled to ``size`` entries;
    ``coeffs`` holds exactly the ``(size - 1) // step + 1`` that fit."""
    out = [0] * size
    out[::step] = coeffs
    return out


def _slot_width(bits: int) -> int:
    """Bytes per slot for values of ``bits`` bits: the least whole number of
    bytes that holds them, at least 1."""
    return max(1, (bits + 7) // 8)


def _pack(values: Sequence[int], width: int) -> int:
    """``sum(values[i] * 2**(8*width*i))`` for values in ``[0, 2**(8*width))``.

    A slot of 1, 2, 4 or 8 bytes is one array item. A slot of 3, 5, 6 or 7
    bytes is taken from an 8-byte item by ``width`` strided byte copies, one
    per byte of the slot, so no value passes through Python one at a time.
    A wider slot is one ``to_bytes`` a value."""
    if width > 8:
        raw = b"".join(v.to_bytes(width, "little") for v in values)
        return int.from_bytes(raw, "little")
    words = array(_TYPECODES.get(width, _WORD), values)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    if width not in _TYPECODES:
        slots = bytearray(width * len(values))
        for byte in range(width):
            slots[byte::width] = raw[byte::8]
        raw = slots
    return int.from_bytes(raw, "little")


def _unpack(x: int, width: int, count: int) -> List[int]:
    """The lowest ``count`` slots of ``x``, which must be non-negative: the
    inverse of :func:`_pack`, through the same arrays and strided copies."""
    raw = (x & ((1 << (8 * width * count)) - 1)).to_bytes(width * count, "little")
    if width > 8:
        return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    if width not in _TYPECODES:
        items = bytearray(8 * count)
        for byte in range(width):
            items[byte::8] = raw[byte::width]
        raw = items
    words = array(_TYPECODES.get(width, _WORD))
    words.frombytes(raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _ladder_power(rungs: dict, k: int) -> "Series":
    """``base^k`` for ``k != 0``, from the rungs ``{exponent: power}`` of one
    base, which hold at least ``base^1`` at 1 and keep every rung built.
    The ladder is walked down to the first rung held: ``k = -1`` is the
    inverse of ``base^1``, and any other ``k`` the square of the power at
    ``k // 2`` rounded toward zero, times ``base^+-1`` when ``k`` is odd.
    It is built back up without recursion, so an exponent of any size takes
    one frame, and a cold ladder takes ``bits(|k|) + popcount(|k|) - 2``
    products, and one inversion when ``k < 0``."""
    missing = []
    while k not in rungs:
        missing.append(k)
        k = 1 if k == -1 else k // 2 if k > 0 else -(-k // 2)
    power = rungs[k]
    for k in reversed(missing):
        if k == -1:
            power = power.invert()
        else:
            power = power * power
            if k % 2:
                power = power * rungs[1 if k > 0 else -1]
        rungs[k] = power
    return power


def _mod_slot_width(m: int, count: int) -> int:
    """Bytes per slot for sums of ``count`` products of residues mod ``m``."""
    return _slot_width(((m - 1) * (m - 1) * count).bit_length())


def _kronecker_mod(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    """Truncated product of two equal-length residue vectors, reduced mod m.

    Every product coefficient is a sum of at most ``len(a)`` terms below
    ``(m-1)**2``, which bounds the slot (:func:`_mod_slot_width`).
    """
    count = len(a)
    width = _mod_slot_width(m, count)
    slots = _unpack(_pack(a, width) * _pack(b, width), width, count)
    return [v % m for v in slots]


def _kronecker_price(packed: int, read: int, width: int) -> float:
    """Price of a Kronecker product, in updates of a sparse pass (about 24
    ns): ``packed`` slots of ``width`` bytes in its two operands, ``read``
    of them read back. The Karatsuba product of ``B = packed * width``
    bytes costs ``B**1.585 / 60``, a slot packed or read 3 through an
    array of 1, 2, 4 or 8 bytes or by the strided copies of a 3-byte slot,
    4 through those of a 5-7-byte slot, 14 through a wider slot's bytes.
    Fitted on eta's dense products (10^2-10^5 residues mod 4 to 10^1000 +
    7) and the DP's block products (31-2048 weights of 16-1024 bits); the
    strided slots packed, read and reduced at 23-25 ns (3 bytes) and 31-37
    ns (5-7 bytes) a slot, where an array's took 21-28 ns (10^3-10^4
    residues mod 4 to 2^40; 2-vCPU x86 host)."""
    slot = 14 if width > 8 else 4 if width in (5, 6, 7) else 3
    return (packed * width) ** log2(3) / 60 + slot * (packed + read)


# Every request the engine refuses is priced in updates of a sparse pass, the
# unit of _kronecker_price, and refused above this many: at every engine's
# edge a cold call takes 2-4 s (the edge table of the tests; 2-vCPU x86 host).
WORK_CAP = 15 * 10**7


def _update_price(bits: float) -> float:
    """The price of an update on coefficients of ``bits`` bits. Up to 48
    bits the sums of a pass fit two of CPython's 30-bit digits, and an
    update costs what it costs on residues of a few bits: 1. Past them it
    costs 2, and 1/1200 more a bit (sparse passes from 61 to 2000 bits, and
    expansions over Z, each at the bound on its bits)."""
    return 1 if bits <= 48 else 2 + bits / 1200


def _check_work(price: float, what: str, advice: str = "") -> None:
    """Refuse ``what``, priced at ``price`` updates, when that is over
    ``WORK_CAP``: the one refusal of a request that would run too long."""
    if price > WORK_CAP:
        raise ValueError(f"{what} is priced over the work cap: work is capped at "
                         f"{WORK_CAP:.2g} coefficient updates, a few seconds{advice}")


def _kronecker_z(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Truncated product of two equal-length integer vectors.

    Signed slots: a coefficient ``c`` with ``|c| < half`` is stored as
    ``c + half`` and the packed sum of the offsets subtracted again, so the
    packed integer is exactly ``sum(c_i * B**i)`` with ``B = 2**(8*width)``.
    After the multiply, adding the offsets back makes every slot of the
    product non-negative and carry-free.
    """
    count = len(a)
    bound = max(map(abs, a)) * max(map(abs, b)) * count
    if not bound:
        return [0] * count
    width = _slot_width((2 * bound).bit_length())
    half = 1 << (8 * width - 1)
    offsets = int.from_bytes((b"\0" * (width - 1) + b"\x80") * count, "little")
    x = _pack([c + half for c in a], width) - offsets
    y = _pack([c + half for c in b], width) - offsets
    return [v - half for v in _unpack(x * y + offsets, width, count)]


def _divide_sparse(coeffs: List[int], terms, modulus: Optional[int]) -> List[int]:
    """``coeffs / (1 + sum w*q^t)`` over ``(t, w)`` terms of increasing
    ``t`` in ``[1, len(coeffs))`` and nonzero weight, reduced mod
    ``modulus`` when one is given (``coeffs`` must be reduced already).

    Walking up, ``out[e] = coeffs[e] - sum(w * out[e - t])`` over the terms
    with ``t <= e``. ``out`` grows by one entry per step, so while exponent
    ``e`` is computed, ``out[-t]`` is ``out[e - t]``. Three ``itemgetter``
    gather the active terms: a pair for the weights ``-s`` and ``+s``, ``s``
    the magnitude of the first term's weight, and one for any other weight,
    whose values are multiplied by their weights. The pair's sums are
    multiplied by ``s`` once per exponent, not once per term: a pentagonal
    factor ``f(n)`` has ``s = 1``, a theta factor ``phi(-q^n)`` ``s = 2``.
    Under a modulus weights are matched to the pair modulo it, ``s`` being
    the smaller of the first weight's residue and its negative's, so the
    residues ``m - 1`` and ``m - 2`` of an inverted series join the pair as
    -1 and -2.
    Each gather is rebuilt when a term joins it, at the start of the stretch
    of exponents where that term is active. ``out[0]`` is a zero sentinel
    that keeps every gather a tuple, even of one term. While no term of
    another weight is active the weighted sum is skipped: gathering +-1
    weights through it too made a pentagonal pass 1.7 to 2.7 times slower.
    """
    first = terms[0][0] if terms else len(coeffs)
    s = abs(terms[0][1]) if terms else 1
    if modulus is None:
        plus_key, minus_key = -s, s
    else:
        s = min(s % modulus, -s % modulus)
        plus_key, minus_key = -s % modulus, s
    out = [0] + coeffs[:first]
    added, subtracted, scaled, weights = [], [], [], [0]
    plus = minus = itemgetter(0, 0)
    gather = None
    ends = [t for t, _ in terms[1:]] + [len(coeffs)]
    for (t, w), end in zip(terms, ends):
        key = w if modulus is None else w % modulus
        if key == plus_key:
            added.append(-t)
            plus = itemgetter(0, 0, *added)
        elif key == minus_key:
            subtracted.append(-t)
            minus = itemgetter(0, 0, *subtracted)
        else:
            scaled.append(-t)
            weights.append(w)
            gather = itemgetter(0, *scaled)
        for e in range(t, end):
            if s == 1:
                acc = coeffs[e] + sum(plus(out)) - sum(minus(out))
            else:
                acc = coeffs[e] + s * (sum(plus(out)) - sum(minus(out)))
            if gather:
                acc -= sum(map(mul, weights, gather(out)))
            out.append(acc if modulus is None else acc % modulus)
    return out[1:]
