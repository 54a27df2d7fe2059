"""Independent routes the benchmark checks the program's outputs against.

Nothing here imports ``overcubic``: the eta-quotient expansion applies each
Euler factor as a sparse pass over its pentagonal terms (multiply for a
positive exponent, the division recurrence for a negative one), which shares
no code with the dense ``Series`` ring the program uses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def pentagonal_terms(step: int, order: int) -> List[Tuple[int, int]]:
    """Nonzero terms ``(exponent, sign)`` of ``prod_{j>=1}(1 - q^(j*step))``
    beyond the constant 1, by Euler's pentagonal number theorem."""
    terms = []
    j = 1
    while step * (j * (3 * j - 1) // 2) <= order:
        sign = -1 if j % 2 else 1
        terms.append((step * (j * (3 * j - 1) // 2), sign))
        e2 = step * (j * (3 * j + 1) // 2)
        if e2 <= order:
            terms.append((e2, sign))
        j += 1
    return sorted(terms)


def expand_eta(
    factors: Sequence[Tuple[int, int]], order: int, modulus: Optional[int] = None
) -> List[int]:
    """Coefficients ``0..order`` of ``prod f(n)^k`` over Z, or mod ``modulus``."""
    coeffs = [1] + [0] * order
    for n, k in factors:
        terms = pentagonal_terms(n, order)
        for _ in range(abs(k)):
            if k > 0:
                # times f(n): walk down so c[e - t] is still the old value
                for e in range(order, 0, -1):
                    acc = coeffs[e]
                    for t, s in terms:
                        if t > e:
                            break
                        acc += s * coeffs[e - t]
                    coeffs[e] = acc if modulus is None else acc % modulus
            else:
                # divided by f(n): walk up so c[e - t] is already the quotient
                for e in range(1, order + 1):
                    acc = coeffs[e]
                    for t, s in terms:
                        if t > e:
                            break
                        acc -= s * coeffs[e - t]
                    coeffs[e] = acc if modulus is None else acc % modulus
    return coeffs


def overcubic_factors(c: int) -> List[Tuple[int, int]]:
    """``f4^(c-1) / (f1^2 * f2^(2c-3))``, the c-colored overlined series."""
    return [(4, c - 1), (1, -2), (2, -(2 * c - 3))]


def odd_divisors(n: int) -> int:
    return sum(1 for d in range(1, n + 1, 2) if n % d == 0)


def even_divisors(n: int) -> int:
    return sum(1 for d in range(2, n + 1, 2) if n % d == 0)
