"""Exact univariate root counting in Python integers.

Sturm sequences are built as primitive pseudo-remainder sequences on integer
coefficients (lowest degree first) and evaluated exactly at rational points,
so counts of distinct real roots are proofs, not estimates.  The module has
no floating point: the counting layer (nodal) imports it for its last merge
stage and its slice diagnostic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union


Rational = Union[int, Fraction]


def _poly_trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_derivative(c: Sequence[int]) -> List[int]:
    return _poly_trim([c[i] * i for i in range(1, len(c))])


def _primitive(c: List[int]) -> List[int]:
    """c divided by its positive content, the gcd of its coefficients."""
    content = math.gcd(*c)
    return [x // content for x in c] if content > 1 else c


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(q, r) with |lc(b)|^(delta + 1) a = q b + r in integers, delta = deg a - deg b.

    The multiplier is positive, so q and r are positive multiples of the
    rational quotient and remainder of a / b; b must be trimmed and nonzero.
    """
    rem, top, quotient = _poly_trim(list(a)), len(b) - 1, []
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    for shift in range(len(rem) - len(b), -1, -1):
        # |lc(b)| * rem - factor * x^shift * b clears rem's coefficient of x^(shift + top)
        factor = rem[shift + top] * sign
        rem = [scale * c for c in rem]
        quotient = [factor] + [scale * c for c in quotient]
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
    return quotient, _poly_trim(rem[:top])


def _squarefree(coeffs: List[int]) -> List[int]:
    """A nonzero multiple of coeffs divided by gcd(coeffs, coeffs')."""
    gcd, rem = coeffs, _poly_derivative(coeffs)
    while rem:
        gcd, rem = rem, _primitive(_pseudo_divmod(gcd, rem)[1])
    if len(gcd) <= 1:
        return coeffs
    # gcd is primitive, so the quotient is exact up to the multiplier
    return _primitive(_pseudo_divmod(coeffs, gcd)[0])


def _sturm_chain(coeffs: List[int]) -> List[List[int]]:
    """Sturm sequence of the square-free part, as a primitive pseudo-remainder sequence.

    Every term is a positive multiple of the term of the rational sequence
    (p, p', -rem(p, p'), ...), so every sign along the chain is kept.
    """
    coeffs = _squarefree(coeffs)  # chain stays valid for multiple roots
    chain = [coeffs, _primitive(_poly_derivative(coeffs))]
    while len(chain[-1]) > 1:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def _poly_sign(c: Sequence[int], num: int, den: int) -> int:
    """Sign of c(num / den) for den > 0, from the integer den^deg * c(num / den)."""
    total, den_power = c[-1], 1
    for coeff in reversed(c[:-1]):
        den_power *= den
        total = total * num + coeff * den_power
    return (total > 0) - (total < 0)


def _sturm_count(coeffs: Sequence[Rational], a: Optional[Rational], b: Optional[Rational]) -> int:
    """Distinct real roots in (a, b]; None endpoints mean -/+ infinity.

    coeffs (lowest degree first) are scaled to integers by the lcm of their
    denominators, and the chain is built and evaluated in Python ints.
    """
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = _poly_trim([c.numerator * (scale // c.denominator) for c in coeffs])
    if len(ints) <= 1:
        return 0
    chain = _sturm_chain(ints)

    def variations(x: Optional[Rational], positive_end: bool) -> int:
        if x is not None:
            signs = [_poly_sign(c, x.numerator, x.denominator) for c in chain]
        else:  # leading coefficients, flipped at -infinity for odd degrees
            signs = [c[-1] if positive_end or len(c) % 2 else -c[-1] for c in chain]
        signs = [s for s in signs if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))

    return variations(a, positive_end=a is not None) - variations(b, positive_end=True)
