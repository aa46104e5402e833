"""Exact univariate root counting and sign arcs in Python integers.

Sturm sequences are built as primitive pseudo-remainder sequences on integer
coefficients (lowest degree first) and evaluated exactly at rational points,
so counts of distinct real roots and the signs between them (sign_arcs) are
proofs, not estimates.  The module has no floating point: nodal imports it
for its last merge stage, the n = 1 slice, and the cube loop of the n = 1
count and the polar chambers.
"""

from __future__ import annotations

import functools
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


def _integer_coeffs(coeffs: Sequence[Rational]) -> List[int]:
    """coeffs scaled to trimmed integers by the lcm of their denominators."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return _poly_trim([c.numerator * (scale // c.denominator) for c in coeffs])


def _variations(chain: List[List[int]], x: Rational) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    signs = [s for s in (_poly_sign(c, x.numerator, x.denominator) for c in chain) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))


def _sturm_count(coeffs: Sequence[Rational], a: Optional[Rational], b: Optional[Rational]) -> int:
    """Distinct real roots of coeffs (lowest degree first) in (a, b]; None ends mean -/+ infinity."""
    ints = _integer_coeffs(coeffs)
    if len(ints) <= 1:
        return 0
    chain, bound = _sturm_chain(ints), _root_bound(ints)  # no root lies outside (-B, B)
    return _variations(chain, -bound if a is None else a) - _variations(chain, bound if b is None else b)


def _root_bound(c: Sequence[int]) -> Fraction:
    """A power of two above |z| for every complex root z of c: Fujiwara's 2 max_k |c_(n-k) / c_n|^(1/k)."""
    lead = abs(c[-1]).bit_length() - 1  # 2^lead <= |c_n|, and |c_(n-k)| < 2^(its bit length)
    exponents = [-((lead - abs(x).bit_length()) // k) for k, x in enumerate(reversed(c[:-1]), 1) if x]
    return Fraction(2) ** (max(exponents, default=0) + 1)


def sign_arcs(coeffs: Sequence[Rational], a: Optional[Rational], b: Optional[Rational]) -> Tuple[int, ...]:
    """Signs of coeffs (rational, lowest degree first) on the maximal root-free open arcs of (a, b), in order.

    None ends mean -/+ infinity.  A 0 stands for the root between two arcs:
    (1, 0, -1) is a sign change, (1, 0, 1) a root of even multiplicity.  A
    root on an end is outside, and a zero polynomial or an empty segment has
    no arcs.  Bisection over the dyadic cells of [-B, B] (_root_bound)
    splits each piece of (a, b) that the Sturm chain counts until it holds
    no root, or one between nonzero ends.
    """
    ints = _integer_coeffs(coeffs)
    if a is not None and b is not None and a >= b:
        return ()
    if len(ints) <= 1:
        return tuple((c > 0) - (c < 0) for c in ints)
    chain, bound = _sturm_chain(ints), _root_bound(ints)
    sign = functools.lru_cache(maxsize=None)(lambda x: _poly_sign(ints, x.numerator, x.denominator))
    variations = functools.lru_cache(maxsize=None)(lambda x: _variations(chain, x))
    lo = -bound if a is None else max(Fraction(a), -bound)
    hi = bound if b is None else min(Fraction(b), bound)
    signs: List[int] = []
    stack = [(lo, hi, -bound, bound)]
    while stack:
        l, h, cell_lo, cell_hi = stack.pop()
        count = variations(l) - variations(h) - (sign(h) == 0)  # the distinct roots in (l, h)
        mid = (cell_lo + cell_hi) / 2
        if count == 0:  # past the bound, the sign of the end; a split point on a root ends an arc
            signs += [sign(l) or sign(h) or sign((l + h) / 2)] + [0] * (h < hi and sign(h) == 0)
        elif count == 1 and sign(l) and sign(h):
            signs += [sign(l), 0, sign(h)]
        elif not l < mid < h:  # the piece lies in one half of its cell
            stack.append((l, h) + ((mid, cell_hi) if mid <= l else (cell_lo, mid)))
        else:
            stack += [(mid, h, mid, cell_hi), (l, mid, cell_lo, mid)]
    # neighbouring pieces with no root between them lie in one arc
    return tuple(s for i, s in enumerate(signs) if i == 0 or not s or not signs[i - 1])
