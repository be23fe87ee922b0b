"""The integer search kernels: four squares and the mod-p^k scan behind the
local-solubility oracle.

``BACKEND`` names the implementation; it is always ``"python"``.
"""

from functools import lru_cache
from itertools import compress
from math import isqrt

BACKEND = "python"


def four_squares_raw(n):
    """Decompose n >= 0 as a sum of four squares, components descending.

    Greedy descending search; always succeeds by Lagrange's theorem.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    for x1 in range(isqrt(n), -1, -1):
        r1 = n - x1 * x1
        if r1 > 3 * x1 * x1:
            break  # x1 too small to stay the largest component
        for x2 in range(min(x1, isqrt(r1)), -1, -1):
            r2 = r1 - x2 * x2
            if r2 > 2 * x2 * x2:
                break
            for x3 in range(min(x2, isqrt(r2)), -1, -1):
                r3 = r2 - x3 * x3
                if r3 > x3 * x3:
                    break
                x4 = isqrt(r3)
                if x4 * x4 == r3:
                    return (x1, x2, x3, x4)
    raise AssertionError("four-square decomposition not found")


@lru_cache(maxsize=32)
def _squares_mod(m):
    """The squares mod m: a flag per residue, and the distinct squares."""
    flags = bytearray(m)
    for z in range(m // 2 + 1):
        flags[z * z % m] = 1
    return bytes(flags), tuple(compress(range(m), flags))


def mod_scan_soluble(a, b, m):
    """Exhaustive test for a primitive solution of z^2 = a*x^2 + b*y^2 mod m.

    m is a power of a prime p.  A primitive solution has x or y a unit:
    were p to divide both, it would divide z^2 and so z.  Scaling by that
    unit's inverse reduces the search to the two one-dimensional scans
    below, each over the distinct squares s = y^2 mod m, read from one
    table per modulus.
    """
    a %= m
    b %= m
    is_square, squares = _squares_mod(m)
    # x = 1: z^2 - b*y^2 = a
    for s in squares:
        if is_square[(a + b * s) % m]:
            return 1
    # y = 1: z^2 - a*x^2 = b
    for s in squares:
        if is_square[(b + a * s) % m]:
            return 1
    return -1
