"""Exact integer and rational arithmetic helpers.

Valuations, CRT, Hensel lifting of roots of unity and four-square
decompositions.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from diobench import SelfCheckError


class _Infinity:
    """Order of 0 at any prime: ``INF >= v`` holds for every order v."""

    def __repr__(self):
        return "INF"

    def __ge__(self, other):
        return True


INF = _Infinity()

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n >= 1 << 64:
        raise ValueError("primality test restricted to 64-bit inputs")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def ord_int(n, p):
    """Exponent of p in n; INF for n = 0.  Assumes p already validated."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ord_p(x, p):
    """Order of a rational x at the prime p; INF for x = 0."""
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        return INF
    return ord_int(x.numerator, p) - ord_int(x.denominator, p)


def factorize(n):
    """Prime factorization as an ordered dict {p: e}; n >= 1."""
    return dict(_factorize_cached(n))


@lru_cache(maxsize=1 << 16)
def _factorize_cached(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


@lru_cache(maxsize=1 << 16)
def divisors(n):
    """The positive divisors of n >= 1, as a tuple in no fixed order."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(out)


def moebius(n):
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def euler_phi(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def radical(n):
    out = 1
    for p in factorize(n):
        out *= p
    return out


def xgcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def crt(residues, moduli):
    """Unique c in [0, prod(moduli)) with c = residues[i] mod moduli[i]."""
    if len(residues) != len(moduli):
        raise ValueError("residue and modulus lists differ in length")
    if not moduli:
        raise ValueError("empty modulus list")
    for m in moduli:
        if m < 2:
            raise ValueError(f"modulus {m} < 2")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                raise ValueError(
                    f"moduli not coprime: ({moduli[i]}, {moduli[j]})"
                )
    c, m = residues[0] % moduli[0], moduli[0]
    for r, n in zip(residues[1:], moduli[1:]):
        g, u, _ = xgcd(m, n)
        assert g == 1
        c = (c + (r - c) * u % n * m) % (m * n)
        m *= n
    return c


def primitive_root(p):
    """Smallest primitive root modulo the prime p."""
    _require_prime(p)
    if p == 2:
        return 1
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise AssertionError("no primitive root found")


def _hensel_lift_unity(x0, m, p, k):
    # Newton-lift a root of X^m - 1 from mod p to mod p^k; m is a unit mod p.
    q = p
    x = x0 % p
    while q < p**k:
        q = min(q * q, p**k)
        fx = (pow(x, m, q) - 1) % q
        dfx = m * pow(x, m - 1, q) % q
        x = (x - fx * pow(dfx, -1, q)) % q
    return x


def hensel_root_of_unity(m, p, k):
    """Smallest c in [0, p^k) of exact multiplicative order m mod p^k.

    Requires m | (p - 1); c is the Hensel lift of a primitive m-th root of
    unity from the residue field.
    """
    _require_prime(p)
    if m < 1 or (p - 1) % m != 0:
        raise ValueError(f"{m} does not divide {p} - 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if m == 1:
        return 1
    g = primitive_root(p)
    base = pow(g, (p - 1) // m, p)
    candidates = [
        _hensel_lift_unity(pow(base, j, p), m, p, k)
        for j in range(1, m)
        if gcd(j, m) == 1
    ]
    return min(candidates)


def four_squares(n):
    """x1^2 + x2^2 + x3^2 + x4^2 = n with x1 >= x2 >= x3 >= x4 >= 0."""
    from diobench.kernels import four_squares_raw

    if n < 0:
        raise ValueError("n must be non-negative")
    # Odd squares are 1 mod 8, so for n = 0 mod 8 all four components are
    # even and halving them maps the decompositions of n onto those of n/4,
    # order kept: the answer is twice that of n/4.  The raw search is slow
    # at n = 2*4^k.  Not for n = 4 mod 8: 12 gives (3, 1, 1, 1).
    m, scale = n, 1
    while m and m % 8 == 0:
        m //= 4
        scale *= 2
    sol = tuple(scale * x for x in four_squares_raw(m))
    if sum(x * x for x in sol) != n:
        raise SelfCheckError(f"{sol} is no sum of four squares for {n}")
    return sol
