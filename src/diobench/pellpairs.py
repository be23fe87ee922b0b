"""Polynomial Pell solutions (f_n, g_n) over Q[T] and the epsilon-power
identities built on them.

With D = s^2 - 1 and eps = s - sqrt(D), the pair is defined by
f_n - sqrt(D) g_n = eps^n.  All solutions of f^2 - D g^2 = 1 are +-(f_n, g_n)
with n ranging over the integers (negative n via conjugation).
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from diobench import SelfCheckError
from diobench.polynomial import ONE, ZERO, Poly, QuadExt


def discriminant(s):
    s = Poly.coerce(s)
    return s * s - 1


def is_pell_solution(f, g, s):
    """f^2 - (s^2 - 1) g^2 == 1, the Pell identity, in Z[T]: with f = F/a,
    g = G/b and s = S/c cleared, (bcF)^2 - (S^2 - c^2)(aG)^2 == (abc)^2."""
    (a, F), (b, G), (c, S) = (p.cleared() for p in (f, g, s))
    F, G, S = Poly(F) * (b * c), Poly(G) * a, Poly(S)
    return F * F - (S * S - c * c) * G * G == (a * b * c) ** 2


def epsilon(s):
    """eps = s - sqrt(s^2 - 1) as a QuadExt element (norm 1)."""
    s = Poly.coerce(s)
    return QuadExt(s, Poly([-1]), discriminant(s))


PellPair = namedtuple("PellPair", "n f g s")


def pell_pair(s, n):
    """The unique (f_n, g_n) with f_n - sqrt(s^2-1) g_n = eps^n.

    Each pair is built and checked once per (s, n); the pair is an immutable
    tuple, so every caller shares it.
    """
    s = Poly.coerce(s)
    if s.is_constant():
        raise ValueError("parameter s must be nonconstant")
    return _pell_cached(s.coeffs, n)


@lru_cache(maxsize=1 << 12)
def _pell_cached(coeffs, n):
    """(f_n, g_n) from F_k = d^k f_k and G_k = d^(k-1) g_k in Z[T], s = s0/d:
    they obey x_{k+1} = 2s0 x_k - d^2 x_{k-1} from (1, 0) and (s0, 1), as eps^k
    obeys x_{k+1} = 2s x_k - x_{k-1}; g_{-n} = -g_n."""
    s = Poly(coeffs)
    d, s0 = s.cleared()
    f, g, f_next, g_next = ONE, ZERO, Poly(s0), ONE
    two_s0, d2 = 2 * f_next, d * d
    for _ in range(abs(n)):
        f, f_next = f_next, two_s0 * f_next - (f if d == 1 else d2 * f)
        g, g_next = g_next, two_s0 * g_next - (g if d == 1 else d2 * g)
    if d > 1:
        dk = d ** abs(n)
        f = Poly([Fraction(c, dk) for c in f.coeffs])
        g = Poly([Fraction(c * d, dk) for c in g.coeffs])
    pair = PellPair(n, f, g if n >= 0 else -g, s)
    if not is_pell_solution(pair.f, pair.g, s):
        raise SelfCheckError(f"f^2 - (s^2 - 1) g^2 != 1 at s = {s}, n = {n}")
    return pair


def check_degree_law(s, n):
    """deg f_n = n*deg s and deg g_n = (n-1)*deg s, for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = Poly.coerce(s)
    pair = pell_pair(s, n)
    d = s.degree
    # g_1 = 1 has degree 0 = (1-1)*d
    return pair.f.degree == n * d and pair.g.degree == (n - 1) * d


def check_divisibility_law(ell, n, s):
    """ell | n  <=>  g_ell | g_n, confirmed by exact division."""
    if ell < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    return (n % ell == 0) == pell_pair(s, ell).g.divides(pell_pair(s, n).g)


def recognize_solution(f, g, s):
    """(n, sign) with (f, g) = sign*(f_n, g_n), or None if there is none.

    Negative n covers the conjugate branch (g_{-n} = -g_n, f_{-n} = f_n).
    Every Pell solution is such a pair, and each pair is checked on the
    Pell identity when it is built, so a match needs no check of its own.
    """
    f, g, s = Poly.coerce(f), Poly.coerce(g), Poly.coerce(s)
    if s.is_constant():
        raise ValueError("parameter s must be nonconstant")
    if f.degree is None or f.degree % s.degree:
        return None
    n = f.degree // s.degree
    for sign in (1, -1):
        for idx in (n, -n):
            pair = pell_pair(s, idx)
            if pair.f == sign * f and pair.g == sign * g:
                return idx, sign
    return None
