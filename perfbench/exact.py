"""Exact arithmetic for the answer checks, written apart from diobench.

Polynomials are lists of coefficients (ints or Fractions), lowest degree
first, with no trailing zeros; [] is the zero polynomial.  The checks use
these to compute an expected answer from a query's parameters, or to test
a certificate diobench returns, without calling diobench itself.
"""

from fractions import Fraction


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def scale(a, k):
    return trim(k * c for c in a)


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def value(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def parse(text):
    """Coefficients of a polynomial in diobench's canonical text form,
    e.g. '-1 + 2*T^2' or '3/4*T - T^5'; ValueError on anything else."""
    if text == "0":
        return []
    out = []
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.removeprefix("-")
        if "T" not in term:
            coef, power = term, 0
        else:
            coef, _, mono = term.rpartition("*")
            if mono == "T":
                power = 1
            elif mono.startswith("T^") and mono[2:].isdigit():
                power = int(mono[2:])
            else:
                raise ValueError(f"bad term {term!r}")
        c = sign * Fraction(coef or 1)
        out += [0] * (power + 1 - len(out))
        out[power] += c
    return trim(out)


def factorize(n):
    """{prime: exponent} of n >= 1, by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n):
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def moebius(n):
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def totient(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def cyclotomic(n, terms=None):
    """Phi_n, or its first `terms` coefficients, from
    Phi_n = prod_{d | n} (1 - T^d)^mu(n/d) for n > 1."""
    if n == 1:
        return [-1, 1][:terms]
    size = totient(n) + 1 if terms is None else terms
    acc = [1] + [0] * (size - 1)
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:      # times (1 - T^d)
            for i in range(size - 1, d - 1, -1):
                acc[i] -= acc[i - d]
        elif mu == -1:   # times 1 + T^d + T^2d + ...
            for i in range(d, size):
                acc[i] += acc[i - d]
    return trim(acc)


def special_form(n):
    """(p, m) with n = p*m, p the largest prime factor of n and m | p - 1;
    None if there is none."""
    p = max(factorize(n))
    m = n // p
    return (p, m) if (p - 1) % m == 0 and m % p else None


def ord_p(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def pell(s, n):
    """(f_n, g_n) with f_n + sqrt(s^2 - 1) g_n = (s + sqrt(s^2 - 1))^n, by
    f_(k+1) = 2 s f_k - f_(k-1) from f_0 = 1, f_1 = s (g alike from 0, 1)."""
    f, f1, g, g1 = [1], list(s), [], [1]
    for _ in range(n):
        f, f1 = f1, add(mul(scale(s, 2), f1), scale(f, -1))
        g, g1 = g1, add(mul(scale(s, 2), g1), scale(g, -1))
    return f, g


def theta(n):
    """The integer polynomial with index n (docs/theta-scheme.md)."""
    if n == 1:
        return []
    runs = [len(chunk) for chunk in bin(n - 1)[3:].split("1")]
    codes = runs[:-1] + [runs[-1] + 1]
    return [(u + 1) // 2 if u % 2 else -(u // 2) for u in codes]


def theta_inverse(coeffs):
    if not coeffs:
        return 1
    codes = [2 * c - 1 if c > 0 else -2 * c for c in coeffs]
    codes[-1] -= 1
    return int("1" + "1".join("0" * a for a in codes), 2) + 1


def _remainder(a, b):
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = trim(a)
    return a


def real_root_count(a):
    """Number of distinct real roots of a nonconstant a, by Sturm's theorem."""
    chain = [trim(a), trim(i * c for i, c in enumerate(a))[1:]]
    while len(chain[-1]) > 1:
        rem = _remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(scale(rem, -1))

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    at_plus = [1 if p[-1] > 0 else -1 for p in chain]
    at_minus = [s * (-1) ** (len(p) - 1) for s, p in zip(at_plus, chain)]
    return changes(at_minus) - changes(at_plus)

