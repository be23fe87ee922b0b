"""Dense univariate polynomials over the rationals, plus the quadratic
extension ring used by the Pell machinery.

Coefficients are stored ascending in a tuple; each entry is an int or a
Fraction (Fractions with denominator 1 are normalized to int).  The zero
polynomial has empty coefficients and degree None.
"""

import re
from fractions import Fraction
from math import gcd, lcm


def _norm_coeff(c):
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    return _norm_coeff(Fraction(c))


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, Poly):
            self.coeffs = coeffs.coeffs
            return
        # ints are the common case; only other values (Fraction, bool, ...)
        # take the slower normalization
        cs = [c if type(c) is int else _norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c):
        return Poly([c])

    @staticmethod
    def monomial(k, c=1):
        return Poly([0] * k + [c])

    @staticmethod
    def coerce(x):
        return x if isinstance(x, Poly) else Poly.const(x)

    # -- basic structure ------------------------------------------------------

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lead(self):
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = Poly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-Poly.coerce(other))

    def __mul__(self, other):
        other = Poly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = None, self  # no product by 1, no square past the top
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return Poly([1]) if result is None else result
            base = base * base

    def __divmod__(self, other):
        other = Poly.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = []
        rem = list(self.coeffs)
        d = other.degree
        lc = other.lead()
        lc_int = type(lc) is int
        while len(rem) - 1 >= d and rem:
            top = rem[-1]
            # stay in Z while the lead divides the top coefficient exactly;
            # otherwise this one step goes through Q
            if lc_int and type(top) is int and top % lc == 0:
                c = top // lc
            else:
                c = Fraction(top) / lc
            k = len(rem) - 1 - d
            q.append((k, c))
            for i, oc in enumerate(other.coeffs):
                if oc:  # skipping zeros keeps untouched entries in Z
                    rem[k + i] -= c * oc
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        qc = [0] * (q[0][0] + 1 if q else 0)
        for k, c in q:
            qc[k] = c
        return Poly(qc), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, Poly.coerce(other))
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self}")
        return q

    def divides(self, other):
        """Whether self | other in Q[T]: by Gauss's lemma, whether the
        primitive part of self divides other, cleared, in Z[T]."""
        if self.is_zero():
            return Poly.coerce(other).is_zero()
        b = self.cleared()[1]
        g = gcd(*b)
        lc = b.pop() // g
        terms = [(i, x // g) for i, x in enumerate(b) if x]
        r = Poly.coerce(other).cleared()[1]
        while len(r) > len(b):
            c, m = divmod(r.pop(), lc)
            if m:
                return False
            if c:
                shift = len(r) - len(b)
                for i, x in terms:
                    r[shift + i] -= c * x
        return not any(r)

    # -- calculus & evaluation ------------------------------------------------

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose(self, other):
        other = Poly.coerce(other)
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * other + c
        return acc

    def truncate(self, k):
        """Reduce mod T^k."""
        return Poly(self.coeffs[:k])

    def cleared(self):
        """(den, ints): the least positive den with den * self in Z[T], and
        the coefficient list of den * self."""
        den = lcm(*(c.denominator for c in self.coeffs if type(c) is not int))
        if den == 1:
            return 1, list(self.coeffs)
        return den, [c * den if type(c) is int
                     else c.numerator * (den // c.denominator)
                     for c in self.coeffs]

    def primitive_part(self):
        """Integer-coefficient associate with content 1 and positive lead."""
        if self.is_zero():
            return self
        ints = self.cleared()[1]
        g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        return Poly([c // g for c in ints])

    # -- text form ------------------------------------------------------------

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


ZERO = Poly()
ONE = Poly([1])
T = Poly([0, 1])


def format_poly(p):
    """Canonical ascending text form, e.g. ``-1 + 2*T^2``."""
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            v = "T" if i == 1 else f"T^{i}"
            if c == 1:
                term = v
            elif c == -1:
                term = f"-{v}"
            else:
                term = f"{c}*{v}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


_TERM_RE = re.compile(
    r"^\s*(?P<coef>[+-]?\s*\d+(?:/\d+)?)?\s*"
    r"(?:(?(coef)\*\s*)?(?P<var>[A-Za-z]\w*)(?:\^(?P<exp>\d+))?)?\s*$"
)


def parse_poly(text):
    """Inverse of :func:`format_poly`; accepts any +/- separated terms."""
    text = text.strip()
    if text in ("0", ""):
        return Poly()
    # split into sign-carrying terms ('-' never occurs inside a term)
    terms = []
    for chunk in text.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("-"):
            terms.append((-1, chunk[1:].strip()))
        else:
            terms.append((1, chunk))
    coeffs = {}
    for sign, term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {term!r}")
        if m.group("var") not in (None, "T"):
            raise ValueError(f"unexpected variable {m.group('var')!r}")
        c = Fraction(m.group("coef").replace(" ", "")) if m.group("coef") else Fraction(1)
        k = 0
        if m.group("var") is not None:
            k = int(m.group("exp")) if m.group("exp") else 1
        coeffs[k] = coeffs.get(k, 0) + sign * c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(out)


# -- gcd, resultants, real-root machinery -------------------------------------


def poly_gcd(a, b):
    """The gcd over Q as its primitive associate with positive lead (Gauss's
    lemma): the last member of the primitive remainder sequence."""
    a, b = (Poly.coerce(x).primitive_part().coeffs for x in (a, b))
    while b:
        a, b = b, _neg_prem_primitive(a, b)[2]
    return Poly(a).primitive_part()


def resultant(a, b):
    """Res(a, b) over Q: 0 if a or b is zero, an int when it is integral.

    Computed in Z[T] by the primitive remainder sequence.  With m, n the
    degrees of a and b, Res(a, b) = (-1)^(mn) lc(b)^(m - deg r) Res(b, r)
    for r = a mod b, and the sequence's next member is -(s/g) r, so
    Res(b, r) = (-g/s)^n times the resultant of b and that member.  These
    factors go into one rational accumulator, with the denominators that
    clearing a and b once takes out.
    """
    a, b = Poly.coerce(a), Poly.coerce(b)
    if a.is_zero() or b.is_zero():
        return 0
    (da, a), (db, b) = a.cleared(), b.cleared()
    res = Fraction(1, da ** (len(b) - 1) * db ** (len(a) - 1))
    while len(b) > 1:
        s, g, r = _neg_prem_primitive(a, b)
        if not r:
            return 0
        m, n = len(a) - 1, len(b) - 1
        res *= ((-1) ** (m * n) * b[-1] ** (m + 1 - len(r))
                * Fraction(-g, s) ** n)
        a, b = b, r
    return _norm_coeff(res * b[0] ** (len(a) - 1))


def _sign_changes(vals):
    signs = [v for v in vals if v != 0]
    return sum(
        1 for s, t in zip(signs, signs[1:]) if (s > 0) != (t > 0)
    )


def sturm_chain(p):
    """The Sturm chain of p, fraction-free: each member is a positive
    multiple of the chain p, p', -(p mod p'), ... over Q, so every sign
    count and the degree of the last member are those of that chain.

    p is scaled by a positive integer that clears its denominators; each
    next member is the negated pseudo-remainder of the two before it,
    divided by its positive content.
    """
    a = Poly.coerce(p).cleared()[1]
    chain = [Poly(a)]
    b = chain[0].derivative().coeffs
    while b:
        chain.append(Poly(b))
        a, b = b, _neg_prem_primitive(a, b)[2]
    return chain


def _neg_prem_primitive(a, b):
    """(s, g, r) with g * r = -s * (a mod b), for integer coefficient lists
    a and b, b nonzero: r has integer coprime entries, s and g are positive
    integers (g = 0 when b divides a, and then r is empty).

    Each step scales the remainder by |lc b| / gcd(top, lc b), a positive
    integer, and s is the product of these scales; g is the content of
    s * (a mod b).
    """
    lc, s = b[-1], 1
    r = list(a)
    while len(r) >= len(b):
        top = r.pop()
        g = gcd(top, lc)
        scale, c = abs(lc) // g, top // g * (1 if lc > 0 else -1)
        shift = len(r) - len(b) + 1
        if scale != 1:
            s *= scale
            r = [scale * x for x in r]
        for i, x in enumerate(b[:-1]):
            r[shift + i] -= c * x
        while r and r[-1] == 0:
            r.pop()
    g = gcd(*r)
    return s, g, [-x // g for x in r]


def cauchy_bound(p):
    """All real roots of p lie in (-B, B) for this B."""
    p = Poly.coerce(p)
    if p.is_zero() or p.degree == 0:
        return Fraction(1)
    lc = Fraction(p.lead())
    return 1 + max(abs(Fraction(c) / lc) for c in p.coeffs[:-1])


def real_root_count(p):
    """Number of distinct real roots of p (0 for nonzero constants)."""
    p = Poly.coerce(p)
    if p.is_zero():
        raise ValueError("zero polynomial has infinitely many roots")
    return chain_root_count(sturm_chain(p))


def chain_root_count(chain):
    """Number of distinct real roots of chain[0], given its Sturm chain.

    Every root lies in (-B, B) for the Cauchy bound B, so the count on
    (-B, B] equals V(-oo) - V(+oo), read from each member's lead and degree
    (a nonzero constant is its own chain and counts 0).  This holds for a
    non-squarefree chain[0] too: dividing the chain by its last member,
    gcd(p, p'), changes no sign count away from the roots.
    """
    at_pos = [q.lead() for q in chain]
    at_neg = [-c if q.degree % 2 else c for q, c in zip(chain, at_pos)]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


# -- quadratic extension R[T][sqrt(D)] ----------------------------------------


class QuadExt:
    """Element u + w*sqrt(D) with u, w in Q[T] and D a fixed polynomial."""

    __slots__ = ("u", "w", "D")

    def __init__(self, u, w, D):
        self.u = Poly.coerce(u)
        self.w = Poly.coerce(w)
        self.D = Poly.coerce(D)

    def _check(self, other):
        if self.D != other.D:
            raise ValueError("mixed quadratic extensions")

    def __eq__(self, other):
        if not isinstance(other, QuadExt):
            return NotImplemented
        return (self.u, self.w, self.D) == (other.u, other.w, other.D)

    def __repr__(self):
        return f"QuadExt({self.u}, {self.w}; D={self.D})"

    def conj(self):
        return QuadExt(self.u, -self.w, self.D)

    def norm(self):
        return self.u * self.u - self.D * self.w * self.w

    def __add__(self, other):
        if isinstance(other, QuadExt):
            self._check(other)
            return QuadExt(self.u + other.u, self.w + other.w, self.D)
        return QuadExt(self.u + other, self.w, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.u, -self.w, self.D)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadExt) else QuadExt(-Poly.coerce(other), 0, self.D))

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            self._check(other)
            return QuadExt(
                self.u * other.u + self.D * self.w * other.w,
                self.u * other.w + self.w * other.u,
                self.D,
            )
        return QuadExt(self.u * other, self.w * other, self.D)

    __rmul__ = __mul__

    def exact_div(self, other):
        """self / other: both components of self * conj(other) divided by
        N(other), a ValueError when either leaves a remainder."""
        self._check(other)
        nm = other.norm()
        prod = self * other.conj()
        return QuadExt(prod.u.exact_div(nm), prod.w.exact_div(nm), self.D)
