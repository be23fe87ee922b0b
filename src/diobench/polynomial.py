"""Dense univariate polynomials over the rationals, plus the quadratic
extension ring used by the Pell machinery.

Coefficients are stored ascending in a tuple; each entry is an int or a
Fraction (Fractions with denominator 1 are normalized to int).  The zero
polynomial has empty coefficients and degree None.
"""

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

from diobench.intarith import divisors


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
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        if self.is_zero():
            return Poly.coerce(other).is_zero()
        return (Poly.coerce(other) % self).is_zero()

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

    def primitive_part(self):
        """Integer-coefficient associate with content 1 and positive lead."""
        if self.is_zero():
            return self
        den = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, c)
        if ints[-1] < 0:
            g = -g
        return Poly([c // g for c in ints])

    def monic(self):
        if self.is_zero():
            return self
        lc = Fraction(self.lead())
        return Poly([Fraction(c) / lc for c in self.coeffs])

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
    """Monic gcd over Q."""
    a, b = Poly.coerce(a), Poly.coerce(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def resultant(a, b):
    """Res(a, b) over Q via the Euclidean recursion."""
    a, b = Poly.coerce(a), Poly.coerce(b)
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    res = Fraction(1)
    while True:
        if b.degree == 0:
            return _norm_coeff(res * Fraction(b.lead()) ** a.degree)
        r = a % b
        if r.is_zero():
            return 0 if a.degree > 0 else _norm_coeff(res)
        res *= (
            Fraction(-1) ** (a.degree * b.degree)
            * Fraction(b.lead()) ** (a.degree - r.degree)
        )
        a, b = b, r


def poly_mod_p(a, p):
    """Coefficient list of a mod p, ascending.  Requires integer
    coefficients; raises ValueError if a is zero or its degree drops mod p."""
    coeffs = Poly.coerce(a).coeffs
    for c in coeffs:
        if not isinstance(c, int):
            raise ValueError(f"coefficient {c} is not an integer")
    if not coeffs or coeffs[-1] % p == 0:
        raise ValueError("leading coefficient vanishes mod p")
    return [c % p for c in coeffs]


def resultant_fp(fa, fb, p):
    """Res(fa, fb) in F_p for ascending coefficient sequences over F_p with
    nonzero leading entries."""
    res = 1
    while True:
        if not fb:
            return 0
        if len(fb) == 1:
            return res * pow(fb[0], len(fa) - 1, p) % p
        # fa mod fb over F_p
        r = list(fa)
        inv = pow(fb[-1], -1, p)
        while len(r) >= len(fb) and r:
            c = r[-1] * inv % p
            k = len(r) - len(fb)
            for i, oc in enumerate(fb):
                r[k + i] = (r[k + i] - c * oc) % p
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return 0 if len(fa) > 1 else res % p
        res = (
            res
            * pow(-1, (len(fa) - 1) * (len(fb) - 1), p)
            * pow(fb[-1], len(fa) - len(r), p)
        ) % p
        fa, fb = fb, r


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
    p = Poly.coerce(p)
    den = lcm(*(c.denominator for c in p.coeffs if type(c) is not int))
    a = [c * den if type(c) is int else c.numerator * (den // c.denominator)
         for c in p.coeffs]
    chain = [Poly(a)]
    b = chain[0].derivative().coeffs
    while b:
        chain.append(Poly(b))
        if len(b) == 1:
            break
        a, b = b, _neg_prem_primitive(a, b)
    return chain


def _neg_prem_primitive(a, b):
    """-(a mod b) times a positive rational, with integer coprime entries,
    for integer coefficient lists a, b with len(a) >= len(b) >= 2.

    Each step scales the remainder by |lc b| / g, g = gcd(top, lc b), a
    positive integer, so the pseudo-remainder |lc b|^k * a mod b differs
    from the result only by a positive factor that the content removes.
    """
    lc = b[-1]
    r = list(a)
    while len(r) >= len(b):
        top = r.pop()
        g = gcd(top, lc)
        scale, c = abs(lc) // g, top // g * (1 if lc > 0 else -1)
        shift = len(r) - len(b) + 1
        if scale != 1:
            r = [scale * x for x in r]
        for i, x in enumerate(b[:-1]):
            r[shift + i] -= c * x
        while r and r[-1] == 0:
            r.pop()
    g = 0
    for x in r:
        g = gcd(g, x)
    return [-x // g for x in r]


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


def squarefree_decomposition(p):
    """Yun's algorithm: list of (factor, multiplicity), factors monic."""
    p = Poly.coerce(p)
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    p = p.monic()
    g = poly_gcd(p, p.derivative())
    out = []
    if g.degree == 0:
        return [(p, 1)]
    w = p.exact_div(g)
    y = p.derivative().exact_div(g)
    i = 1
    while not w.is_constant():
        z = y - w.derivative()
        f = poly_gcd(w, z)
        if not f.is_constant():
            out.append((f, i))
        w = w.exact_div(f)
        y = z.exact_div(f)
        i += 1
    return out


# -- small-degree rational factorization --------------------------------------


def rational_roots(p):
    """All rational roots of p, each listed once, sorted."""
    p = Poly.coerce(p).primitive_part()
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots = set()
    k = 0
    while p[k] == 0:
        roots.add(Fraction(0))
        k += 1
    if k:
        p = Poly(p.coeffs[k:])
    if p.degree == 0:
        return sorted(roots)
    a0, an = p.constant(), p.lead()
    for q in divisors(abs(an)):
        for r in divisors(abs(a0)):
            for cand in (Fraction(r, q), Fraction(-r, q)):
                if p(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def factor_small(p):
    """Factor p over Q into irreducibles; degree at most 4.

    Returns (unit, [(monic_factor, multiplicity), ...]) sorted by degree then
    coefficients.
    """
    p = Poly.coerce(p)
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree > 4:
        raise ValueError("factor_small is limited to degree <= 4")
    unit = Fraction(p.lead())
    rem = p.monic()
    factors = {}

    def record(f):
        factors[f] = factors.get(f, 0) + 1

    for r in rational_roots(rem):
        lin = Poly([-r, 1])
        while lin.divides(rem):
            record(lin)
            rem = rem.exact_div(lin)
    # rem now has no rational roots; split off irreducible quadratics
    while rem.degree is not None and rem.degree >= 2:
        if rem.degree in (2, 3):
            # no rational root => irreducible (deg 3) or irreducible quadratic
            record(rem)
            rem = ONE
            break
        found = False
        # degree 4, no rational roots: search for a monic quadratic factor
        # x^2 + b*x + c via resultant of coefficient constraints; direct scan
        # over candidate c | constant term is enough at this degree.
        a3, a2, a1, a0 = (Fraction(rem[3]), Fraction(rem[2]),
                         Fraction(rem[1]), Fraction(rem[0]))
        pp = rem.primitive_part()
        lead2 = pp.lead()
        const2 = pp.constant()
        # no rational roots => constant term nonzero
        cands = set()
        for qn in divisors(abs(const2)):
            for qd in divisors(abs(lead2)):
                cands.add(Fraction(qn, qd))
                cands.add(Fraction(-qn, qd))
        for c in sorted(cands):
            if c == 0:
                continue
            # b satisfies: from x^4+a3x^3+a2x^2+a1x+a0 = (x^2+bx+c)(x^2+dx+e)
            # with e = a0/c, d = a3 - b, and matching x^1: a1 = b*e + c*d
            e = a0 / c
            # a1 = b*e + c*(a3-b) => b*(e-c) = a1 - c*a3
            if e == c:
                if a1 != c * a3:
                    continue
                # b free along this line; pin with the x^2 match:
                # a2 = e + c + b*d = e + c + b*(a3-b)
                # b^2 - a3*b + (a2 - e - c) = 0
                disc = a3 * a3 - 4 * (a2 - e - c)
                rt = _fraction_sqrt(disc)
                if rt is None:
                    continue
                bs = [(a3 + rt) / 2, (a3 - rt) / 2]
            else:
                b = (a1 - c * a3) / (e - c)
                if a2 != e + c + b * (a3 - b):
                    continue
                bs = [b]
            for b in bs:
                quad = Poly([c, b, 1])
                if quad.divides(rem):
                    record(quad)
                    rem = rem.exact_div(quad)
                    found = True
                    break
            if found:
                break
        if not found:
            record(rem)
            rem = ONE
            break
    if rem.degree is not None and rem.degree >= 1:
        record(rem)
    out = sorted(
        factors.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)
    )
    check = Poly([unit])
    for f, m in out:
        check = check * f**m
    assert check == p
    return _norm_coeff(unit), out


def _fraction_sqrt(q):
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


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

    def __pow__(self, n):
        if n < 0:
            nm = self.norm()
            if nm != ONE and nm != 1:
                raise ValueError("negative power needs norm 1")
            return self.conj() ** (-n)
        result = QuadExt(1, 0, self.D)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def residue(self, x):
        """The components (u, w) of x * conj(self), each reduced modulo
        N(self).  The map is Q-linear in x, and self | x exactly when both
        components are zero."""
        self._check(x)
        nm = self.norm()
        if nm.is_zero():
            raise ValueError("residue modulo a zero norm")
        prod = x * self.conj()
        return prod.u % nm, prod.w % nm

    def divides(self, other):
        """Whether self | other in Q[T][sqrt(D)] (exact component division)."""
        self._check(other)
        if self.norm().is_zero():
            return other.u.is_zero() and other.w.is_zero()
        return self.residue(other) == (ZERO, ZERO)

    def exact_div(self, other):
        """self / other, assuming divisibility."""
        self._check(other)
        nm = other.norm()
        prod = self * other.conj()
        return QuadExt(prod.u.exact_div(nm), prod.w.exact_div(nm), self.D)
