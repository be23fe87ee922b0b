"""Cyclotomic polynomials, special-form indices, and the root-of-unity
product machinery: congruent-index construction, the approximation sweep,
approximation points via CRT of Hensel lifts, and the appendix lemma checks.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from diobench import SelfCheckError
from diobench.intarith import (
    crt,
    divisors,
    euler_phi,
    factorize,
    hensel_root_of_unity,
    is_prime,
    moebius,
    ord_int,
    radical,
)
from diobench.polynomial import (
    Poly,
    poly_mod_p,
    resultant,
    resultant_fp,
)

CYCLO_MAX = 10**4


def _moebius_factors(n):
    """The d | n with mu(n/d) = 1 and those with mu(n/d) = -1, for n >= 1:
    each prime of n splits every d so far into d and d/p of opposite sign."""
    num, den = [n], []
    for p in factorize(n):
        num, den = num + [d // p for d in den], den + [d // p for d in num]
    return num, den


def _times_one_minus(c, d):
    """c * (1 - T^d) for an ascending coefficient list c, in one pass."""
    out = c + [0] * d
    out[d:] = [x - y for x, y in zip(out[d:], c)]
    return out


def _over_one_minus(c, d, length):
    """The first `length` coefficients of the series c / (1 - T^d), by the
    recurrence q_i = c_i + q_(i-d), one slice of d at a time."""
    q = (c + [0] * length)[:length]
    for s in range(d, length, d):
        q[s:s + d] = [x + y for x, y in zip(q[s:s + d], q[s - d:s])]
    return q


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Phi_n for 1 <= n <= CYCLO_MAX: `cyclotomic_mod` at T^(phi(n) + 1),
    one past its degree; criterion 06 checks prod_{d|n} Phi_d = T^n - 1."""
    if not 1 <= n <= CYCLO_MAX:
        raise ValueError(f"n = {n} out of range [1, {CYCLO_MAX}]")
    return cyclotomic_mod(n, euler_phi(n) + 1)


@lru_cache(maxsize=1 << 10)
def _cyclotomic_mod_p(n, p):
    """Phi_n mod p as a tuple of ints; ValueError if the degree drops."""
    return tuple(poly_mod_p(cyclotomic(n), p))


def cyclotomic_mod(n, B):
    """Phi_n mod T^B, from Phi_n = prod_{d|n} (1 - T^d)^mu(n/d) for n > 1
    (Phi_1 = T - 1): the numerator factors are multiplied in, then each
    denominator factor is divided out as a series, all truncated at B; a
    factor 1 - T^d with d >= B is 1 mod T^B and skipped."""
    if n == 1:
        return Poly([-1, 1]).truncate(B)
    num, den = _moebius_factors(n)
    c = [1]
    for d in num:
        if d < B:
            c = _times_one_minus(c, d)[:B]
    for d in den:
        if d < B:
            c = _over_one_minus(c, d, B)
    return Poly(c)


@dataclass(frozen=True)
class SpecialFormIndex:
    n: int
    p: int
    m: int

    def __post_init__(self):
        if self.n != self.p * self.m or not is_prime(self.p):
            raise ValueError("need n = p*m with p prime")
        if self.m >= 1 and (self.p - 1) % self.m != 0:
            raise ValueError(f"m = {self.m} does not divide p - 1 = {self.p - 1}")


def special_form(n):
    """The unique (p, m) with n = p*m, p the largest prime factor,
    m | p - 1; None if no such decomposition exists."""
    if n < 2:
        raise ValueError("n must be >= 2")
    p = max(factorize(n))
    m = n // p
    if n % p == 0 and (p - 1) % m == 0 and m % p != 0:
        return SpecialFormIndex(n, p, m)
    return None


def congruence_profile(n):
    """(d, s) with Phi_n == 1 + s*T^d mod T^(2d), for special-form n >= 2."""
    sf = special_form(n)
    if sf is None:
        raise ValueError(f"{n} is not of the special form")
    m = sf.m
    # m = prod p_i^(e_i)  =>  d = prod p_i^(e_i - 1) = m / rad(m)
    d = m // radical(m) if m > 1 else 1
    r = n // m
    s = -moebius(r) * moebius(radical(m))
    return d, s


def find_special_congruent(d, s, count, avoid_primes=frozenset()):
    """`count` pairs (n, p): a special-form index n with
    Phi_n == 1 + s*T^d mod T^(2d), and the fresh prime p of its r.

    Built per the congruence lemma: m = prod p_i^(e_i+1) over the
    factorization of d, then n = r*m with r a fresh prime (odd factor
    count) or a fresh prime pair p_1*p_2 with p_2*m | p_1 - 1 (even
    count); the sign of T^d is set by the parity of the factor count of r.
    The fresh primes come in one ascending walk over p = 1 + k*m (1 + k*p_2*m
    for a pair).  Every returned index is verified by truncated expansion;
    the primes of r are distinct across the returned list and avoid
    `avoid_primes`, so the indices are distinct and the product of their
    cyclotomics stays squarefree.
    """
    if d < 1 or d > 16:
        raise ValueError("d out of range [1, 16]")
    if s not in (1, -1):
        raise ValueError("sign must be +-1")
    m = 1
    for p, e in factorize(d).items():
        m *= p ** (e + 1)
    # s = -mu(r) * mu(rad m); odd factor count in r gives mu(r) = -1
    want_odd_r = s == moebius(radical(m))
    target = Poly([1] + [0] * (d - 1) + [s]).truncate(2 * d)
    p2 = 2
    while m % p2 == 0:
        p2 += 1
    step = m if want_odd_r else p2 * m
    found, p = [], 1
    while len(found) < count:
        p += step
        # a fresh top prime (p == 1 mod step is prime to m) keeps the indices
        # distinct, which is all squarefreeness of the product needs
        if p in avoid_primes or not is_prime(p):
            continue
        n = p * step
        if cyclotomic_mod(n, 2 * d) != target:
            raise SelfCheckError(f"constructed index {n} fails the congruence")
        found.append((n, p))
    return found


@dataclass
class CycloProductSpec:
    sign: int
    indices: list

    def expand_mod(self, B):
        acc = Poly([self.sign])
        for n in self.indices:
            acc = (acc * cyclotomic_mod(n, B)).truncate(B)
        return acc

    def to_dict(self):
        return {"sign": self.sign, "indices": list(self.indices)}


# Ceiling on the special factors of `forweak_approx` (as a process on 2
# cores, 1 + 10000*T at d = 2 takes 0.5 s; 1 + 3T - 3T^2 at d = 8, with 2,333
# factors, 0.3 s, and at d = 12 it needs more than the ceiling).
FORWEAK_FACTORS_MAX = 10**4


def forweak_approx(F, d):
    """A special root-of-unity product M with F == M mod T^d.

    Left-to-right sweep: at each exponent e the current mismatch coefficient
    delta is cancelled by |delta| distinct special cyclotomics
    == 1 + sgn(delta)*F(0)*T^e mod T^(2e); a global used-prime set keeps the
    indices distinct so the product stays squarefree and in the special set.
    The factors so far plus |delta| bound the final count from below; past
    FORWEAK_FACTORS_MAX the sweep raises ValueError before it searches.
    """
    F = Poly.coerce(F)
    if any(not isinstance(c, int) for c in F.coeffs):
        raise ValueError("F must have integer coefficients")
    f0 = F.constant()
    if f0 not in (1, -1):
        raise ValueError("F(0) must be +-1")
    if not 1 <= d <= 12 or (F.degree or 0) > 16:
        raise ValueError("arguments out of the supported range")
    sign = f0
    indices = []
    used = set()
    M = Poly([sign])
    for e in range(1, d):
        delta = F[e] - M[e]
        if delta == 0:
            continue
        # each factor 1 + s*T^e shifts the T^e coefficient by s*M(0) = s*f0
        s = 1 if (delta > 0) == (f0 > 0) else -1
        if len(indices) + abs(delta) > FORWEAK_FACTORS_MAX:
            raise ValueError(f"F needs more than {FORWEAK_FACTORS_MAX} "
                             f"special factors mod T^{d}")
        new = find_special_congruent(e, s, abs(delta), avoid_primes=used)
        for n, top in new:
            used.add(top)
            M = (M * cyclotomic_mod(n, d)).truncate(d)
            indices.append(n)
    spec = CycloProductSpec(sign, sorted(indices))
    if len(set(indices)) != len(indices):
        raise SelfCheckError(f"repeated index in {spec.indices}")
    if spec.expand_mod(d) != F.truncate(d):
        raise SelfCheckError(f"the product of Phi_n, n in {spec.indices}, "
                             f"differs from {F} mod T^{d}")
    return spec


@dataclass
class ApproxPoint:
    c: int
    modulus: int
    records: list

    def to_dict(self):
        return {"c": self.c, "modulus": self.modulus,
                "records": list(self.records)}


def approx_point(indices):
    """CRT point c close p_i-adically to a primitive m_i-th root of unity.

    c = crt of hensel_root_of_unity(m_i, p_i, phi(m_i)+1).  Off-index
    valuations ord_{p_i}(Phi_j(c)) vanish for j | l, j not in {n_i, m_i};
    the on-index valuation equals phi(m_i) and is asserted for
    m_i in {1, 2}, measured otherwise.
    """
    sfs = [SpecialFormIndex(p * m, p, m) for p, m in indices]
    parts = []
    for sf in sfs:
        parts.extend([sf.p, sf.m] if sf.m > 1 else [sf.p])
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if gcd(parts[i], parts[j]) != 1:
                raise ValueError(
                    f"components not pairwise coprime: ({parts[i]}, {parts[j]})"
                )
    residues, moduli = [], []
    for sf in sfs:
        k = euler_phi(sf.m) + 1
        residues.append(hensel_root_of_unity(sf.m, sf.p, k))
        moduli.append(sf.p**k)
    c = crt(residues, moduli)
    if any(r != c % m for r, m in zip(residues, moduli)):
        raise SelfCheckError(f"the CRT point {c} misses a lift")
    ell = 1
    for sf in sfs:
        ell *= sf.n
    records = []
    for sf, r, md in zip(sfs, residues, moduli):
        target = euler_phi(sf.m)
        measured = ord_int(cyclotomic(sf.n)(c), sf.p)
        rec = {
            "p": sf.p, "m": sf.m, "n": sf.n, "lift": r,
            "target": target, "measured": measured,
            "asserted": sf.m in (1, 2),
        }
        if sf.m in (1, 2) and measured != target:
            raise SelfCheckError(f"ord_{sf.p}(Phi_{sf.n}(c)) = {measured}, "
                                 f"not phi({sf.m}) = {target}")
        # off-index orders vanish (excluding n_i and the index m_i itself,
        # where Phi_m(c) == Phi_m(root of unity) = 0 mod p can occur)
        off = {}
        for j in divisors(ell):
            if j in (sf.n, sf.m):
                continue
            v = ord_int(cyclotomic(j)(c), sf.p)
            off[j] = v
            if v != 0:
                raise SelfCheckError(f"off-index ord_{sf.p}(Phi_{j}(c)) = {v}")
        rec["off_index_orders"] = off
        records.append(rec)
    return ApproxPoint(c, prod(moduli), records)


def appendix_checks(n_max=200, grid=60):
    """Executable versions of the appendix lemmas on a bounded range.

    (i) Phi_{p^s}(1) = p, and gcd(Phi_r(1), p) = 1 when r has another prime
        factor;
    (ii) for p coprime to m: p | Res(Phi_m, Phi_r) implies r = m*p^a
        (checked with resultants mod p on a reduced grid); the stated
        extra clause m | p^a - 1 is measured only -- (r, m, p) = (6, 3, 2)
        is a counterexample;
    (iii) measured |Res(Phi_m, Phi_{pm})| against p^phi(m).
    """
    report = {"value_at_one": [], "divisibility": [],
              "clause2_counterexamples": [], "pdivides": [], "pass": True}
    for n in range(2, n_max + 1):
        val = cyclotomic(n)(1)
        fac = factorize(n)
        if len(fac) == 1:
            p = next(iter(fac))
            ok = val == p
        else:
            ok = all(val % p != 0 for p in fac)
        report["value_at_one"].append({"n": n, "value": val, "pass": ok})
        report["pass"] &= ok
    # (ii): reduced grid, resultants mod p (small enough to stay quick)
    for m in range(1, grid + 1):
        for r in range(m + 1, grid + 1):
            for p in (2, 3, 5, 7, 11, 13):
                # hypotheses: p coprime to the root index (tested first, as
                # it is free) and p | Res(Phi_m, Phi_r)
                if m % p == 0 or resultant_fp(_cyclotomic_mod_p(m, p),
                                              _cyclotomic_mod_p(r, p), p):
                    continue
                ok = False
                a = 0
                if r % m == 0:
                    q = r // m
                    a = ord_int(q, p)
                    ok = q == p**a and a >= 1
                rec = {"r": r, "m": m, "p": p, "pass": ok}
                report["divisibility"].append(rec)
                report["pass"] &= ok
                # the stated second clause fails already at (6, 3, 2);
                # measured, not asserted
                if ok and (p**a - 1) % m != 0:
                    report["clause2_counterexamples"].append(
                        {"r": r, "m": m, "p": p, "a": a}
                    )
    # (iii): measured resultant magnitudes for the special shape r = pm
    for p, m in [(3, 2), (5, 2), (5, 4), (7, 2), (7, 3), (7, 6), (13, 4)]:
        if (p - 1) % m:
            continue
        res = abs(resultant(cyclotomic(m), cyclotomic(p * m)))
        report["pdivides"].append({
            "p": p, "m": m, "measured": res,
            "stated_exponent": euler_phi(m),
            "stated_value": p ** euler_phi(m),
            "matches_stated": res == p ** euler_phi(m),
        })
    return report
