"""Seeded input generators and answer gates for the three workloads.

Every operation carries what its answer must be, worked out from the
generated parameters without asking diobench: an exit code and verdict
fixed by the construction of the input, an exact value that `exact`
computes on its own (a Pell pair, Phi_n, theta(n), orders at infinity),
or a check that re-verifies the certificate diobench returns (the product
of cyclotomics behind `forweak`, the valuations behind `approx`, the Sturm
count and Eisenstein conditions behind `xi`, the five squares, the Par
tuple).  Generators import nothing from diobench: the program sees only
the inputs.

Per-pass composition is fixed (so many operations of each kind, drawn from
bounded pools); the seed picks the parameters and the order.  That keeps a
pass's total work close across seeds while still varying the inputs.
"""

import json
import random
from fractions import Fraction
from math import gcd, prod

import exact

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _poly_text(coeffs):
    """Ascending integer coefficients as input text, e.g. [1, 0, -2] -> 1-2*t^2."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        terms.append(("-" if c < 0 else "+") + body)
    text = "".join(terms) or "0"
    return text[1:] if text.startswith("+") else text


def _same_poly(text, coeffs, what):
    if exact.parse(text) == exact.trim(coeffs):
        return None
    return f"{what} = {text}, expected coefficients {list(coeffs)}"


def _order_at(n, c, p):
    """ord_p(Phi_n(c)), or None when Phi_n(c) = 0."""
    v = exact.value(exact.cyclotomic(n), c)
    return exact.ord_p(v, p) if v else None


# -- query-mix ---------------------------------------------------------------
# A builder takes a query's parameters and returns (argv, expect); a
# generator takes (rng, i), draws parameters and calls a builder.  `i`
# cycles a kind through its classes (e.g. accepted / refuted) so their
# shares are fixed per pass.  expect: rc (exit code), and optionally result
# (exact value, or a dict whose items must appear in the result) and check
# (a function of the result giving None or what is wrong).


def pell_query(s, n, laws_bound=None):
    argv = ["pell", f"--s={_poly_text(s)}", f"--n={n}"]
    if laws_bound:
        argv += ["--check-laws", f"--bound={laws_bound}"]
    f, g = exact.pell(list(s), n)

    def check(result):
        # the degree and divisibility verdicts of --check-laws are the
        # program's own; f and g are checked here
        return _same_poly(result["f"], f, "f") or _same_poly(result["g"], g, "g")
    return argv, {"rc": 0, "check": check}


PELL_S = ((0, 1), (0, 2), (0, 0, 1), (1, 3), (2, 1), (0, 1, 1))


def q_pell(rng, i):
    return pell_query(rng.choice(PELL_S), rng.randrange(1, 9),
                      laws_bound=3 if i % 4 == 3 else None)


def q_constants(rng, i):
    if i % 2:
        x = _poly_text([rng.randrange(-3, 4), rng.choice((-2, -1, 1, 2))])
        return ["defsys", "constants", f"--x={x}"], {
            "rc": 0, "result": {"verdict": "refuted"}}
    x = f"{rng.randrange(-9, 10)}/{rng.randrange(1, 6)}"
    return ["defsys", "constants", f"--x={x}"], {
        "rc": 0, "result": {"verdict": "accepted"}}


def singlefold_query(c, verdict):
    return ["defsys", "singlefold-int", f"--c={c}"], {
        "rc": 0, "result": {"verdict": verdict}}


def q_singlefold(rng, i):
    cls = i % 6
    if cls in (0, 3):
        q = rng.randrange(2, 5)
        c = f"{rng.choice((-1, 1)) * rng.randrange(1, 2 * q)}/{q}"
        if int(c.split("/")[0]) % q == 0:
            c = f"{q + 1}/{q}"
        return singlefold_query(c, "refuted-to-bound")
    if cls == 5:
        return singlefold_query(_poly_text([rng.randrange(-2, 3), 1]),
                                "refuted-to-bound")
    return singlefold_query(str(rng.randrange(-5, 6)), "accepted")


def exp_query(b, d, c, verdict):
    return ["defsys", "exp", f"--base={b}", f"--exp={d}", f"--result={c}"], {
        "rc": 0, "result": {"verdict": verdict}}


def q_exp(rng, i):
    b = rng.choice((-1, 1)) * rng.randrange(2, 8)
    d = rng.choice((-1, 1)) * rng.randrange(0, 5)
    v = abs(b) ** abs(d)
    if i % 2:
        return exp_query(b, d, v + rng.randrange(1, 4), "refuted")
    return exp_query(b, d, rng.choice((-1, 1)) * v, "accepted")


def q_odd(rng, i):
    if i % 6 == 5:
        a = rng.choice((-4, -2, 2, 4, 6))
        return ["defsys", "odd-int", f"--a={a}"], {
            "rc": 0, "result": {"verdict": "refuted-to-bound"}}
    r = rng.choice((-1, 1)) * rng.randrange(1, 10, 2)
    return ["defsys", "odd-int", f"--r={r}"], {
        "rc": 0, "result": {"verdict": "accepted"}}


def q_nonneg(rng, i):
    d = rng.randrange(-6, 7)
    verdict = "accepted" if d >= -1 else "refuted"
    return ["defsys", "nonneg", f"--d={d}"], {
        "rc": 0, "result": {"verdict": verdict}}


def q_phi(rng, i):
    n = rng.randrange(3, 121)
    phi = exact.cyclotomic(n)
    return ["cyclo", "phi", f"--n={n}"], {
        "rc": 0, "check": lambda result: _same_poly(result, phi, f"Phi_{n}")}


def special_query(n):
    argv = ["cyclo", "special", f"--n={n}"]
    if exact.special_form(n) is None:
        return argv, {"rc": 1, "result": "not special-form"}
    p, m = exact.special_form(n)

    def check(result):
        d, s = result["d"], result["s"]
        want = [1] + [0] * (d - 1) + [s] + [0] * (d - 1)
        if s not in (1, -1) or exact.cyclotomic(n, 2 * d) != exact.trim(want):
            return f"Phi_{n} is not 1 + ({s})*T^{d} mod T^{2 * d}"
        return None
    return argv, {"rc": 0, "result": {"p": p, "m": m}, "check": check}


def q_special(rng, i):
    p = rng.choice(SMALL_PRIMES[1:])
    if i % 3 == 2:
        return special_query(p * p)
    return special_query(p * rng.choice([m for m in range(1, p)
                                         if (p - 1) % m == 0]))


def forweak_query(F, d):
    def check(result):
        sign, indices = result["sign"], result["indices"]
        if sign != F[0]:
            return f"sign {sign}, expected F(0) = {F[0]}"
        if len(set(indices)) != len(indices):
            return "indices repeat"
        odd = [n for n in indices if exact.special_form(n) is None]
        if odd:
            return f"indices {odd} are not special-form"
        M = [sign]
        for n in indices:
            M = exact.mul(M, exact.cyclotomic(n, d))[:d]
        if exact.trim(M) != exact.trim(F[:d]):
            return f"the product of the Phi_n is not F mod T^{d}"
        return None
    return ["cyclo", "forweak", f"--poly={_poly_text(F)}", f"--d={d}"], {
        "rc": 0, "check": check}


def q_forweak(rng, i):
    F = [rng.choice((-1, 1))] + [rng.choice((-1, 0, 1))
                                 for _ in range(rng.randrange(0, 6))]
    return forweak_query(F, rng.randrange(2, 7))


def approx_query(pairs):
    """cyclo approx at (p, m) pairs with m | p - 1 and coprime components."""
    ell = prod(p * m for p, m in pairs)
    moduli = [p ** (exact.totient(m) + 1) for p, m in pairs]

    def check(result):
        c, records = result["c"], result["records"]
        if result["modulus"] != prod(moduli) or not 0 <= c < prod(moduli):
            return "c is not reduced modulo the product of the p^k"
        if len(records) != len(pairs):
            return f"{len(records)} records for {len(pairs)} indices"
        for (p, m), pk, rec in zip(pairs, moduli, records):
            n = p * m
            if (rec["p"], rec["m"], rec["n"], rec["target"]) != (
                    p, m, n, exact.totient(m)):
                return f"record {rec['n']} does not match index {n}"
            lift = rec["lift"]
            if c % pk != lift % pk:
                return f"c is not the lift {lift} modulo {pk}"
            if pow(lift, m, pk) != 1 or any(pow(lift, m // q, p) == 1
                                            for q in exact.factorize(m)):
                return f"lift {lift} is no primitive {m}-th root of 1 mod {p}"
            measured = _order_at(n, c, p)
            if rec["measured"] != measured:
                return f"ord_{p}(Phi_{n}(c)) = {measured}, not {rec['measured']}"
            if m in (1, 2) and measured != rec["target"]:
                return f"ord_{p}(Phi_{n}(c)) = {measured}, target {rec['target']}"
            off = {int(j): v for j, v in rec["off_index_orders"].items()}
            if set(off) != set(exact.divisors(ell)) - {n, m}:
                return f"off-index orders at {sorted(off)} for Phi_{n}"
            nonzero = [j for j in off if off[j] != 0 or _order_at(j, c, p) != 0]
            if nonzero:
                return f"ord_{p}(Phi_j(c)) is not 0 for j in {nonzero}"
        return None
    text = ",".join(f"{p}:{m}" for p, m in pairs)
    return ["cyclo", "approx", f"--indices={text}"], {"rc": 0, "check": check}


# (p, m) with m | p - 1; a query takes one, or two with coprime components
APPROX_POOL = ((2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2),
               (5, 4), (7, 3), (11, 1), (11, 2), (13, 1))


def q_approx(rng, i):
    first = rng.choice(APPROX_POOL)
    chosen = [first]
    if i % 2:
        parts = {x for x in first if x > 1}
        mates = [pm for pm in APPROX_POOL
                 if all(gcd(x, y) == 1 for x in pm if x > 1 for y in parts)
                 and pm[0] * pm[1] * first[0] * first[1] <= 100]
        if mates:
            chosen.append(rng.choice(mates))
    return approx_query(chosen)


def q_qform_report(rng, i):
    b = rng.choice((-1, 1)) * rng.randrange(1, 31)
    if i % 2:
        a, b = -rng.randrange(1, 31), -abs(b)
        return ["qform", "report", f"--a={a}", f"--b={b}"], {
            "rc": 0, "result": {"globally_isotropic": False}}
    a = rng.randrange(1, 10) ** 2
    return ["qform", "report", f"--a={a}", f"--b={b}"], {
        "rc": 0, "result": {"globally_isotropic": True}}


def q_eisenstein(rng, i):
    p = rng.choice((2, 3, 5, 7))
    deg = rng.randrange(2, 5)
    unit = rng.choice([u for u in range(-4, 5) if u % p])
    middle = [rng.randrange(-2, 3) * p * p for _ in range(deg - 1)]
    if i % 3 == 2:
        coeffs, verdict, rc = [unit] + middle + [1], False, 1
    else:
        coeffs, verdict, rc = [p * unit] + middle + [1], True, 0
    return ["qform", "eisenstein", f"--poly={_poly_text(coeffs)}",
            f"--p={p}"], {"rc": rc, "result": {"verdict": verdict}}


def xi_real_query(f):
    cube = exact.mul(exact.mul(f, f), f)
    sign = 1 if cube[-1] > 0 else -1

    def check(result):
        xi1, xi3 = Fraction(result["xi1"]), Fraction(result["xi3"])
        h = exact.parse(result["h"])
        if xi1 != sign:
            return f"xi1 = {xi1}, expected {sign}"
        if h != exact.add(exact.scale(cube, xi1), [xi3, 1]):
            return "h is not xi1*f^3 + T + xi3"
        if exact.real_root_count(h) != 0:
            return "h has a real root"
        return None
    return ["qform", "xi", f"--f={_poly_text(f)}", "--real"], {
        "rc": 0, "check": check}


def xi_padic_query(f, p):
    F = exact.add(exact.mul(exact.mul(f, f), f), [0, 1])
    n = len(F) - 1

    def check(result):
        cert, h = result["cert"], exact.parse(result["h"])
        xi1, xi3 = Fraction(result["xi1"]), Fraction(result["xi3"])
        if (cert["p"], cert["m"], cert["r"], cert["verdict"]) != (p, n, 2, True):
            return f"certificate {cert}"
        if xi3 != p:
            return f"xi3 = {xi3}, expected {p}"
        # h is Eisenstein at p with parameter 2 ...
        if len(h) != n + 1 or h[n] != 1 or exact.ord_p(h[0], p) != 1 or any(
                c and exact.ord_p(c, p) < 2 for c in h[1:n]):
            return f"h is not monic Eisenstein of degree {n} at {p}"
        # ... and h(W) at W = p^r T is xi1*F + xi3, where xi1*a_n = p^(n r)
        r = exact.ord_p(xi1 * F[n], p) // n
        if r < 0 or xi1 * F[n] != p ** (n * r) or [
                c * p ** (r * i) for i, c in enumerate(h)] != exact.add(
                exact.scale(F, xi1), [xi3]):
            return "h(p^r T) is not xi1*(f^3 + T) + xi3"
        return None
    return ["qform", "xi", f"--f={_poly_text(f)}", f"--p={p}"], {
        "rc": 0, "check": check}


XI_F = ((0, 0, 1), (1, 0, 1), (1, 1, 1), (-3, 0, 2), (0, 1, 0, 0, 1))


def q_xi(rng, i):
    f = list(rng.choice(XI_F))
    if i % 2:
        return xi_real_query(f)
    return xi_padic_query(f, rng.choice((2, 3, 5, 7)))


def q_gate(rng, i):
    g = [rng.randrange(-3, 4) for _ in range(rng.randrange(0, 4))]
    g.append(rng.choice((-2, -1, 1, 2)))
    # h = T g^2 + T^2 has degree 2k + 1 when g has degree k >= 1, else 2
    k = len(g) - 1
    ords = {"ord_g": str(-k), "ord_h": str(-(2 * k + 1) if k else -2)}
    return ["qform", "gate", f"--g={_poly_text(g)}"], {"rc": 0, "result": ords}


def q_theta(rng, i):
    if i % 2:
        P = [rng.randrange(-3, 4) for _ in range(rng.randrange(0, 4))]
        P.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        return ["par", "theta", f"--poly={_poly_text(P)}"], {
            "rc": 0, "result": exact.theta_inverse(P)}
    n = rng.randrange(1, 5000)
    P = exact.theta(n)
    return ["par", "theta", f"--n={n}"], {
        "rc": 0, "check": lambda result: _same_poly(result, P, f"theta({n})")}


PAR_CONDITIONS = ("1-index", "2-signs", "3-degree", "4-c-minimal",
                  "5-g-minimal", "6-b-bound", "7-value")


def par_eval_query(n):
    """par eval: the tuple's d, b and v follow from theta(n) and the Pell
    pair Y = g_(d+2) at s = T; every condition must hold, the five-squares
    one possibly only semi-decided."""
    P = exact.theta(n)
    d = max(len(P) - 1, 0)
    Y = exact.pell([0, 1], d + 2)[1]
    b = max(exact.value(Y, x) for x in range(d + 1))

    def check(result):
        t, conds = result["tuple"], result["conditions"]
        if (t["n"], t["d"], t["b"]) != (n, d, b):
            return f"tuple {t}, expected n={n} d={d} b={b}"
        if t["c"] < 1 or not 1 <= t["g"] <= 4:
            return f"c = {t['c']}, g = {t['g']} out of range"
        if t["v"] != exact.value(P, 2 * b + 2 * t["c"] + d):
            return f"v = {t['v']} is not theta({n}) at 2b + 2c + d"
        if tuple(sorted(conds)) != PAR_CONDITIONS:
            return f"conditions {sorted(conds)}"
        unmet = [k for k, v in conds.items() if v is not True
                 and not (k == "5-g-minimal" and v == "semi-decided")]
        return f"conditions {unmet} not met" if unmet else None
    return ["par", "eval", f"--n={n}"], {"rc": 0, "check": check}


# n = 4 and n = 7 cost ~100x the others (their five-squares searches run
# longer); 7 is among README_QUERIES, so the per-pass cost does not hinge
# on how often the seed draws them
PAR_EVAL_POOL = (1, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15)


def q_par_eval(rng, i):
    return par_eval_query(rng.choice(PAR_EVAL_POOL))


def q_five_squares(rng, i):
    a = [rng.randrange(-3, 4), rng.choice((-2, -1, 1, 2))]
    F = exact.mul(a, a)
    F[0] += rng.randrange(0, 3) ** 2
    if i % 3 == 2:
        F = [-c for c in F]
        return ["par", "five-squares", f"--poly={_poly_text(F)}"], {
            "rc": 1, "result": "not-pos"}

    def check(result):  # F is a sum of two squares, so g = 1
        parts = [exact.parse(x) for x in result["parts"]]
        total = []
        for q in parts:
            total = exact.add(total, exact.mul(q, q))
        return None if len(parts) == 5 and total == F else (
            "the squares of the parts do not sum to F")
    return ["par", "five-squares", f"--poly={_poly_text(F)}"], {
        "rc": 0, "result": {"g": 1}, "check": check}


# Shares: no record of real use exists to take them from, so every query
# operation of the CLI (each subcommand and op of `build_parser`, less
# `cyclo appendix` and `verify-all`, which take no input) runs the same
# number of times per pass, and each example query of the README once.
QUERY_KINDS = (
    q_pell, q_constants, q_singlefold, q_exp, q_odd, q_nonneg, q_phi,
    q_special, q_forweak, q_approx, q_qform_report, q_eisenstein, q_xi,
    q_gate, q_theta, q_par_eval, q_five_squares,
)
PER_KIND = 15
README_QUERIES = (
    pell_query((0, 1), 3, laws_bound=20),  # the CLI's default bound
    singlefold_query("3", "accepted"),
    exp_query(2, 3, 8, "accepted"),
    special_query(20),
    approx_query(((3, 2), (5, 1))),
    # 2 is no square mod 5, so (2, 5)_5 = -1, and the product formula
    # makes (2, 5)_2 = -1 as well, both being positive
    (["qform", "report", "--a=2", "--b=5"], {
        "rc": 0, "result": {"globally_isotropic": False,
                            "anisotropic_places": ["p:2", "p:5"]}}),
    par_eval_query(7),
)


def query_mix(seed, tiny=False):
    rng = random.Random(seed)
    ops = [kind(rng, i) for kind in QUERY_KINDS
           for i in range(1 if tiny else PER_KIND)]
    if not tiny:
        ops.extend(README_QUERIES)
    rng.shuffle(ops)
    return [(["--format", "json"] + argv, expect) for argv, expect in ops]


def check_query(expect, rc, out):
    """None if the query's answer is the generated one, else the reason."""
    if rc != expect["rc"]:
        return f"exit {rc}, expected {expect['rc']}"
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if report.get("ok") != (rc == 0):
        return "ok flag disagrees with the exit code"
    result = report.get("result")
    want = expect.get("result")
    if isinstance(want, dict):
        if not isinstance(result, dict):
            return f"result {result!r} is not a mapping"
        for key, value in want.items():
            if result.get(key) != value:
                return f"result[{key!r}] = {result.get(key)!r}, expected {value!r}"
    elif want is not None and result != want:
        return f"result {result!r}, expected {want!r}"
    if "check" in expect:
        try:
            return expect["check"](result)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            return f"malformed result: {type(e).__name__}: {e}"
    return None


# -- suite-quick -------------------------------------------------------------


def suite_quick(seed, tiny=False):
    argv = ["--format", "json", "verify-all", "--profile", "quick",
            "--seed", str(seed)]
    return [(argv, {"rc": 0})]


def check_suite(rc, out, schema):
    """None if verify-all exited 0 with every check pass/measured and a
    schema-valid report, else the reason."""
    import jsonschema

    if rc != 0:
        return f"exit {rc}"
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not JSON"
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as e:
        return f"schema: {e.message}"
    if report["ok"] is not True:
        return "ok is not true"
    bad = [c["name"] for c in report["checks"]
           if c["status"] not in ("pass", "measured")]
    if bad:
        return f"checks not pass/measured: {bad}"
    if len(report["checks"]) != 13:
        return f"{len(report['checks'])} checks, expected 13"
    return None


# -- int-kernels -------------------------------------------------------------
# ("fs", n): four_squares(n).  ("hs", a, b, p): hilbert_symbol == oracle.
# ("rec", a, b): product of hilbert_symbol over the relevant places is 1.
# Draws are stratified (a fixed count per 4-adic valuation and per prime),
# since the cost of four_squares grows with the valuation and the cost of an
# oracle scan with p^3; the mix, not the seed, then sets a pass's cost.

FS_VALUATIONS = range(0, 5)  # n = 4^j * m, m uniform in [1, 2^10)
FS_PER_VALUATION = 40
FS_FAMILY = range(4, 10)     # n = 2 * 4^k, each once per pass: the slow case
HS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
HS_PER_PRIME = 30            # a, b uniform in [-40, 40] \ {0}
REC_DRAWS = 200              # a, b uniform in [-10^4, 10^4] \ {0}


def _nonzero(rng, bound):
    return rng.choice((-1, 1)) * rng.randrange(1, bound + 1)


def int_kernels(seed, tiny=False):
    rng = random.Random(seed)
    scale = 20 if tiny else 1
    ops = [("fs", 4**j * rng.randrange(1, 2**10)) for j in FS_VALUATIONS
           for _ in range(FS_PER_VALUATION // scale)]
    if not tiny:
        ops += [("fs", 2 * 4**k) for k in FS_FAMILY]
    ops += [("hs", _nonzero(rng, 40), _nonzero(rng, 40), p) for p in HS_PRIMES
            for _ in range(HS_PER_PRIME // scale)]
    ops += [("rec", _nonzero(rng, 10**4), _nonzero(rng, 10**4))
            for _ in range(REC_DRAWS // scale)]
    rng.shuffle(ops)
    return ops


def run_kernel_op(op, intarith, quadforms):
    """Run one int-kernels operation; returns (answer, None or failure)."""
    if op[0] == "fs":
        n = op[1]
        sol = intarith.four_squares(n)
        if sum(x * x for x in sol) != n:
            return sol, "sum of squares differs from n"
        if list(sol) != sorted(sol, reverse=True) or min(sol) < 0:
            return sol, "components not descending and non-negative"
        return sol, None
    if op[0] == "hs":
        _, a, b, p = op
        sym = quadforms.hilbert_symbol(a, b, p)
        oracle = quadforms.local_solubility_oracle(a, b, p)
        return sym, None if sym == oracle else f"symbol {sym}, oracle {oracle}"
    _, a, b = op
    prod = 1
    for v in quadforms.relevant_places(a, b):
        prod *= quadforms.hilbert_symbol(a, b, v)
    return prod, None if prod == 1 else "product formula fails"


WORKLOADS = {
    "suite-quick": suite_quick,
    "query-mix": query_mix,
    "int-kernels": int_kernels,
}
