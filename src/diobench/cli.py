"""Command-line front end.

One subcommand per workbench area plus `verify-all` for the acceptance
suite.  Reports print as text by default or JSON with --format json; exit
status is 0 exactly when no check failed ("measured" and "exhausted" never
fail a run).  WORKBENCH_BOUND, when set, is the search bound and the
witness limit of every query that reads one: it overrides an explicit
--bound or --witness-limit as well as their defaults.
"""

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache

from diobench import SelfCheckError, acceptance, cyclotomic as cyc
from diobench import parencode as pe
from diobench import quadforms as qf, witness as wit
from diobench.pellpairs import (
    check_degree_law,
    check_divisibility_law,
    pell_pair,
)
from diobench.polynomial import format_poly, parse_poly
from diobench.reports import Report

# Ceiling on |n| * deg s for `pell`: the degree of f_n.  Building eps^n is
# superlinear in it (s = t, as a process on 2 cores: 0.4 s at n = 400,
# 11 s at n = 1600).
PELL_DEGREE_MAX = 400

# Ceiling on bound * deg s for `pell --check-laws`, which builds the pairs up
# to the bound and makes bound^2 exact divisions (as a process on 2 cores:
# 0.3 s at bound 60 for s = t, 0.75 s for t/3 + 1/2; s = t took 3.5 s at 160).
PELL_LAWS_MAX = 60

# Ceiling on |d| for `defsys nonneg`, whose exp system builds eps^(2|d|) and
# its quotient by eps - (d^4 + 1), with coefficients up to (d^4 + 1)^(2|d|).
# At |d| = 228 the accepted witness (d^4 + 1)^(2|d|) passes Python's digit
# limit for str() (as a process on 2 cores: 0.37 s at d = 227 and -227; in
# process, 1.0 s at d = 500 and 12 s at d = -1000).
NONNEG_D_MAX = 227

# Ceiling on d = deg theta(n) for `par eval`: each step of the minimal-c
# search builds a degree-(2d + 2) Sturm chain (in process on 2 cores, the
# slowest n < 10^4300 tried took 1.0 s at d = 20, 3.4 s at 30, 14 s at 40).
PAR_DEGREE_MAX = 20

# Ceiling on |numerator * denominator| of `qform report`'s --a and --b, which
# it factors by trial division (in process on 2 cores, the largest prime below
# 10^12 factors in 0.03 s, below 10^14 in 0.34 s and below 10^16 in 3.4 s).
QFORM_INT_MAX = 10**12


def env_bound(default):
    """WORKBENCH_BOUND if set, else `default`; a bound must be an integer
    >= 0."""
    text = os.environ.get("WORKBENCH_BOUND")
    try:
        bound = default if text is None else int(text)
    except ValueError:
        raise ValueError(f"WORKBENCH_BOUND={text!r} is not an integer") from None
    if bound < 0:
        raise ValueError(f"bound {bound} is negative")
    return bound


def _require(args, what, *names):
    """Raise ValueError naming the options of `names` that were not given."""
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"{what} needs {', '.join(missing)}")


def _rational(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _poly(text):
    # the variable letter is case-insensitive on input
    try:
        return parse_poly(text.replace("t", "T"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _num_or_poly(text):
    try:
        return _rational(text)
    except ValueError:
        return _poly(text)


def cmd_pell(args):
    s = _poly(args.s)
    if abs(args.n) * (s.degree or 0) > PELL_DEGREE_MAX:
        raise ValueError(f"pell needs |n| * deg s <= {PELL_DEGREE_MAX}, "
                         f"got {abs(args.n)} * {s.degree}")
    report = Report("pell", inputs={"s": format_poly(s), "n": args.n})
    pair = pell_pair(s, args.n)
    report.result = {"f": format_poly(pair.f), "g": format_poly(pair.g)}
    # pell_pair raises SelfCheckError unless the pair meets the identity
    report.add("identity", True)
    if args.check_laws:
        bound = env_bound(args.bound)
        if bound < 1:
            raise ValueError(f"--check-laws needs a bound >= 1, got {bound}")
        if bound * s.degree > PELL_LAWS_MAX:
            raise ValueError(f"--check-laws needs bound * deg s <= "
                             f"{PELL_LAWS_MAX}, got {bound} * {s.degree}")
        ok = all(check_degree_law(s, n) for n in range(1, bound + 1))
        report.add("degree-law", ok, f"n <= {bound}")
        ok = all(
            check_divisibility_law(ell, n, s)
            for ell in range(1, bound + 1)
            for n in range(1, bound + 1)
        )
        report.add("divisibility-law", ok, f"l, n <= {bound}")
    return report


def cmd_defsys(args):
    bound = env_bound(args.bound)
    what = f"defsys {args.system}"
    if args.system == "constants":
        _require(args, what, "x")
        inputs = {"x": _num_or_poly(args.x)}
        rep = wit.constants_system(inputs["x"])
    elif args.system == "singlefold-int":
        _require(args, what, "c")
        inputs = {"c": _num_or_poly(args.c), "bound": bound}
        rep = wit.singlefold_int(inputs["c"], bound=bound)
    elif args.system == "exp":
        _require(args, what, "base", "result", "exp")
        inputs = {"base": args.base, "result": args.result, "exp": args.exp,
                  "bound": bound}
        rep = wit.exp_system(args.base, args.result, args.exp, bound=bound)
    elif args.system == "odd-int":
        if args.r is not None:
            inputs = {"r": args.r, "bound": bound}
            rep = wit.odd_integer_system(r=args.r, bound=bound)
        else:
            _require(args, f"{what} without --r", "a")
            inputs = {"a": _num_or_poly(args.a), "bound": bound}
            rep = wit.odd_integer_refute(inputs["a"], bound=bound)
    elif args.system == "nonneg":
        _require(args, what, "d")
        if abs(args.d) > NONNEG_D_MAX:
            raise ValueError(f"nonneg needs |d| <= {NONNEG_D_MAX}, "
                             f"got {args.d}")
        inputs = {"d": args.d}
        rep = wit.nonneg_gadget(args.d)
    report = Report(what, inputs=inputs, result=rep.to_dict())
    status = "measured" if rep.system == "nonneg" else (
        rep.verdict in ("accepted", "refuted", "refuted-to-bound")
    )
    report.add("verdict", status, rep.verdict)
    return report


def cmd_cyclo(args):
    what = f"cyclo {args.op}"
    report = Report(what)
    if args.op == "phi":
        _require(args, what, "n")
        report.inputs["n"] = args.n
        report.result = format_poly(cyc.cyclotomic(args.n))
        report.add("computed", True)
    elif args.op == "special":
        _require(args, what, "n")
        report.inputs["n"] = args.n
        sf = cyc.special_form(args.n)
        if sf is None:
            report.result = "not special-form"
            report.add("special-form", False)
        else:
            d, s = cyc.congruence_profile(args.n)
            report.result = {"p": sf.p, "m": sf.m, "d": d, "s": s}
            report.add("special-form", True)
    elif args.op == "forweak":
        _require(args, what, "poly")
        F = _poly(args.poly)
        report.inputs = {"F": format_poly(F), "d": args.d}
        spec = cyc.forweak_approx(F, args.d)
        report.result = spec.to_dict()
        report.add("congruent-mod-T^d", True,
                   f"{len(spec.indices)} special factors")
    elif args.op == "approx":
        _require(args, what, "indices")
        pairs = [tuple(map(int, part.split(":")))
                 for part in args.indices.split(",")]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"indices {args.indices!r} are not p:m pairs")
        report.inputs["indices"] = args.indices
        point = cyc.approx_point(pairs)
        report.result = point.to_dict()
        for rec in point.records:
            name = f"ord_{rec['p']}(Phi_{rec['n']}(c))"
            if rec["asserted"]:
                report.add(name, rec["measured"] == rec["target"],
                           f"= {rec['measured']}")
            else:
                report.add(name, "measured",
                           f"measured {rec['measured']}, "
                           f"target {rec['target']}")
    elif args.op == "appendix":
        rep = cyc.appendix_checks()
        report.add("value-at-one-and-divisibility", rep["pass"])
        report.add("pdivides-exponents", "measured", rep["pdivides"])
        if rep["clause2_counterexamples"]:
            report.add("divisibility-clause-2", "measured",
                       rep["clause2_counterexamples"])
    return report


def cmd_qform(args):
    what = f"qform {args.op}"
    report = Report(what)
    if args.op == "report":
        _require(args, what, "a", "b")
        report.inputs = {"a": args.a, "b": args.b}
        a, b = _rational(args.a), _rational(args.b)
        if max(abs(x.numerator * x.denominator) for x in (a, b)) > (
                QFORM_INT_MAX):
            raise ValueError(f"qform report needs |numerator * denominator| "
                             f"<= {QFORM_INT_MAX} for --a and --b")
        diag = qf.anisotropy_report(a, b)
        report.result = diag.to_dict()
        report.add("reciprocity", math.prod(diag.symbols.values()) == 1)
        report.add("isotropic-everywhere", "measured",
                   diag.globally_isotropic)
    elif args.op == "eisenstein":
        _require(args, what, "poly", "p")
        f = _poly(args.poly)
        report.inputs = {"f": format_poly(f), "p": args.p}
        cert = qf.eisenstein_certify(f, args.p)
        report.result = cert.to_dict()
        report.add("certificate", cert.verdict)
    elif args.op == "xi":
        _require(args, what, "f")
        f = _poly(args.f)
        report.inputs["f"] = format_poly(f)
        if args.real:
            xi, h = qf.real_xi_construct(f)
            report.result = {"xi1": str(xi.xi1), "xi3": str(xi.xi3),
                             "h": format_poly(h)}
            report.add("positive-definite", True, "Sturm count 0")
        else:
            _require(args, f"{what} without --real", "p")
            report.inputs["p"] = args.p
            xi, h, cert = qf.padic_xi_construct(f, args.p)
            report.result = {"xi1": str(xi.xi1), "xi3": str(xi.xi3),
                             "h": format_poly(h), "cert": cert.to_dict()}
            report.add("eisenstein-certificate", cert.verdict)
    elif args.op == "gate":
        _require(args, what, "g")
        g = _poly(args.g)
        if g.is_zero():
            raise ValueError("qform gate needs a nonzero --g")
        report.inputs["g"] = format_poly(g)
        out = qf.even_order_gate(g)
        report.result = {"ord_g": str(out["ord_g"]),
                         "ord_h": str(out["ord_h"])}
        report.add("parity-biconditional", out["pass"])
    return report


def cmd_par(args):
    what = f"par {args.op}"
    report = Report(what)
    if args.op == "theta":
        if args.n is not None:
            report.inputs["n"] = args.n
            P = pe.theta(args.n)
            report.result = format_poly(P)
            report.add("round-trip", pe.theta_inverse(P) == args.n)
        else:
            _require(args, f"{what} without --n", "poly")
            P = _poly(args.poly)
            report.inputs["poly"] = format_poly(P)
            n = pe.theta_inverse(P)
            report.result = n
            report.add("round-trip", pe.theta(n) == P)
    elif args.op == "eval":
        _require(args, what, "n")
        report.inputs["n"] = args.n
        d = pe.theta(args.n).degree or 0
        if d > PAR_DEGREE_MAX:
            raise ValueError(f"par eval needs deg theta(n) <= "
                             f"{PAR_DEGREE_MAX}, got {d}")
        t = pe.make_par_tuple(args.n)
        verdict = pe.par_eval(t)
        report.result = {"tuple": t.to_dict(),
                         "conditions": verdict["conditions"]}
        report.add("accepted", verdict["verdict"] == "accepted")
    elif args.op == "five-squares":
        _require(args, what, "poly")
        F = _poly(args.poly)
        report.inputs["F"] = format_poly(F)
        limit = env_bound(args.witness_limit)
        res = pe.five_squares_search(F, witness_limit=limit)
        stop = (f"stopped at the budget of "
                f"{pe.FIVE_SQUARES_CANDIDATES_MAX} candidates")
        if res["status"] == "found":
            report.result = {
                "g": res["g"],
                "parts": [format_poly(p) for p in res["parts"]],
                "count": res["count"],
            }
            report.add("decomposition", True,
                       f"{stop}, so the count is a lower bound"
                       if res["exhausted"] and res["count"] < limit else None)
        else:
            report.result = res["status"]
            # a g_max below the search's own is where it stopped
            report.add("decomposition",
                       "exhausted" if res["status"] == "exhausted" else False,
                       f"{stop}; g <= {res['g_max']} searched in full"
                       if res.get("g_max", pe.FIVE_SQUARES_G_MAX)
                       < pe.FIVE_SQUARES_G_MAX else res["status"])
    return report


def cmd_verify_all(args):
    return acceptance.run_suite(profile=args.profile, seed=args.seed)


@lru_cache(maxsize=1)
def build_parser():
    """The CLI parser, built once; each parse_args call gets a fresh
    namespace."""
    ap = argparse.ArgumentParser(
        prog="diobench",
        description="exact-arithmetic Diophantine definability workbench",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pell", help="Pell pairs and their laws")
    p.add_argument("--s", required=True, help="Pell parameter, e.g. 't'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-laws", action="store_true")
    p.add_argument("--bound", type=int, default=20)
    p.set_defaults(fn=cmd_pell)

    p = sub.add_parser("defsys", help="witness systems")
    p.add_argument("system", choices=(
        "constants", "singlefold-int", "exp", "odd-int", "nonneg"))
    p.add_argument("--x", help="constants: element to test")
    p.add_argument("--c", help="singlefold-int: constant to test")
    p.add_argument("--base", type=int)
    p.add_argument("--result", type=int)
    p.add_argument("--exp", type=int)
    p.add_argument("--r", type=int, help="odd-int: constructor input")
    p.add_argument("--a", help="odd-int: checker input")
    p.add_argument("--d", type=int, help="nonneg: integer to test")
    p.add_argument("--bound", type=int, default=50)
    p.set_defaults(fn=cmd_defsys)

    p = sub.add_parser("cyclo", help="cyclotomic machinery")
    p.add_argument("op", choices=(
        "phi", "special", "forweak", "approx", "appendix"))
    p.add_argument("--n", type=int)
    p.add_argument("--poly")
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--indices", help="p:m pairs, e.g. 3:2,5:1")
    p.set_defaults(fn=cmd_cyclo)

    p = sub.add_parser("qform", help="quadratic form local analysis")
    p.add_argument("op", choices=("report", "eisenstein", "xi", "gate"))
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--poly")
    p.add_argument("--p", type=int)
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--real", action="store_true")
    p.set_defaults(fn=cmd_qform)

    p = sub.add_parser("par", help="theta indexing and the Par relation")
    p.add_argument("op", choices=("theta", "eval", "five-squares"))
    p.add_argument("--n", type=int)
    p.add_argument("--poly")
    p.add_argument("--witness-limit", type=int, default=50)
    p.set_defaults(fn=cmd_par)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--profile", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if [] in vars(args).values():  # argparse reads --opt=-- as []
        ap.error("an option needs a value other than '--'")
    t0 = time.time()
    # rendered in the try: str() of an int past Python's limit is a ValueError
    try:
        try:
            report = args.fn(args)
        except SelfCheckError as e:
            report = Report(args.command).add("self-check", False, str(e))
        report.elapsed = time.time() - t0
        text = report.to_json() if args.format == "json" else report.to_text()
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
