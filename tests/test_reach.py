"""Every function in src/diobench is reached by the CLI's own traffic.

A fresh interpreter (so every cache starts cold) runs `verify-all --profile
quick`, `cyclo appendix`, the golden CLI queries, one query per subcommand
and one text-format query under `sys.setprofile`, and records the code
objects it enters.  A `def` that none of them enters is code only its unit
tests reach: give it a route from the CLI or delete it.  The few kept
anyway are listed in UNREACHED_ALLOWED with the reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import diobench
from test_reports_cli import CLI_QUERIES, SUBCOMMAND_ARGVS

PACKAGE = Path(diobench.__file__).parent

UNREACHED_ALLOWED = {
    ("polynomial.py", "Poly.__bool__"): "without it a zero polynomial is truthy",
    ("polynomial.py", "Poly.__hash__"):
        "Poly overrides __eq__, so without __hash__ it is unhashable",
    ("polynomial.py", "Poly.__repr__"): "debugging",
    ("polynomial.py", "QuadExt.__repr__"): "debugging",
    ("polynomial.py", "QuadExt.__eq__"): "tests compare QuadExt values with it",
    ("witness.py", "DeskInstantiation.__new__"):
        "runs at import, before the profiler is on",
}

# Defs deleted because a better algorithm replaced them, or because a check
# where the value is built makes them redundant; they stay gone.
DELETED = {
    ("cyclotomic.py", "_trunc_inv_one_minus"):
        "a dense series product; cyclotomic_mod divides by 1 - T^d in one "
        "pass",
    ("polynomial.py", "QuadExt.__pow__"):
        "eps^n is the Pell pair (f_n, g_n), built by its recurrence",
    ("polynomial.py", "factor_small"):
        "c11's irreducibility test finds a monic integer factor directly "
        "(Gauss's lemma)",
    ("polynomial.py", "rational_roots"): "as factor_small",
    ("polynomial.py", "_fraction_sqrt"): "as factor_small",
    ("pellpairs.py", "PellPair.verify"):
        "_pell_cached checks the Pell identity once, where it builds the pair",
    ("cyclotomic.py", "CycloProductSpec.__post_init__"):
        "forweak_approx checks its indices distinct where it builds them",
    ("polynomial.py", "Poly.monic"):
        "gcds and square-free factors are primitive in Z[T] (Gauss's lemma)",
    ("witness.py", "DeskInstantiation.eps"):
        "eps is built once per a, by witness._eps",
    ("parencode.py", "_zigzag_decode"):
        "theta decodes each code in place, with shifts",
    ("parencode.py", "_zigzag_encode"):
        "theta_inverse shifts by each coefficient's run length directly",
    ("acceptance.py", "_coprime_components"):
        "m | p - 1 in each (p, m), so one gcd of the products p*m and q*n "
        "decides pairwise coprimality",
    ("cyclotomic.py", "_trunc_mul"):
        "a one-line wrapper over (a * b).truncate(B), inlined at its callers",
    ("parencode.py", "chebyshev_Y"):
        "a one-line wrapper over pell_pair(T, n); _par_core calls that, and "
        "reconstruct_check reads Y from the Par core",
    ("cyclotomic.py", "_next_prime_cong"):
        "restarted its walk for every index; find_special_congruent walks "
        "p = 1 + k*step once per call",
    ("polynomial.py", "squarefree_decomposition"):
        "Pos counts roots down the gcd tower",
    ("polynomial.py", "resultant_fp"):
        "one integer resultant answers p | Res for every p",
    ("polynomial.py", "poly_mod_p"): "as resultant_fp",
    ("cyclotomic.py", "_cyclotomic_mod_p"): "as resultant_fp",
    ("witness.py", "_q_ladder"):
        "by Taylor's formula at 1, (eps - 1) | (q_n -+ c) exactly when "
        "n = +-c, so singlefold_int reads n off c",
    ("witness.py", "_exp_b_relation"):
        "by Taylor's formula at b, (eps - b) | (eps^n + k) exactly when "
        "k = -b^n; witness._x builds the quotient by one exact division",
    ("witness.py", "_exp_d_relation"):
        "by Taylor's formula at 1, n = |d| and s2 = -sgn d; witness._y "
        "builds the quotient by one exact division",
    ("polynomial.py", "QuadExt.residue"):
        "the eps-relations are decided by Taylor's formula, and "
        "QuadExt.exact_div checks each quotient",
    ("polynomial.py", "QuadExt.divides"): "as QuadExt.residue",
    ("intarith.py", "xgcd"): "crt takes its inverse from pow(m, -1, n)",
}

# Runs in the child: read argv lists from stdin, run each through cli.main
# with output discarded, print the (file, first line) of every code object
# in the package that was entered.
_CHILD = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
from diobench import cli

root = os.path.dirname(cli.__file__) + os.sep
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

argvs = json.load(sys.stdin)
sys.setprofile(profile)
for argv in argvs:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(
    (code.co_filename[len(root):], code.co_firstlineno)
    for code in entered if code.co_filename.startswith(root))))
"""


def _traffic():
    argvs = [["--format", "json", "verify-all", "--profile", "quick"],
             ["--format", "json", "cyclo", "appendix"],
             ["--format", "text", "defsys", "nonneg", "--d", "4"]]
    argvs += [["--format", "json"] + q.split() for q in CLI_QUERIES]
    argvs += [["--format", "json"] + argv for argv in SUBCOMMAND_ARGVS]
    return argvs


def _defs():
    """Map (file, first line) of every def in the package to its qualified
    name: methods as Class.f, nested functions as f.<locals>.g.  A code
    object's first line is that of its first decorator, if any."""
    out = {}

    def walk(node, prefix, fname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                out[fname, first] = (fname, prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.", fname)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", fname)
            else:
                walk(child, prefix, fname)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path.name)
    return out


def test_every_def_is_reached_from_the_cli():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("WORKBENCH_BOUND", None)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(_traffic()),
        capture_output=True, text=True, env=env, check=True)
    reached = {tuple(e) for e in json.loads(child.stdout)}
    unreached = {name for key, name in _defs().items() if key not in reached}
    extra = sorted(unreached - UNREACHED_ALLOWED.keys())
    assert not extra, (
        f"reached only by unit tests, route from the CLI or delete: {extra}")
    # the allow-list names only defs that exist and are still unreached
    stale = sorted(UNREACHED_ALLOWED.keys() - unreached)
    assert not stale, f"allowed but reached or gone: {stale}"


def test_deleted_defs_stay_gone():
    back = sorted(DELETED.keys() & set(_defs().values()))
    assert not back, f"deleted defs are back: {back}"


def test_nothing_is_asserted():
    """python -O drops asserts, so a check that backs a verdict raises
    SelfCheckError instead, and the package holds no assert."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        src = path.read_text()
        found += [(path.name, ast.get_source_segment(src, node))
                  for node in ast.walk(ast.parse(src))
                  if isinstance(node, ast.Assert)]
    assert found == [], found
