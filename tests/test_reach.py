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
    ("polynomial.py", "Poly.__repr__"): "debugging",
    ("polynomial.py", "QuadExt.__repr__"): "debugging",
    ("polynomial.py", "QuadExt.__eq__"): "tests compare QuadExt values with it",
    ("witness.py", "DeskInstantiation.__post_init__"):
        "runs at import, before the profiler is on",
    ("polynomial.py", "_fraction_sqrt"):
        "the equal-constant branch of factor_small, e.g. T^4 + 4",
}

# Defs deleted because a better algorithm replaced them; they stay gone.
DELETED = {
    ("cyclotomic.py", "_trunc_inv_one_minus"):
        "a dense series product; cyclotomic_mod divides by 1 - T^d in one "
        "pass",
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
