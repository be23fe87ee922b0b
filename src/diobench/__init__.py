"""diobench: exact-arithmetic workbench for Diophantine definability checks.

Everything runs over exact rationals (stdlib fractions); no floats enter any
verdict.
"""

__version__ = "0.1.0"


class SelfCheckError(Exception):
    """A result failed the cross-check its construction makes of it.

    Raised instead of `assert`, so that `python -O` keeps the check; a
    criterion reports it as `fail` and the CLI as a failed check (exit 1).
    """
