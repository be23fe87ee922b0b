"""diobench: exact-arithmetic workbench for Diophantine definability checks.

Everything runs over exact rationals (stdlib fractions); no floats enter any
verdict.
"""

__version__ = "0.1.0"
