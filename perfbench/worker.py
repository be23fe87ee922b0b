"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '{"workload": ..., "seed": ..., ...}'

The worker first imports every diobench module and builds the CLI parser
(the set-up a user pays on each invocation), then prints READY and the
CLOCK_MONOTONIC time, which the parent reads to time the set-up.  Unless
the spec says "setup_only", it then runs one pass and prints its result as
one JSON line.
"""

import sys
import time

if __name__ == "__main__":
    from diobench import (  # noqa: F401  (the set-up: every module)
        acceptance, cli, cyclotomic, intarith, kernels, parencode, pellpairs,
        polynomial, quadforms, reports, witness,
    )

    cli.build_parser()
    print("READY", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)

    import json  # harness imports stay out of the set-up time

    from passes import run_pass

    spec = json.loads(sys.argv[1])
    if not spec.get("setup_only"):
        result = run_pass(spec["workload"], spec["seed"],
                          traced=spec.get("traced", False),
                          tiny=spec.get("tiny", False))
        print(json.dumps(result), flush=True)
