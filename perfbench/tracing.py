"""Tracing from outside the program: wrappers installed around diobench's
public functions, turned into the per-layer metrics.

Boundaries above `polynomial` record spans (request, id, parent id, name,
start, end, self time).  The hot `Poly` operations keep aggregated counts
and times instead, so a traced pass stays in memory.  Every wrapped call
charges its duration to the innermost enclosing wrapped call, which gives
each name a self time.
"""

import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

CRITERIA = (
    "pell_laws", "singlefold_z", "exp_grid", "odd_integers", "nonneg_set",
    "cyclo_base", "forweak_random", "approx_points", "appendix_lemmas",
    "hilbert_grid", "xi_constructors", "theta_par", "four_squares_range",
)

# (diobench module, function, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("parencode", "five_squares_search", "parencode.five_squares_search"),
    ("parencode", "pos_check", "parencode.pos_check"),
    ("pellpairs", "pell_pair", "pellpairs.pell_pair"),
    ("cyclotomic", "cyclotomic", "cyclotomic.cyclotomic"),
    ("cyclotomic", "approx_point", "cyclotomic.approx_point"),
    ("witness", "singlefold_int", "witness.singlefold_int"),
    ("witness", "exp_system", "witness.exp_system"),
    ("witness", "odd_integer_system", "witness.odd_integer"),
    ("witness", "odd_integer_refute", "witness.odd_integer"),
    ("quadforms", "hilbert_symbol", "quadforms.hilbert_symbol"),
    ("quadforms", "local_solubility_oracle", "quadforms.oracle"),
    ("kernels", "mod_scan_soluble", "kernels.mod_scan_soluble"),
    ("intarith", "four_squares", "intarith.four_squares"),
) + tuple(("acceptance", f, f"acceptance.c{i:02d}") for i, f in enumerate(CRITERIA, 1))

# aggregated: (diobench module, function, name)
AGGREGATES = (
    ("polynomial", "poly_gcd", "polynomial.gcd_res_sturm"),
    ("polynomial", "resultant", "polynomial.gcd_res_sturm"),
    ("polynomial", "sturm_chain", "polynomial.gcd_res_sturm"),
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("polynomial.divmod.calls", "count"),
    ("polynomial.divmod.self_s", "s"),
    ("polynomial.divmod.nonunit_lead_share", "ratio"),
    ("polynomial.divmod.fraction_share", "ratio"),
    ("polynomial.mul.calls", "count"),
    ("polynomial.mul.self_s", "s"),
    ("polynomial.gcd_res_sturm.self_s", "s"),
    ("parencode.five_squares_search.calls", "count"),
    ("parencode.five_squares_search.distinct_targets", "count"),
    ("parencode.five_squares_search.self_s", "s"),
    ("parencode.pos_check.self_s", "s"),
    ("pellpairs.pell_pair.calls", "count"),
    ("pellpairs.pell_pair.distinct_share", "ratio"),
    ("pellpairs.pell_pair.self_s", "s"),
    ("cyclotomic.cyclotomic.calls", "count"),
    ("cyclotomic.cyclotomic.hit_ratio", "ratio"),
    ("cyclotomic.cyclotomic.self_s", "s"),
    ("cyclotomic.approx_point.self_s", "s"),
    ("witness.singlefold_int.self_s", "s"),
    ("witness.exp_system.self_s", "s"),
    ("witness.odd_integer.self_s", "s"),
    ("quadforms.oracle.calls", "count"),
    ("quadforms.oracle.scans", "count"),
    ("quadforms.hilbert_symbol.self_s", "s"),
    ("kernels.mod_scan_soluble.calls", "count"),
    ("kernels.mod_scan_soluble.busy_s", "s"),
    ("intarith.four_squares.calls", "count"),
    ("intarith.four_squares.busy_s", "s"),
) + tuple((f"acceptance.c{i:02d}_s", "s") for i in range(1, 14)) + (
    ("cli.main.self_s", "s"),
    ("reports.to_json.busy_s", "s"),
    ("trace.overhead_s", "s"),
)

# counters that must not read 0 on the workload they should dominate
MUST_MOVE = {
    "suite-quick": ["polynomial.divmod.calls", "polynomial.mul.calls",
                    "parencode.five_squares_search.calls",
                    "pellpairs.pell_pair.calls", "cyclotomic.cyclotomic.calls"]
    + [f"acceptance.c{i:02d}_s" for i in range(1, 14)],
    "query-mix": ["cli.main.self_s", "reports.to_json.busy_s",
                  "polynomial.divmod.calls", "cyclotomic.cyclotomic.calls"],
    "int-kernels": ["quadforms.oracle.calls", "kernels.mod_scan_soluble.calls",
                    "intarith.four_squares.calls"],
}


SPAN_FIELDS = ("request", "id", "parent", "name", "start", "end", "self")


class Tracer:
    def __init__(self):
        self.spans = []          # tuples laid out as SPAN_FIELDS
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.request = 0         # index of the operation being run
        self._child = [0.0]      # time covered by wrapped children, per frame
        self._span_ids = [None]  # enclosing span per frame
        self.pell_keys = set()
        self.square_targets = set()
        self.divmod_nonunit = 0
        self.divmod_fraction = 0

    def _timed(self, fn, args, kwargs, name, cell):
        """Run fn, recording a span named `name`, or adding to `cell`."""
        parent = self._span_ids[-1]
        span_id = len(self.spans)
        if cell is None:
            self.spans.append(None)  # reserve the id; filled in below
        self._child.append(0.0)
        self._span_ids.append(parent if cell is not None else span_id)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._span_ids.pop()
            own = t1 - t0 - self._child.pop()
            self._child[-1] += t1 - t0
            if cell is None:
                self.spans[span_id] = (self.request, span_id, parent, name,
                                       t0, t1, own)
            else:
                cell[0] += 1
                cell[1] += t1 - t0
                cell[2] += own

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._timed(fn, args, kwargs, name, None)
        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, name, fn):
        cell = self.agg[name]

        def wrapper(*args, **kwargs):
            return self._timed(fn, args, kwargs, name, cell)
        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(old, new):
    """Point every diobench module global bound to `old` at `new`, so names
    bound by `from ... import` are patched too."""
    for name, mod in list(sys.modules.items()):
        if name == "diobench" or name.startswith("diobench."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer):
    """Wrap the traced boundaries; returns a function giving the metrics."""
    def module(name):
        return importlib.import_module(f"diobench.{name}")

    cyclotomic, parencode, pellpairs = (
        module("cyclotomic"), module("parencode"), module("pellpairs"))
    reports = module("reports")
    Poly = module("polynomial").Poly
    cyclo_cache = cyclotomic.cyclotomic
    pell = pellpairs.pell_pair
    search = parencode.five_squares_search

    def pell_keyed(s, n):
        tracer.pell_keys.add((s.coeffs if isinstance(s, Poly) else s, n))
        return pell(s, n)

    def search_keyed(F, *args, **kwargs):
        tracer.square_targets.add(Poly.coerce(F).coeffs)
        return search(F, *args, **kwargs)

    keyed = {pell: pell_keyed, search: search_keyed}
    for mod, fn_name, name in SPANS:
        fn = getattr(module(mod), fn_name)
        _rebind(fn, tracer.span(name, keyed.get(fn, fn)))
    for mod, fn_name, name in AGGREGATES:
        fn = getattr(module(mod), fn_name)
        _rebind(fn, tracer.aggregate(name, fn))

    mul = tracer.aggregate("polynomial.mul", Poly.__mul__)
    Poly.__mul__ = Poly.__rmul__ = mul
    divmod_timed = tracer.aggregate("polynomial.divmod", Poly.__divmod__)

    def divmod_classified(self, other):
        o = Poly.coerce(other)
        if o.coeffs and o.coeffs[-1] not in (1, -1):
            tracer.divmod_nonunit += 1
        if any(isinstance(c, Fraction) for c in self.coeffs + o.coeffs):
            tracer.divmod_fraction += 1
        return divmod_timed(self, other)

    Poly.__divmod__ = divmod_classified
    reports.Report.to_json = tracer.aggregate("reports.to_json",
                                              reports.Report.to_json)

    def metrics():
        info = cyclo_cache.cache_info()
        return layer_metrics(tracer, info.hits, info.misses)
    return metrics


def layer_metrics(tracer, cyclo_hits, cyclo_misses):
    calls = defaultdict(int)
    self_s = defaultdict(float)
    busy = defaultdict(float)
    for _, _, _, name, t0, t1, own in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        busy[name] += t1 - t0
    agg = tracer.agg

    def share(part, whole):
        return part / whole if whole else 0.0

    n_div = agg["polynomial.divmod"][0]
    n_pell = calls["pellpairs.pell_pair"]
    out = {
        "polynomial.divmod.calls": n_div,
        "polynomial.divmod.self_s": agg["polynomial.divmod"][2],
        "polynomial.divmod.nonunit_lead_share": share(tracer.divmod_nonunit, n_div),
        "polynomial.divmod.fraction_share": share(tracer.divmod_fraction, n_div),
        "polynomial.mul.calls": agg["polynomial.mul"][0],
        "polynomial.mul.self_s": agg["polynomial.mul"][2],
        "polynomial.gcd_res_sturm.self_s": agg["polynomial.gcd_res_sturm"][2],
        "parencode.five_squares_search.calls": calls["parencode.five_squares_search"],
        "parencode.five_squares_search.distinct_targets": len(tracer.square_targets),
        "parencode.five_squares_search.self_s": self_s["parencode.five_squares_search"],
        "parencode.pos_check.self_s": self_s["parencode.pos_check"],
        "pellpairs.pell_pair.calls": n_pell,
        "pellpairs.pell_pair.distinct_share": share(len(tracer.pell_keys), n_pell),
        "pellpairs.pell_pair.self_s": self_s["pellpairs.pell_pair"],
        "cyclotomic.cyclotomic.calls": cyclo_hits + cyclo_misses,
        "cyclotomic.cyclotomic.hit_ratio": share(cyclo_hits, cyclo_hits + cyclo_misses),
        "cyclotomic.cyclotomic.self_s": self_s["cyclotomic.cyclotomic"],
        "cyclotomic.approx_point.self_s": self_s["cyclotomic.approx_point"],
        "witness.singlefold_int.self_s": self_s["witness.singlefold_int"],
        "witness.exp_system.self_s": self_s["witness.exp_system"],
        "witness.odd_integer.self_s": self_s["witness.odd_integer"],
        "quadforms.oracle.calls": calls["quadforms.oracle"],
        "quadforms.oracle.scans": calls["kernels.mod_scan_soluble"],
        "quadforms.hilbert_symbol.self_s": self_s["quadforms.hilbert_symbol"],
        "kernels.mod_scan_soluble.calls": calls["kernels.mod_scan_soluble"],
        "kernels.mod_scan_soluble.busy_s": busy["kernels.mod_scan_soluble"],
        "intarith.four_squares.calls": calls["intarith.four_squares"],
        "intarith.four_squares.busy_s": busy["intarith.four_squares"],
        "cli.main.self_s": self_s["cli.main"],
        "reports.to_json.busy_s": agg["reports.to_json"][1],
    }
    for i in range(1, 14):
        out[f"acceptance.c{i:02d}_s"] = busy[f"acceptance.c{i:02d}"]
    return out
