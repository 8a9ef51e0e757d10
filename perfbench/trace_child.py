"""Run one benchmark operation with the symsyz layers traced.

    PYTHONPATH=src python3 perfbench/trace_child.py cli resolve --n 9 --k 2 --r 9 --format json
    PYTHONPATH=src python3 perfbench/trace_child.py gencount 6 2

The operation prints what it prints untraced. The public functions named in
WRAPPED are replaced, in every symsyz module that holds them, by wrappers
that count calls and time them; a call's self time is its duration minus
the duration of the wrapped calls made inside it. When the operation ends,
the counts go to stderr as one line starting with TRACE_PREFIX.
"""

import sys
import time

_import_start = time.perf_counter()
import symsyz.cli  # noqa: E402  (timed: this is the import every CLI call pays)
IMPORT_S = time.perf_counter() - _import_start

import json  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

TRACE_PREFIX = "perfbench-trace "

WRAPPED = {
    "partitions": ("schur_dim", "weyl_dim", "from_hooks", "check_partition",
                   "conjugate", "enumerate_Q", "exterior_of_sym2"),
    "bott": ("bott", "bundle_cohomology"),
    "resolution": ("jpw_closed_form", "jpw_by_degree_scan", "enlarged_space_table",
                   "assemble", "consistency_check", "minor_generators"),
    "polynomials": ("poly_det", "span_rank_and_basis"),
    "exactmat": ("mat_mul", "inverse", "det_bareiss"),
    "geometry": ("is_symplectic", "plucker_restriction", "cell_matrix",
                 "opposite_cell_factor", "opposite_cell_pattern"),
    "weyl": ("w_tilde_min_rep", "avoids_patterns", "tangent_dim_at_id_C"),
    "verify": ("plucker_suite", "factorization_suite", "product_suite",
               "weyl_suite", "betti_suite"),
}


class Tracer:
    """Call counts, total and self seconds per wrapped function, plus the
    work counters observed at the same boundaries."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.stack = []  # [name, seconds spent in wrapped children]

    def wrap(self, name, fn, observe):
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def parent(self):
        return self.stack[-1][0] if self.stack else None

    def report(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}


def _observe_bott(tracer, args, answer):
    if answer.zero:
        tracer.counts["bott.bott.zero_calls"] += 1
    else:
        tracer.counts["bott.exchange_steps"] += answer.degree


def _observe_enumerate_Q(tracer, args, found):
    if tracer.parent() == "partitions.exterior_of_sym2":
        tracer.counts["exterior_of_sym2.enumerated"] += len(found)


def _observe_exterior(tracer, args, summands):
    if args[0] > 0:  # degree 0 is answered without enumerating
        tracer.counts["exterior_of_sym2.kept"] += len(summands)


def _observe_span(tracer, args, result):
    tracer.counts["span_rank_and_basis.offered"] += len(args[0])
    tracer.counts["span_rank_and_basis.kept"] += len(result[1])


def _observe_table(tracer, args, table):
    tracer.counts["resolution.table_terms"] += sum(len(v) for v in table.provenance.values())


OBSERVERS = {
    "bott.bott": _observe_bott,
    "partitions.enumerate_Q": _observe_enumerate_Q,
    "partitions.exterior_of_sym2": _observe_exterior,
    "polynomials.span_rank_and_basis": _observe_span,
    "resolution.jpw_closed_form": _observe_table,
    "resolution.jpw_by_degree_scan": _observe_table,
    "resolution.enlarged_space_table": _observe_table,
}


def install(tracer: Tracer) -> None:
    """Replace each function in WRAPPED wherever a symsyz module binds it,
    so that calls through `from .x import f` names are traced too."""
    replacement = {}
    for module, names in WRAPPED.items():
        namespace = vars(sys.modules[f"symsyz.{module}"])
        for name in names:
            key = f"{module}.{name}"
            replacement[id(namespace[name])] = tracer.wrap(key, namespace[name], OBSERVERS.get(key))
    for module_name, module in list(sys.modules.items()):
        if module_name == "symsyz" or module_name.startswith("symsyz."):
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in replacement:
                    namespace[attr] = replacement[id(value)]


def main(argv: list[str]) -> int:
    kind, args = argv[0], argv[1:]
    tracer = Tracer()
    enumerate_q = symsyz.partitions.enumerate_Q
    install(tracer)
    try:
        if kind == "cli":
            code = symsyz.cli.main(args)
        elif kind == "gencount":
            import gencount  # imported after install, so its names are traced
            code = gencount.main(args)
        else:
            raise SystemExit(f"unknown operation kind {kind!r}")
        sys.stdout.flush()
    finally:
        report = tracer.report()
        report["counts"]["partitions.enumerate_Q.cache_hits"] = enumerate_q.cache_info().hits
        report["import_s"] = IMPORT_S
        print(TRACE_PREFIX + json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
