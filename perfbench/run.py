"""End-to-end and per-layer benchmark for symsyz.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ./src. Each
operation is a fresh process, so the program starts cold, as a user's CLI
call does; perfbench/measure.py starts them one at a time (a closed loop with
one client). A round is the workload's whole list of operations; rounds
repeat while another one fits in --seconds, and the end-to-end metrics are
taken from each operation's median over the rounds. With --trace 1 every
round is run twice, untraced and then traced through perfbench/trace_child.py,
and the per-layer metrics come from the traced rounds. Before printing, the
outputs of the first round are checked against perfbench/checks.py, and every
later round must print the same bytes. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The spines fix the costly instances, so that a round costs nearly the same
# whatever the seed; the seed draws the cheap instances and the order.
CLOSED_FORM = [(14, 1), (15, 3), (13, 1), (14, 3), (12, 1), (13, 3), (15, 5)]
ENLARGED = [(9, 2), (10, 2), (11, 2), (10, 4)]
TRUNCATED = [(14, 1, 48), (14, 1, 30), (15, 1, 44), (15, 3, 48), (13, 1, 40),
             (12, 2, 40), (11, 2, 40), (13, 2, 36), (13, 4, 36)]
GENCOUNT = [(6, 2), (6, 3), (6, 4), (7, 2)]
VERIFY_RUNS = 3  # the seed moves one run's cost by about 7%; three seeds average it


@dataclass(frozen=True)
class Op:
    kind: str  # "cli" or "gencount"
    args: tuple[str, ...]
    n: int | None = None
    k: int | None = None
    max_t: int | None = None

    def command(self, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "trace_child.py"), self.kind, *self.args]
        if self.kind == "cli":
            return [sys.executable, "-m", "symsyz.cli", *self.args]
        return [sys.executable, str(HERE / "gencount.py"), *self.args]


def resolve_op(n: int, k: int, max_t: int | None = None) -> Op:
    args = ("resolve", "--n", str(n), "--k", str(k), "--r", str(n), "--format", "json")
    if max_t is not None:
        args += ("--max-t", str(max_t))
    return Op("cli", args, n, k, max_t)


def top_degree(n: int, k: int) -> int:
    """Largest internal degree of the closed form: the s largest arms of
    [k-1, n-1], s the largest even number <= n - k + 1, give
    t = sum(arms) + s (2 - k) / 2."""
    s = (n - k + 1) // 2 * 2
    return sum(range(n - s, n)) + s * (2 - k) // 2


def closed_form(rng: random.Random) -> list[Op]:
    pool = [(n, k) for n in range(6, 11) for k in range(1, n, 2)]
    return [resolve_op(n, k) for n, k in CLOSED_FORM + rng.sample(pool, 4)]


def enlarged(rng: random.Random) -> list[Op]:
    pool = [(n, k) for n in range(5, 8) for k in range(2, n, 2)]
    return [resolve_op(n, k) for n, k in ENLARGED + rng.sample(pool, 2)]


def truncated(rng: random.Random) -> list[Op]:
    pool = [(n, k) for n in range(6, 9) for k in range(1, n)]
    small = [(n, k, rng.randrange(1, top_degree(n, k))) for n, k in rng.sample(pool, 4)]
    return [resolve_op(n, k, t) for n, k, t in TRUNCATED + small]


def verify(rng: random.Random) -> list[Op]:
    runs = [Op("cli", ("verify", "--fast", "--seed", str(rng.randrange(10**6))))
            for _ in range(VERIFY_RUNS)]
    return runs + [Op("gencount", (str(n), str(k)), n, k) for n, k in GENCOUNT]


WORKLOADS = {"closed-form": closed_form, "enlarged": enlarged,
             "truncated": truncated, "verify": verify}


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Running operations


def measure(ops: list[Op], seconds: float, traced: bool) -> dict:
    """Rounds of `ops` run by perfbench/measure.py; see its docstring."""
    job = {
        "plain": [op.command(False) for op in ops],
        "traced": [op.command(True) for op in ops] if traced else None,
        "seconds": seconds,
        "env": dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0"),
        "cwd": str(ROOT),
    }
    proc = subprocess.run([sys.executable, str(HERE / "measure.py")], input=json.dumps(job),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Correctness


def check_outputs(ops: list[Op], rounds: list[list[dict]]) -> list[str]:
    """Check the first round's outputs; every later round (traced rounds
    included) must print the same bytes for the same operation."""
    problems = []
    first = rounds[0]
    verify_work = dict.fromkeys(checks.COUNTED, 0)
    verify_runs = 0
    for op, result in zip(ops, first):
        if result["code"] != 0:
            continue  # counted in `failed`
        text = result["stdout"]
        try:
            if op.args[0] == "verify":
                work, found = checks.verify_problems(text)
                problems += found
                for suite, count in work.items():
                    verify_work[suite] += count
                verify_runs += 1
            elif op.kind == "gencount":
                problems += checks.gencount_problems(json.loads(text), op.n, op.k)
            else:
                problems += checks.resolve_problems(json.loads(text), op.n, op.k, op.max_t)
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            problems.append(f"malformed output of {' '.join(op.args)}: {exc!r}")
    if verify_runs:
        problems += checks.work_problems(verify_work, verify_runs)
    for later in rounds[1:]:
        for op, a, b in zip(ops, first, later):
            if a["code"] == 0 and b["code"] == 0 and a["digest"] != b["digest"]:
                problems.append(f"output of {' '.join(op.args)} differs between rounds")
    return problems


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(rounds: list[list[dict]], peak_rss_kib: int) -> dict:
    """From each operation's median over the rounds, so that a burst of load
    from elsewhere on the machine during one round moves the metrics little."""
    wall = [statistics.median(rnd[i]["wall_s"] for rnd in rounds) for i in range(len(rounds[0]))]
    cpu = [statistics.median(rnd[i]["cpu_s"] for rnd in rounds) for i in range(len(rounds[0]))]
    return {"wall_s": (sum(wall), "s"), "cpu_s": (sum(cpu), "s"),
            "op_p50_s": (statistics.median(wall), "s"), "op_max_s": (max(wall), "s"),
            "peak_rss_mb": (peak_rss_kib / 1024, "MB")}


CALLS = ("partitions.schur_dim", "partitions.weyl_dim", "partitions.from_hooks",
         "partitions.check_partition", "partitions.conjugate", "partitions.enumerate_Q",
         "bott.bott", "polynomials.poly_det", "exactmat.mat_mul", "exactmat.inverse",
         "exactmat.det_bareiss", "geometry.is_symplectic", "geometry.plucker_restriction",
         "geometry.cell_matrix", "geometry.opposite_cell_pattern")
SELF_TIMES = ("partitions.schur_dim", "partitions.weyl_dim", "partitions.from_hooks",
              "partitions.enumerate_Q", "partitions.exterior_of_sym2", "bott.bott",
              "bott.bundle_cohomology", "resolution.jpw_closed_form",
              "resolution.jpw_by_degree_scan", "resolution.enlarged_space_table",
              "resolution.assemble", "resolution.consistency_check",
              "resolution.minor_generators", "polynomials.poly_det",
              "polynomials.span_rank_and_basis", "exactmat.mat_mul", "exactmat.inverse",
              "geometry.is_symplectic", "geometry.plucker_restriction",
              "geometry.opposite_cell_factor", "geometry.opposite_cell_pattern",
              "weyl.w_tilde_min_rep", "weyl.avoids_patterns", "weyl.tangent_dim_at_id_C")
COUNTS = ("partitions.enumerate_Q.cache_hits", "bott.bott.zero_calls",
          "bott.exchange_steps", "resolution.table_terms")
SUITE_TIMES = {f"verify.{suite}.s": f"verify.{suite}_suite"
               for suite in ("plucker", "factorization", "product", "weyl", "betti")}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _round_trace(results: list[dict]) -> tuple[dict, dict]:
    """(counts, times) of one traced round, summed over its processes."""
    counts, times, imports = {}, {}, []
    for result in results:
        trace = result["trace"]
        if result["code"] != 0 or trace is None:
            continue  # counted in `failed`
        imports.append(trace["import_s"])
        for key, value in trace["calls"].items():
            counts[key + ".calls"] = counts.get(key + ".calls", 0) + value
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for field, suffix in (("self_s", ".self_s"), ("total_s", ".total_s")):
            for key, value in trace[field].items():
                times[key + suffix] = times.get(key + suffix, 0.0) + value
    counts["cli.output_bytes"] = sum(r["out_bytes"] for r in results)
    times["cli.import_s"] = statistics.median(imports)
    return counts, times


def per_layer(plain: list[list[dict]], traced: list[list[dict]]) -> tuple[dict, list[str]]:
    rounds = [_round_trace(rnd) for rnd in traced]
    counts = rounds[0][0]
    problems = [] if all(c == counts for c, _ in rounds) else ["call counts differ between traced rounds"]

    def time_of(key: str) -> float:
        return statistics.median(t.get(key, 0.0) for _, t in rounds)

    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (time_of(f"{name}.self_s"), "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["partitions.exterior_of_sym2.kept_ratio"] = (_ratio(
        counts.get("exterior_of_sym2.kept", 0), counts.get("exterior_of_sym2.enumerated", 0)), "ratio")
    metrics["polynomials.basis_ratio"] = (_ratio(
        counts.get("span_rank_and_basis.kept", 0), counts.get("span_rank_and_basis.offered", 0)), "ratio")
    for name, key in SUITE_TIMES.items():
        metrics[name] = (time_of(f"{key}.total_s"), "s")
    metrics["cli.import_s"] = (time_of("cli.import_s"), "s")
    metrics["cli.output_bytes"] = (counts["cli.output_bytes"], "bytes")
    overhead = [sum(r["wall_s"] for r in t) - sum(r["wall_s"] for r in p)
                for p, t in zip(plain, traced)]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics, problems


# ---------------------------------------------------------------------------


def seconds_since_process_start() -> float:
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: start time after boot
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symsyz" / "cli.py").is_file():
        print(f"error: no symsyz sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import symsyz  # noqa: F401  (set-up includes the program's import)

    ops = make_ops(args.workload, args.seed)
    setup_s = seconds_since_process_start()

    runs = measure(ops, args.seconds, bool(args.trace))
    plain, traced = runs["plain"], runs["traced"]
    failed = sum(r["code"] != 0 for rnd in plain + traced for r in rnd)
    problems = check_outputs(ops, plain + traced)
    if args.trace:
        metrics, trace_problems = per_layer(plain, traced)
        problems += trace_problems
    else:
        metrics = end_to_end(plain, runs["peak_rss_kib"])
        metrics["setup_s"] = (setup_s, "s")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(rnd) for rnd in plain + traced),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
