"""The load generator: runs the benchmark's operations in rounds and reports
their wall seconds, CPU seconds and exit codes.

It reads one JSON object from stdin,
{"plain": [argv, ...], "traced": [argv, ...] or null, "seconds": s, "env": {...}, "cwd": dir},
and writes one JSON object to stdout, {"plain": rounds, "traced": rounds,
"peak_rss_kib": n}. It is a process of its own, kept small, because a child
started by vfork inherits its parent's peak resident set: run from the
runner, which has imported symsyz, the children's `ru_maxrss` would show the
runner's peak instead of their own once that is the larger.
"""

import hashlib
import json
import resource
import subprocess
import sys
import time

OP_TIMEOUT_S = 120
TRACE_PREFIX = b"perfbench-trace "  # as trace_child.TRACE_PREFIX


def run_op(argv: list[str], env: dict, cwd: str, keep_stdout: bool) -> dict:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=cwd, timeout=OP_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", exc.stderr or b""
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    traces = [line for line in err.splitlines() if line.startswith(TRACE_PREFIX)]
    return {
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "code": code,
        # only the first round's output is kept whole, to keep this process small
        "stdout": out.decode() if keep_stdout else None,
        "digest": hashlib.sha256(out).hexdigest(),
        "out_bytes": len(out),
        "trace": json.loads(traces[-1][len(TRACE_PREFIX):]) if traces else None,
    }


def measure(job: dict) -> dict:
    """Whole rounds while the next one is expected to end within the
    seconds; with traced commands, each round runs untraced and then traced."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append([run_op(argv, job["env"], job["cwd"], not plain) for argv in job["plain"]])
        if job["traced"]:
            traced.append([run_op(argv, job["env"], job["cwd"], False) for argv in job["traced"]])
        now = time.perf_counter()
        if (now - start) + (now - round_start) > job["seconds"]:
            break
    # ru_maxrss of the waited-for children is the peak of the largest one
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"plain": plain, "traced": traced, "peak_rss_kib": peak}


if __name__ == "__main__":
    json.dump(measure(json.load(sys.stdin)), sys.stdout)
