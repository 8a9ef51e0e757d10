"""Tests of the benchmark itself: the checkers accept the program's output
and reject corrupted copies of it, and the runner prints the metrics that
BENCHMARK.json names.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gencount  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from symsyz.cli import main as symsyz_main  # noqa: E402


def stdout_of(call, argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert call(argv) == 0
    return buffer.getvalue()


def resolve(n, k, max_t=None):
    return json.loads(stdout_of(symsyz_main, list(run.resolve_op(n, k, max_t).args)))


def table_of(n, k):
    return checks.read_table(resolve(n, k)["betti"])


@pytest.fixture(scope="module")
def verify_output():
    return stdout_of(symsyz_main, ["verify", "--fast", "--seed", "7"])


# --- the checkers accept correct output -------------------------------------


@pytest.mark.parametrize("n", range(2, 8))
def test_full_tables_pass(n):
    for k in range(1, n):
        assert checks.resolve_problems(resolve(n, k), n, k) == [], (n, k)


@pytest.mark.parametrize("n, k, max_t", [(8, 1, 10), (7, 2, 9), (8, 3, 12), (6, 4, 5), (7, 2, 1)])
def test_truncated_tables_pass(n, k, max_t):
    assert checks.resolve_problems(resolve(n, k, max_t), n, k, max_t) == []


def test_verify_and_generator_counts_pass(verify_output):
    work, problems = checks.verify_problems(verify_output)
    assert problems == [] and checks.work_problems(work, 1) == []
    payload = json.loads(stdout_of(gencount.main, ["5", "2"]))
    assert checks.gencount_problems(payload, 5, 2) == []


def test_independent_formulas_on_known_values():
    assert [checks.harris_tu_degree(n, k) for n, k in [(2, 1), (3, 1), (4, 2)]] == [2, 4, 10]
    assert checks.hook_content_dim((2, 2), 3) == 6 and checks.hook_content_dim((1, 1, 1, 1), 3) == 0
    assert checks.weyl_dimension((1, 1, 0, 0)) == 6
    assert checks.rho_shift_bott((0, 2)) == (1, (1, 1))
    assert checks.rho_shift_bott((0, 1)) is None
    assert checks.from_frobenius((2, 0), (2, 0)) == (3, 2, 1)


@pytest.mark.parametrize("n, k", [(6, 1), (7, 2), (8, 3), (9, 4), (9, 5)])
def test_top_degree_is_the_closed_form_top(n, k):
    assert run.top_degree(n, k) == max(d for _, d in checks.jpw_table(n, k))


# --- and reject corrupted output ----------------------------------------------


def test_entry_off_by_one_is_rejected():
    payload = resolve(5, 2)
    payload["betti"][2]["mult"] += 1
    table = checks.read_table(payload["betti"])
    assert checks.label_problems(table, lambda lab: checks.hook_content_dim(lab, 5))
    assert checks.degree_problems(table, 5, 2)
    assert checks.resolve_problems(payload, 5, 2)


def test_enlarged_entry_off_by_one_is_rejected():
    payload = resolve(6, 2)
    payload["enlarged"][3]["mult"] += 1
    assert checks.resolve_problems(payload, 6, 2)


def test_dropped_schur_label_is_rejected():
    table = table_of(4, 1)
    mult, labels = table[(3, 4)]
    assert len(labels) == 2
    dropped = dict(table)
    dropped[(3, 4)] = (mult, labels[1:])
    assert checks.label_problems(dropped, lambda lab: checks.hook_content_dim(lab, 4))
    # with the multiplicity lowered to match, the K-polynomial gives it away
    dropped[(3, 4)] = (mult - labels[0][1], labels[1:])
    assert checks.label_problems(dropped, lambda lab: checks.hook_content_dim(lab, 4)) == []
    assert checks.degree_problems(dropped, 4, 1)


def test_transposed_gorenstein_pair_is_rejected():
    table = table_of(6, 1)  # n - k = 5: Gorenstein
    assert checks.gorenstein_problems(table, 6, 1) == []
    a, b = (key for key in table if key[0] == 6)  # (6, 7) and (6, 8)
    assert table[a][0] != table[b][0]
    swapped = dict(table)
    swapped[a], swapped[b] = table[b], table[a]
    assert checks.gorenstein_problems(swapped, 6, 1)


def test_symmetry_where_n_minus_k_is_even_is_rejected():
    assert checks.gorenstein_problems(table_of(3, 1), 3, 1) == []  # n - k = 2
    assert checks.gorenstein_problems(table_of(4, 1), 5, 1)  # a symmetric table for n - k = 4


def test_spurious_generator_and_first_syzygy_are_rejected():
    table = table_of(5, 1)
    extra = dict(table)
    extra[(0, 1)] = (1, [((1,), 1)])
    assert checks.generator_problems(extra)
    extra = dict(table)
    extra[(1, 3)] = (1, [((1, 1, 1), 1)])
    assert checks.first_syzygy_problems(extra, 5, 1)


def test_short_codim_is_rejected():
    table = table_of(5, 3)
    assert checks.codim_problems({key: v for key, v in table.items() if key[0] < 3}, 5, 3)


def test_truncation_at_the_wrong_degree_is_rejected():
    payload = resolve(7, 2, 9)
    assert checks.resolve_problems(payload, 7, 2, 8)
    assert checks.resolve_problems(payload, 7, 2, 10)


def test_short_work_count_is_rejected(verify_output):
    minors = checks.plucker_minors(checks.FAST_N_MAX, checks.FAST_POINTS)
    short = verify_output.replace(f"{minors} minors", f"{minors - 1} minors")
    work, problems = checks.verify_problems(short)
    assert problems == [] and checks.work_problems(work, 1)
    assert checks.work_problems({"plucker": minors, "factorization": checks.FAST_POINTS - 1}, 1)


def test_failed_or_missing_suite_is_rejected(verify_output):
    assert checks.verify_problems(verify_output.replace("PASS betti", "FAIL betti"))[1]
    lines = verify_output.splitlines()
    assert checks.verify_problems("\n".join(lines[:-1]))[1]


def test_malformed_output_is_a_failed_check():
    op = run.resolve_op(4, 1)
    result = {"code": 0, "stdout": '{"params": {"n": 4, "k": 1, "r": 4}}', "digest": ""}
    problems = run.check_outputs([op], [[result]])
    assert len(problems) == 1 and problems[0].startswith("malformed output")


def test_wrong_generator_count_is_rejected():
    payload = {"n": 6, "k": 2, "generators": 174, "f1": 175}
    assert checks.gencount_problems(payload, 6, 2)


# --- the runner -----------------------------------------------------------------


def test_every_metric_in_benchmark_json_is_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = {"calls": {}, "total_s": {}, "self_s": {}, "counts": {}, "import_s": 0.05}
    result = {"wall_s": 1.0, "cpu_s": 1.0, "code": 0, "out_bytes": 2, "trace": trace}
    per_layer, problems = run.per_layer([[result]], [[result]])
    assert problems == []
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert {name: unit for name, (_, unit) in per_layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = run.end_to_end([[result]], 20000)
    assert set(end_to_end) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_workloads_repeat_for_a_seed_and_vary_with_it():
    for name in run.WORKLOADS:
        assert run.make_ops(name, 3) == run.make_ops(name, 3)
        assert run.make_ops(name, 3) != run.make_ops(name, 4)


def test_traced_operation_prints_the_same_output():
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    op = run.resolve_op(5, 2)
    plain = measure.run_op(op.command(False), env, str(ROOT), True)
    traced = measure.run_op(op.command(True), env, str(ROOT), True)
    assert plain["code"] == traced["code"] == 0 and plain["trace"] is None
    assert plain["stdout"] == traced["stdout"] and plain["digest"] == traced["digest"]
    assert traced["trace"]["calls"]["bott.bott"] == 2 ** 4  # one per summand of the enlarged table


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
