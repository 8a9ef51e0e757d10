import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from symsyz import cli, exactmat, partitions, resolution, verify, weyl
from symsyz.bott import bott
from symsyz.cli import MAX_SCHUBERT_N, MAX_WALK_LOG2, main

from oracles import symplectic_form
from test_perfbench_contract import _load_checks

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_resolve_veronese_table(capsys):
    code, out, _ = run(capsys, "resolve", "--n", "3", "--k", "1", "--r", "3",
                       "--format", "table")
    assert code == 0
    assert "1  .  .  6" in out
    assert "degree 4" in out


def test_resolve_json_shape_and_determinism(capsys):
    args = ("resolve", "--n", "3", "--k", "1", "--r", "3", "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical
    payload = json.loads(out1)
    assert payload["params"] == {"n": 3, "k": 1, "r": 3}
    assert payload["ring"] == {"variables": 6}
    assert payload["codim"] == 3
    assert payload["k_polynomial"] == [1, 0, -6, 8, -3]
    betti = {(row["i"], row["degree"]): row["mult"] for row in payload["betti"]}
    assert betti == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}


def test_resolve_hypersurface(capsys):
    code, out, _ = run(capsys, "resolve", "--n", "2", "--k", "1", "--r", "2",
                       "--format", "json")
    payload = json.loads(out)
    betti = {(row["i"], row["degree"]): row["mult"] for row in payload["betti"]}
    assert code == 0 and betti == {(0, 0): 1, (1, 2): 1}


def test_resolve_unsupported_branch(capsys):
    code, out, _ = run(capsys, "resolve", "--n", "4", "--k", "2", "--r", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "unsupported" in payload
    assert payload["geometry"]["codim"] == 2


def test_resolve_unsupported_branch_at_large_n(capsys):
    # r < n needs only the dimension count, so n does not bound the work
    started = time.perf_counter()
    code, out, _ = run(capsys, "resolve", "--n", "20000", "--k", "1", "--r", "3",
                       "--format", "json")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert json.loads(out)["geometry"]["fibre_dim"] == 19998 * 19999 // 2
    assert elapsed < 1.0, elapsed


def test_resolve_invalid_params(capsys):
    code, _, err = run(capsys, "resolve", "--n", "3", "--k", "3", "--r", "3")
    assert code == 2
    assert err.startswith("error:invalid-params:")
    assert "\n" not in err.strip()


def test_bott_command(capsys):
    code, out, _ = run(capsys, "bott", "--n", "2", "--m", "1", "--weight", "0,0")
    assert code == 0 and out.strip() == "j=0 beta=(0,0) dim=1"
    code, out, _ = run(capsys, "bott", "--n", "2", "--m", "1", "--weight", "1,0")
    assert code == 0 and out.strip() == "ZERO"
    code, out, _ = run(capsys, "bott", "--n", "2", "--m", "1", "--weight", "2,0")
    assert code == 0 and out.strip() == "j=1 beta=(1,1) dim=1"


def test_bott_integrity_failure_exits_3(capsys, monkeypatch):
    # `import symsyz.bott` would bind the function that the package re-exports
    def broken(weight):
        raise partitions.NonIntegralDimension(f"dimension of {weight} is not an integer")

    monkeypatch.setattr(sys.modules["symsyz.bott"], "weyl_dim", broken)
    for fmt in ("json", "table"):
        code, out, err = run(capsys, "bott", "--n", "2", "--m", "1", "--weight", "2,0",
                             "--format", fmt)
        assert code == 3 and out == ""
        assert err.startswith("error:non-integral-dimension:") and err.count("\n") == 1


def test_bott_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "bott", "--n", "3", "--m", "1", "--weight", "0,1,2")
    assert code == 2 and err.startswith("error:invalid-weight:")


@pytest.mark.parametrize("n, m, weight, message", [
    (3, 1, "0,1,2", "weight (0, 1, 2) is not dominant for cut 1"),
    (3, 3, "3,2,1", "cut position 3 invalid for n=3"),
    (3, 0, "1,0,0", "cut position 0 invalid for n=3"),
    (1, 1, "0", "cut position 1 invalid for n=1"),
    (3, 1, "1,0", "weight must have 3 entries"),
    (3, 1, "a,b", "invalid literal for int() with base 10: 'a'"),
    (2, 1, "1,,0", "invalid literal for int() with base 10: ''"),
])
def test_bott_invalid_weights_exit_2(capsys, n, m, weight, message):
    code, out, err = run(capsys, "bott", "--n", str(n), "--m", str(m), "--weight", weight)
    assert (code, out, err) == (2, "", f"error:invalid-weight: {message}\n")


SCHUBERT_JSON = {
    (5, 2, 4): '{"cell_dimension":10,"geometry":{"ambient_dim":15,"base":"GL_4/P\'\'_{2}",'
               '"base_dim":4,"bundle_rank":9,"codim":5,"dim_Y":10,"dim_Z":10,"fibre_dim":6},'
               '"lengths":{"l_A(full)":17,"l_C(w)":10,"l_C(w_max)":14,"m":3},'
               '"params":{"k":2,"n":5,"r":4},"pattern_avoiding":true,"smooth_total_space":true,'
               '"w":[3,4,6,9,10],"w_full":[3,4,6,9,10,1,2,5,7,8],'
               '"w_max":[4,3,10,9,6,5,2,1,8,7],"w_tilde":[3,4,6,9,10,1,2,5,7,8]}\n',
    (3, 1, 3): '{"cell_dimension":3,"geometry":{"ambient_dim":6,"base":"GL_3/P\'\'_{2}",'
               '"base_dim":2,"bundle_rank":5,"codim":3,"dim_Y":3,"dim_Z":3,"fibre_dim":1},'
               '"lengths":{"l_A(full)":5,"l_C(w)":3,"l_C(w_max)":4,"m":1},'
               '"params":{"k":1,"n":3,"r":3},"pattern_avoiding":true,"smooth_total_space":true,'
               '"w":[2,3,6],"w_full":[2,3,6,1,4,5],"w_max":[3,2,6,1,5,4],'
               '"w_tilde":[2,3,6,1,4,5]}\n',
    (6, 2, 5): '{"cell_dimension":12,"geometry":{"ambient_dim":21,"base":"GL_5/P\'\'_{3}",'
               '"base_dim":6,"bundle_rank":15,"codim":9,"dim_Y":12,"dim_Z":12,"fibre_dim":6},'
               '"lengths":{"l_A(full)":21,"l_C(w)":12,"l_C(w_max)":18,"m":3},'
               '"params":{"k":2,"n":6,"r":5},"pattern_avoiding":true,"smooth_total_space":true,'
               '"w":[3,4,5,7,11,12],"w_full":[3,4,5,7,11,12,1,2,6,8,9,10],'
               '"w_max":[5,4,3,12,11,7,6,2,1,10,9,8],"w_tilde":[3,4,5,7,11,12,1,2,6,8,9,10]}\n',
}

SCHUBERT_TABLE = {
    (5, 2, 4): """\
w       = (3, 4, 6, 9, 10) (half word), length 10
w~      = (3, 4, 6, 9, 10, 1, 2, 5, 7, 8)
w_max   = (4, 3, 10, 9, 6, 5, 2, 1, 8, 7)
smooth desingularisation: tangent=length True; 4231/3142 avoiding True
opposite cell pattern: 10 free coordinates
base GL_4/P''_{2} of dim 4; fibre dim 6; dim Y = dim Z = 10; codim 5 in dim-15 ambient; bundle rank 9
""",
    (3, 1, 3): """\
w       = (2, 3, 6) (half word), length 3
w~      = (2, 3, 6, 1, 4, 5)
w_max   = (3, 2, 6, 1, 5, 4)
smooth desingularisation: tangent=length True; 4231/3142 avoiding True
opposite cell pattern: 3 free coordinates
base GL_3/P''_{2} of dim 2; fibre dim 1; dim Y = dim Z = 3; codim 3 in dim-6 ambient; bundle rank 5
""",
    (6, 2, 5): """\
w       = (3, 4, 5, 7, 11, 12) (half word), length 12
w~      = (3, 4, 5, 7, 11, 12, 1, 2, 6, 8, 9, 10)
w_max   = (5, 4, 3, 12, 11, 7, 6, 2, 1, 10, 9, 8)
smooth desingularisation: tangent=length True; 4231/3142 avoiding True
opposite cell pattern: 12 free coordinates
base GL_5/P''_{3} of dim 6; fibre dim 6; dim Y = dim Z = 12; codim 9 in dim-21 ambient; bundle rank 15
""",
}


def test_schubert_command(capsys):
    # the whole output, byte for byte, in both formats
    for nkr in SCHUBERT_JSON:
        params = [str(x) for pair in zip(("--n", "--k", "--r"), nkr) for x in pair]
        assert run(capsys, "schubert", *params, "--format", "json") == (0, SCHUBERT_JSON[nkr], "")
        assert run(capsys, "schubert", *params) == (0, SCHUBERT_TABLE[nkr], "")
    code, out, _ = run(capsys, "schubert", "--n", "2", "--k", "1", "--r", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["geometry"]["dim_Y"] == 2
    assert payload["geometry"]["codim"] == 1


def test_schubert_invalid(capsys):
    code, _, err = run(capsys, "schubert", "--n", "3", "--k", "2", "--r", "2")
    assert code == 2 and err.startswith("error:")
    # invalid parameters are reported as such even above the size cap
    code, _, err = run(capsys, "schubert", "--n", "1000000000000", "--k", "5", "--r", "2")
    assert code == 2 and err.startswith("error:invalid-params:")


def test_betti_alias(capsys):
    code1, out1, _ = run(capsys, "betti", "--n", "2", "--k", "1", "--r", "2",
                         "--format", "json")
    code2, out2, _ = run(capsys, "resolve", "--n", "2", "--k", "1", "--r", "2",
                         "--format", "json")
    assert code1 == code2 == 0 and out1 == out2


def test_verify_fast_seed_0_output(capsys):
    # perfbench/checks.py parses these detail strings
    code, out, err = run(capsys, "verify", "--fast", "--seed", "0")
    assert (code, err) == (0, "")
    assert out == (
        "PASS weyl: patterns/tangent/coset checks pass for n <= 5\n"
        "PASS plethysm: all counts match up to e=5, t=6\n"
        "PASS bott-euler: line bundles |d| <= 6 match\n"
        "PASS plucker: 4560 minors matched exactly\n"
        "PASS factorization: 40 factorizations exact\n"
        "PASS product: 20 round trips per case, n <= 4\n"
        "PASS betti: closed form consistent for n <= 5\n"
        "PASS subresolution: 2 enlarged tables contain the closed form\n"
    )


def test_verify_fast_deterministic(capsys):
    args = ("verify", "--seed", "42", "--fast",
            "--suites", "weyl,plethysm,bott-euler,betti,subresolution")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert all(line.startswith("PASS") for line in out1.strip().splitlines())


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suites", "nonsense")
    assert code == 2 and err.startswith("error:unknown-suite:")


def test_verify_unknown_suite_names_empty_entries(capsys):
    code, out, err = run(capsys, "verify", "--suites", "weyl,")
    assert (code, out, err) == (2, "", "error:unknown-suite: ''\n")
    code, out, err = run(capsys, "verify", "--suites", ",")
    assert (code, out, err) == (2, "", "error:unknown-suite: '', ''\n")


def test_max_t_truncation_is_exploratory(capsys):
    code, out, err = run(capsys, "resolve", "--n", "4", "--k", "2", "--r", "4",
                         "--max-t", "3", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["divisible"] is False  # truncated table, reported not raised
    code, out, _ = run(capsys, "resolve", "--n", "4", "--k", "2", "--r", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["divisible"] is True


def test_resolve_refuses_negative_max_t(capsys):
    code, out, err = run(capsys, "resolve", "--n", "4", "--k", "2", "--r", "4",
                         "--max-t", "-1", "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("error:invalid-params:") and err.count("\n") == 1


JSON_CASES = [
    *(["resolve", "--n", str(n), "--k", str(k), "--r", str(r), "--format", "json", *extra]
      for n, k, r in [(3, 1, 3), (5, 2, 5), (6, 3, 6), (6, 4, 6), (5, 2, 4), (7, 3, 5)]
      for extra in ([], ["--max-t", "0"], ["--max-t", "4"], ["--max-t", "9"])),
    ["bott", "--n", "2", "--m", "1", "--weight", "1,0", "--format", "json"],
    ["bott", "--n", "2", "--m", "1", "--weight", "2,0", "--format", "json"],
    ["bott", "--n", "4", "--m", "2", "--weight", "3,3,1,0", "--format", "json"],
    ["schubert", "--n", "5", "--k", "2", "--r", "4", "--format", "json"],
    ["schubert", "--n", "3", "--k", "1", "--r", "3", "--format", "json"],
]


def test_json_output_is_the_canonical_encoding(capsys):
    # the streamed printer writes the bytes of one json.dumps call: sorted
    # keys at every depth, no spaces, one line
    kinds = set()
    for argv in JSON_CASES:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", argv
        kinds.add((argv[0], payload.get("cohomology", 0) is None, "betti" in payload))
    # resolve at r = n and r < n, bott zero and nonzero, schubert
    assert kinds == {("resolve", False, True), ("resolve", False, False),
                     ("bott", True, False), ("bott", False, False), ("schubert", False, False)}


def test_printing_json_peaks_below_the_output_size(monkeypatch):
    # the printer encodes one Betti cell at a time: at (13, 1) its traced
    # peak stays below the size of the document it writes
    payloads = []
    monkeypatch.setattr(cli, "_print_json", payloads.append)
    assert main(["resolve", "--n", "13", "--k", "1", "--r", "13", "--format", "json"]) == 0
    monkeypatch.undo()
    (payload,) = payloads
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            cli._print_json(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    size = len(json.dumps(payload, sort_keys=True, separators=(",", ":"))) + 1
    assert size > 200_000 and peak < size, (peak, size)


def test_resolve_tables_pass_the_benchmark_checks(capsys):
    # the benchmark's independent reference tables, closed form and enlarged
    # base, for every r = n up to 9, untruncated and filtered at t <= n
    checks = _load_checks()
    for n in range(3, 10):
        for k in range(1, n):
            for max_t in (None, n):
                argv = ["resolve", "--n", str(n), "--k", str(k), "--r", str(n), "--format", "json"]
                argv += [] if max_t is None else ["--max-t", str(max_t)]
                code, out, _ = run(capsys, *argv)
                assert code == 0, argv
                assert checks.resolve_problems(json.loads(out), n, k, max_t) == [], argv


@pytest.mark.parametrize("n", ["20", "1000000000000"])
def test_resolve_refuses_oversized_walk_up_front(capsys, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "resolve", "--n", n, "--k", "1", "--r", n)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:too-large:") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["61", "1000000000000"])
def test_schubert_refuses_oversized_n_up_front(capsys, n):
    # the cell pattern makes (r-k)(n-r+k)^2 polynomial products, cubic in n
    assert MAX_SCHUBERT_N == 60
    start = time.perf_counter()
    code, out, err = run(capsys, "schubert", "--n", n, "--k", "1", "--r", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:too-large:") and err.count("\n") == 1


def test_schubert_accepts_its_cap(capsys):
    # (60, 41, 60) makes about as many polynomial products as any (k, r) at n = 60
    code, out, err = run(capsys, "schubert", "--n", "60", "--k", "41", "--r", "60",
                         "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["smooth_total_space"] is True and payload["pattern_avoiding"] is True


def test_walk_size_boundary(capsys, monkeypatch):
    # both r = n tables walk the 2^(n-k+1) leg tuples of one hook family, for
    # every k; an accepted instance reaches `resolve`, stubbed out here
    assert MAX_WALK_LOG2 == 17

    class Reached(Exception):
        pass

    def stub(n, k, r, max_t=None):
        reached.append((n, k))
        raise Reached

    reached = []
    monkeypatch.setattr(cli, "resolve", stub)
    for n, k in ((17, 1), (18, 2), (19, 3), (30, 14)):
        with pytest.raises(Reached):
            main(_resolve_argv(n, k))
    assert reached == [(17, 1), (18, 2), (19, 3), (30, 14)]
    for n, k in ((18, 1), (19, 2), (31, 14)):
        start = time.perf_counter()
        code, out, err = run(capsys, *_resolve_argv(n, k))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "", (n, k)
        assert err == (f"error:too-large: (n, k) = ({n}, {k}) walks 2^{n - k + 1} leg tuples,"
                       " more than 2^17\n")
    assert reached == [(17, 1), (18, 2), (19, 3), (30, 14)]


def test_resolve_accepts_large_n_with_a_short_walk(capsys):
    # (30, 20) walks 2^11 leg tuples for both tables, in about 0.1 s
    code, out, err = run(capsys, *_resolve_argv(30, 20))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["divisible"] is True and payload["subresolution"] is True
    assert payload["enlarged"][0] == {"i": 0, "degree": 0, "mult": 1, "schur": [[[0] * 30, 1]]}


BREAKAGES = {
    # a wrong one-hook factor leaves a remainder in the parent-to-member
    # ratio of the walk that both tables share (even k), or that the closed
    # form walks alone (odd k)
    "non-integral-dimension": ("non-integral-dimension", (4, 2), resolution,
                               "_one_hook_factor", lambda n, k, b: 10**9 + 7),
    "non-integral-dimension-closed-form": ("non-integral-dimension", (5, 1), resolution,
                                           "_one_hook_factor", lambda n, k, b: 10**9 + 7),
    # a Bott answer one degree off disagrees with the walk's member
    "enlarged-table-mismatch": ("enlarged-table-mismatch", (4, 2), resolution, "bott",
                                lambda w: bott(w)._replace(degree=bott(w).degree + 1)),
    # a closed-form table with a stray generator breaks the resolution shape
    "rational-singularity-violation": ("rational-singularity-violation", (4, 2),
                                       resolution.BettiTable, "is_resolution_shape",
                                       lambda self: False),
    # the full-run checks raise inside `resolve`, before the table prints:
    # an indivisible K-polynomial, and an enlarged table missing the closed form
    "rational-singularity-violation-indivisible": (
        "rational-singularity-violation", (4, 1), resolution, "consistency_check",
        lambda table, codim: resolution.ConsistencyReport(divisible=False, degree=None)),
    "enlarged-table-mismatch-containment": ("enlarged-table-mismatch", (4, 2),
                                            resolution.BettiTable, "contains",
                                            lambda self, other: False),
}


def _resolve_argv(n, k):
    return ["resolve", "--n", str(n), "--k", str(k), "--r", str(n), "--format", "json"]


@pytest.mark.parametrize("case", sorted(BREAKAGES))
def test_resolve_integrity_failures_exit_3(capsys, monkeypatch, case):
    code_name, (n, k), target, name, broken = BREAKAGES[case]
    monkeypatch.setattr(target, name, broken)
    code, out, err = run(capsys, *_resolve_argv(n, k))
    assert code == 3 and out == ""
    assert err.startswith(f"error:{code_name}:") and err.count("\n") == 1


def test_resolve_internal_value_error_exits_3(capsys, monkeypatch):
    # only the boundary checks are usage errors; a ValueError from deeper in
    # the pipeline is an internal fault
    def broken(w):
        raise ValueError(f"cut position {w.m} invalid for n={w.n}")

    monkeypatch.setattr(resolution, "bott", broken)
    code, out, err = run(capsys, *_resolve_argv(4, 2))
    assert code == 3 and out == ""
    assert err.startswith("error:internal-value-error:") and err.count("\n") == 1


def test_resolve_integrity_check_survives_optimize(capsys):
    # under python -O a healthy run prints the same bytes, and a broken
    # one-hook factor, Bott answer or divisibility check still exits 3 with
    # one error line
    argv = _resolve_argv(4, 2)
    _, expected, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    healthy = subprocess.run([sys.executable, "-O", "-m", "symsyz.cli", *argv],
                             env=env, capture_output=True, text=True, timeout=60)
    assert healthy.returncode == 0 and healthy.stdout == expected
    shifted = "bott = lambda w, real=target.bott: real(w)._replace(degree=real(w).degree + 1)"
    breakages = [("_one_hook_factor = lambda n, k, b: 10**9 + 7", argv, "non-integral-dimension"),
                 ("_one_hook_factor = lambda n, k, b: 10**9 + 7", _resolve_argv(5, 1),
                  "non-integral-dimension"),
                 (shifted, argv, "enlarged-table-mismatch"),
                 ("consistency_check = lambda table, codim: target.ConsistencyReport(False, None)",
                  _resolve_argv(4, 1), "rational-singularity-violation")]
    module = "symsyz.resolution"
    for assignment, case, code_name in breakages:
        script = (f"import sys, {module} as target, symsyz.cli as cli;"
                  f" target.{assignment};"
                  " sys.exit(cli.main(sys.argv[1:]))")
        broken = subprocess.run([sys.executable, "-O", "-c", script, *case],
                                env=env, capture_output=True, text=True, timeout=60)
        assert broken.returncode == 3 and broken.stdout == "", assignment
        assert broken.stderr.startswith(f"error:{code_name}:"), assignment
        assert broken.stderr.count("\n") == 1, assignment


def test_verify_plucker_cross_check_survives_optimize():
    # the Bareiss cross-check is an explicit raise: under python -O a wrong
    # Bareiss value still turns into a FAIL plucker line, not a silent PASS
    argv = ["verify", "--fast", "--seed", "0", "--suites", "plucker"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = ("import sys, symsyz.geometry as g, symsyz.cli as cli;"
              " g._minor_det_bareiss = lambda *args: 10**9 + 7;"
              " sys.exit(cli.main(sys.argv[1:]))")
    broken = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                            env=env, capture_output=True, text=True, timeout=120)
    assert broken.returncode == 1 and broken.stderr == ""
    assert broken.stdout.startswith("FAIL plucker: minor/Bareiss mismatch at ")
    assert broken.stdout.count("\n") == 1


def test_verify_slice_escape_exits_3(capsys, monkeypatch):
    # product_identification checks that the symmetric component is symmetric
    # and supported on the trailing square
    monkeypatch.setattr(exactmat, "is_symmetric", lambda m: False)
    code, out, err = run(capsys, "verify", "--fast", "--suites", "weyl,product")
    assert code == 3 and out == ""
    assert err.startswith("error:slice-escape:") and err.count("\n") == 1


def test_verify_rejected_product_point_is_a_fail_line(capsys, monkeypatch):
    # a generated point that product_identification refuses is a FAIL line,
    # not a traceback; the first point of the case passes the pattern check
    real = verify.random_symplectic_cell_point
    drawn = []

    def generator(n, k, r, rng):
        drawn.append((n, k, r))
        if len(drawn) == 1:
            return real(n, k, r, rng)
        return SimpleNamespace(matrix=lambda: symplectic_form(n))

    monkeypatch.setattr(verify, "random_symplectic_cell_point", generator)
    code, out, err = run(capsys, "verify", "--fast", "--suites", "product")
    assert code == 1 and err == "" and len(drawn) == 2
    assert out == "FAIL product: matrix does not satisfy the cell pattern at (2, 1, 2)\n"


def test_verify_weyl_compares_the_family_element_itself(capsys, monkeypatch):
    # a family element with two letters of its first block swapped (and
    # their mirrors) block-sorts to the same word, yet it is not the block
    # sort of w_max: the suite compares the element itself
    real = verify.family_element

    def swapped(n, k, r):
        w = list(real(n, k, r))
        if r - k >= 2:
            w[0], w[1], w[-2], w[-1] = w[1], w[0], w[-1], w[-2]
        return tuple(w)

    monkeypatch.setattr(verify, "family_element", swapped)
    code, out, err = run(capsys, "verify", "--fast", "--suites", "weyl")
    assert (code, out, err) == (1, "FAIL weyl: coset reps disagree at (3, 1, 3)\n", "")


def test_schubert_internal_value_error_exits_3(capsys, monkeypatch):
    # only the boundary checks are usage errors; a ValueError after them is
    # an internal fault
    def broken(n, k, r):
        raise ValueError(f"not a permutation of 1..{2 * n}: {(n, k, r)}")

    monkeypatch.setattr(cli, "w_max_rep", broken)
    code, out, err = run(capsys, "schubert", "--n", "4", "--k", "1", "--r", "3")
    assert code == 3 and out == ""
    assert err.startswith("error:internal-value-error:") and err.count("\n") == 1


def test_verify_inexact_elimination_exits_3(capsys, monkeypatch):
    # a remainder in a Bareiss step of the inverse is an integrity failure,
    # not a singular draw that random_symplectic would quietly redraw
    monkeypatch.setattr(exactmat, "divmod", lambda a, b: (a // b, a % b + 1), raising=False)
    code, out, err = run(capsys, "verify", "--fast", "--suites", "factorization")
    assert code == 3 and out == ""
    assert err.startswith("error:inexact-elimination:") and err.count("\n") == 1


def test_resolve_zero_division_is_not_a_dimension_failure(capsys, monkeypatch):
    # only a Weyl quotient with a remainder is non-integral-dimension; any
    # other ArithmeticError is a bug and keeps its traceback
    def broken(table, codim):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(resolution, "consistency_check", broken)
    with pytest.raises(ZeroDivisionError):
        run(capsys, "resolve", "--n", "4", "--k", "2", "--r", "4", "--format", "json")
    _, err = capsys.readouterr()
    assert "error:non-integral-dimension:" not in err


def test_verify_singular_factorization_sample_is_a_fail_line(capsys, monkeypatch):
    # F is symplectic with a singular upper-left block: the factorisation
    # refuses it, and the suite reports that as a FAIL line, not a traceback
    monkeypatch.setattr(verify, "random_symplectic", lambda n, rng: symplectic_form(n))
    code, out, err = run(capsys, "verify", "--fast", "--suites", "factorization")
    assert code == 1 and err == ""
    assert out.startswith("FAIL factorization: upper-left block is singular at n=")
    assert out.count("\n") == 1
