import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from symsyz import geometry, partitions, resolution, verify, weyl
from symsyz.cli import MAX_SCHUBERT_N, MAX_WALK_LOG2, main, walk_log2

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


def test_bott_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "bott", "--n", "3", "--m", "1", "--weight", "0,1,2")
    assert code == 2 and err.startswith("error:invalid-weight:")


def test_schubert_command(capsys):
    code, out, _ = run(capsys, "schubert", "--n", "5", "--k", "2", "--r", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["w_tilde"][:8] == [3, 4, 6, 9, 10, 1, 2, 5]
    assert payload["smooth_total_space"] is True
    assert payload["pattern_avoiding"] is True
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


@pytest.mark.parametrize("n", ["31", "1000000000000"])
def test_schubert_refuses_oversized_n_up_front(capsys, n):
    # the pattern scan of w_max reads C(2n, 4) subsequences: n = 30 takes seconds
    assert MAX_SCHUBERT_N == 30
    start = time.perf_counter()
    code, out, err = run(capsys, "schubert", "--n", n, "--k", "1", "--r", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:too-large:") and err.count("\n") == 1


def test_walk_size_boundary():
    # the closed form walks 2^(n-k+1) leg tuples, the enlarged base 2^(n-k/2)
    assert MAX_WALK_LOG2 == 17
    assert walk_log2(17, 1) == 17 < walk_log2(18, 1)
    assert walk_log2(18, 2) == 17 < walk_log2(19, 2)
    assert walk_log2(21, 8) == 17 < walk_log2(22, 8)
    assert walk_log2(19, 3) == 17
    # every instance the benchmark and the tests run has n - k <= 14
    assert all(walk_log2(n, k) <= 17 for n in range(2, 16) for k in range(1, n))


BREAKAGES = {
    # a wrong Weyl denominator leaves a remainder in the exact quotient; of
    # resolve only the enlarged base (even k) still divides by it
    "non-integral-dimension": ("non-integral-dimension", (4, 2), partitions,
                               "_weyl_denominator", lambda n: 10**9 + 7),
    # a wrong one-hook factor leaves a remainder in the closed form's
    # parent-to-member ratio; odd k runs no enlarged base
    "non-integral-dimension-closed-form": ("non-integral-dimension", (5, 1), resolution,
                                           "_one_hook_factor", lambda n, k, b: 10**9 + 7),
    # a closed-form table with a stray generator breaks the resolution shape
    "rational-singularity-violation": ("rational-singularity-violation", (4, 2),
                                       resolution.BettiTable, "is_resolution_shape",
                                       lambda self: False),
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
    def broken(labels, n, m):
        raise ValueError(f"label {labels[0]} too long for cut {m}")

    monkeypatch.setattr(resolution, "bundle_cohomology", broken)
    code, out, err = run(capsys, *_resolve_argv(4, 2))
    assert code == 3 and out == ""
    assert err.startswith("error:internal-value-error:") and err.count("\n") == 1


def test_resolve_integrity_check_survives_optimize(capsys):
    # under python -O a healthy run prints the same bytes, and a broken
    # Weyl denominator or one-hook factor still exits 3 with one error line
    argv = _resolve_argv(4, 2)
    _, expected, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    healthy = subprocess.run([sys.executable, "-O", "-m", "symsyz.cli", *argv],
                             env=env, capture_output=True, text=True, timeout=60)
    assert healthy.returncode == 0 and healthy.stdout == expected
    breakages = [("symsyz.partitions", "_weyl_denominator = lambda n: 10**9 + 7", argv),
                 ("symsyz.resolution", "_one_hook_factor = lambda n, k, b: 10**9 + 7",
                  _resolve_argv(5, 1))]
    for module, assignment, case in breakages:
        script = (f"import sys, {module} as target, symsyz.cli as cli;"
                  f" target.{assignment};"
                  " sys.exit(cli.main(sys.argv[1:]))")
        broken = subprocess.run([sys.executable, "-O", "-c", script, *case],
                                env=env, capture_output=True, text=True, timeout=60)
        assert broken.returncode == 3 and broken.stdout == "", module
        assert broken.stderr.startswith("error:non-integral-dimension:"), module
        assert broken.stderr.count("\n") == 1, module


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
    # product_identification checks that both components stay in their slices
    monkeypatch.setattr(geometry.LinearSlice, "contains", lambda self, matrix: False)
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
        return real(n, k, r, rng) if len(drawn) == 1 else geometry.symplectic_form(n)

    monkeypatch.setattr(verify, "random_symplectic_cell_point", generator)
    code, out, err = run(capsys, "verify", "--fast", "--suites", "product")
    assert code == 1 and err == "" and len(drawn) == 2
    assert out == "FAIL product: matrix does not satisfy the cell pattern at (2, 1, 2)\n"


def test_schubert_integrity_failure_exits_3(capsys, monkeypatch):
    def broken(self):
        raise weyl.PermutationWordError(f"full word of {self.half_word} is not a permutation")

    monkeypatch.setattr(weyl.WeylElementC, "full_word", broken)
    for fmt in ("json", "table"):
        code, out, err = run(capsys, "schubert", "--n", "4", "--k", "1", "--r", "3",
                             "--format", fmt)
        assert code == 3 and out == ""
        assert err.startswith("error:permutation-word:") and err.count("\n") == 1


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
    monkeypatch.setattr(verify, "random_symplectic", lambda n, rng: geometry.symplectic_form(n))
    code, out, err = run(capsys, "verify", "--fast", "--suites", "factorization")
    assert code == 1 and err == ""
    assert out.startswith("FAIL factorization: upper-left block is singular at n=")
    assert out.count("\n") == 1
