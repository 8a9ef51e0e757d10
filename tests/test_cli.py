import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from symsyz import geometry, partitions, resolution, verify, weyl
from symsyz.cli import MAX_WALK_LOG2, main, walk_log2

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


@pytest.mark.parametrize("n", ["20", "1000000000000"])
def test_resolve_refuses_oversized_walk_up_front(capsys, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "resolve", "--n", n, "--k", "1", "--r", n)
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
    # a wrong Weyl denominator leaves a remainder in the exact quotient
    "non-integral-dimension": (partitions, "_weyl_denominator", lambda n: 10**9 + 7),
    # an exchange rule that cycles runs past the sorting bound
    # (the package's name `bott` is the function, so import the module itself)
    "exchange-bound": (importlib.import_module("symsyz.bott"), "_first_ascent",
                       lambda seq: 1),
    "bundle-rank": (resolution.XiDescription, "check_rank", lambda self: False),
}


@pytest.mark.parametrize("code_name", sorted(BREAKAGES))
def test_resolve_integrity_failures_exit_3(capsys, monkeypatch, code_name):
    target, name, broken = BREAKAGES[code_name]
    monkeypatch.setattr(target, name, broken)
    code, out, err = run(capsys, "resolve", "--n", "4", "--k", "2", "--r", "4",
                         "--format", "json")
    assert code == 3 and out == ""
    assert err.startswith(f"error:{code_name}:") and err.count("\n") == 1


def test_resolve_integrity_check_survives_optimize(capsys):
    # under python -O a healthy run prints the same bytes, and a broken
    # Weyl denominator still exits 3 with one error line
    argv = ["resolve", "--n", "4", "--k", "2", "--r", "4", "--format", "json"]
    _, expected, _ = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    healthy = subprocess.run([sys.executable, "-O", "-m", "symsyz.cli", *argv],
                             env=env, capture_output=True, text=True, timeout=60)
    assert healthy.returncode == 0 and healthy.stdout == expected
    script = ("import sys, symsyz.partitions as p, symsyz.cli as cli;"
              " p._weyl_denominator = lambda n: 10**9 + 7;"
              " sys.exit(cli.main(sys.argv[1:]))")
    broken = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                            env=env, capture_output=True, text=True, timeout=60)
    assert broken.returncode == 3 and broken.stdout == ""
    assert broken.stderr.startswith("error:non-integral-dimension:")
    assert broken.stderr.count("\n") == 1


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
