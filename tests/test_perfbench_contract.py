"""The names the benchmark's operations rely on.

perfbench/trace_child.py replaces every function listed in its WRAPPED
table by name and reads `enumerate_Q.cache_info()`, and
perfbench/gencount.py imports names from symsyz; a rename or deletion in
symsyz would surface only in a benchmark run, since Tier-1 does not collect
perfbench/. Both files are read from the source, without importing them.
The benchmark also checks the PASS lines of `verify --fast`; the same
checker, loaded from perfbench/checks.py by path, reads them here.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from symsyz.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACE_CHILD = PERFBENCH / "trace_child.py"


def _wrapped_table() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACE_CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACE_CHILD}")


def test_traced_names_are_bound():
    wrapped = _wrapped_table()
    assert wrapped
    for module, names in wrapped.items():
        namespace = vars(importlib.import_module(f"symsyz.{module}"))
        missing = [name for name in names if not callable(namespace.get(name))]
        assert not missing, f"symsyz.{module} lacks {missing}"


def test_cli_import_loads_every_traced_module():
    # install() looks each WRAPPED module up in sys.modules right after
    # `import symsyz.cli`, so that import alone must load all of them
    modules = [f"symsyz.{module}" for module in _wrapped_table()]
    script = ("import sys, symsyz.cli; names = sys.argv[1:];"
              " print(' '.join(name for name in names if name not in sys.modules))")
    done = subprocess.run([sys.executable, "-c", script, *modules],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"not loaded by import symsyz.cli: {done.stdout}"


def test_cli_import_leaves_fractions_unloaded():
    # exactmat imports Fraction only when a division leaves a remainder, so
    # a CLI call on integers never loads fractions (nor decimal and numbers)
    script = "import sys, symsyz.cli; print('fractions' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _traced_calls(*argv: str) -> dict[str, int]:
    """The call counts of one traced operation, run without writing
    bytecode, so that nothing lands under perfbench/."""
    done = subprocess.run([sys.executable, str(TRACE_CHILD), *argv],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                                   PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    (line,) = [line for line in done.stderr.splitlines() if line.startswith("perfbench-trace ")]
    return json.loads(line.removeprefix("perfbench-trace "))["calls"]


def test_tracer_wraps_the_lazily_loaded_modules():
    # cli registers exactmat, polynomials, geometry and verify unrun; the
    # tracer's install must still replace their functions, not stale copies
    calls = _traced_calls("cli", "verify", "--fast", "--seed", "0")
    for name in ("geometry.is_symplectic", "exactmat.inverse",
                 "polynomials.span_rank_and_basis", "bott.bott"):
        assert calls.get(name, 0) > 0, name
    calls = _traced_calls("cli", "resolve", "--n", "6", "--k", "2", "--r", "6", "--format", "json")
    assert calls.get("bott.bott", 0) > 0


def test_enumerate_Q_keeps_its_cache():
    from symsyz.partitions import enumerate_Q

    assert callable(enumerate_Q.cache_info)


def test_gencount_imports_are_bound():
    tree = ast.parse((PERFBENCH / "gencount.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module and node.module.startswith("symsyz")]
    assert imports
    for node in imports:
        namespace = vars(importlib.import_module(node.module))
        missing = [alias.name for alias in node.names if alias.name not in namespace]
        assert not missing, f"{node.module} lacks {missing}"


def _load_checks() -> types.ModuleType:
    """perfbench/checks.py as a module, executed from its source text so
    that nothing is written under perfbench/."""
    path = PERFBENCH / "checks.py"
    module = types.ModuleType("perfbench_checks")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_verify_fast_output_passes_the_benchmark_checks(capsys):
    checks = _load_checks()
    assert main(["verify", "--fast", "--seed", "0"]) == 0
    work, problems = checks.verify_problems(capsys.readouterr().out)
    assert problems == []
    assert checks.work_problems(work, 1) == []
