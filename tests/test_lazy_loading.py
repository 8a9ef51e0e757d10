"""What each entry point loads. The package itself re-exports nothing, and
`symsyz.cli` registers the layers that only schubert and verify use
(exactmat, polynomials, geometry, verify) as lazy modules, run on their first
attribute access, so a `resolve` call never compiles them. Each check runs in
a fresh interpreter, with an audit hook that records every module body that
runs (the "exec" event)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(path.stem for path in (SRC / "symsyz").glob("*.py") if path.stem != "__init__")
LAZY = {"exactmat", "polynomials", "geometry", "verify"}

PRELUDE = """\
import json, os, sys
ran = set()
def _audit(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        path = args[0].co_filename
        if os.path.basename(os.path.dirname(path)) == "symsyz":
            ran.add(os.path.basename(path)[:-3])
sys.addaudithook(_audit)
"""


def run_script(body: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", PRELUDE + body],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)


def ran_modules(body: str) -> set[str]:
    """The symsyz modules whose code ran by the end of `body`."""
    done = run_script(body + "\nprint(json.dumps(sorted(ran)), file=sys.stderr)")
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


@pytest.mark.parametrize("first", ["", "import symsyz.cli"])
def test_import_as_binds_the_module(first):
    # `import symsyz.<name> as m` reads the package attribute, which a
    # re-export of the same name once shadowed (symsyz.bott was the function);
    # a lazy module must be that attribute too
    body = first + "\nimport symsyz\n" + "\n".join(
        f"import symsyz.{name} as m\n"
        f"assert m is sys.modules['symsyz.{name}'] is symsyz.{name}, {name!r}"
        for name in MODULES)
    done = run_script(body)
    assert done.returncode == 0, done.stderr


def test_resolve_runs_only_its_own_layers():
    ran = ran_modules('from symsyz.cli import main\n'
                      'sys.stdout = open(os.devnull, "w")\n'
                      'main(["resolve", "--n", "6", "--k", "2", "--r", "6", "--format", "json"])')
    assert {"cli", "resolution", "bott", "partitions", "weyl"} <= ran  # the hook sees them
    assert not ran & LAZY


def test_bare_package_import_loads_no_module():
    done = run_script("import symsyz; print(sorted(m for m in sys.modules if m.startswith('symsyz.')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_minor_generators_runs_polynomials_alone():
    ran = ran_modules("from symsyz.resolution import minor_generators\nminor_generators(4, 1)")
    assert "polynomials" in ran
    assert not ran & {"geometry", "verify"}


@pytest.mark.parametrize("module, name, code", [
    ("geometry", "PluckerMismatch", "plucker-mismatch"),
    ("geometry", "SliceEscape", "slice-escape"),
    ("exactmat", "InexactElimination", "inexact-elimination"),
])
def test_lazy_module_failure_maps_to_its_code(module, name, code):
    # the failure class lives in a module that has not run when main starts,
    # under python -O as well: it is looked up only once the command fails
    body = f"""
import symsyz.cli as cli
def broken(*args):
    raise getattr(sys.modules["symsyz.{module}"], "{name}")("injected")
cli.check_parameters = broken
if "{module}" in ran:  # not an assert: python -O drops those
    sys.exit("{module} ran before main")
sys.exit(cli.main(["resolve", "--n", "4", "--k", "2", "--r", "4"]))
"""
    done = run_script(body, "-O")
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error:{code}: injected\n")


@pytest.mark.parametrize("kind", ["RuntimeError", "ZeroDivisionError"])
def test_unmapped_failure_keeps_its_traceback(kind):
    body = f"""
import symsyz.cli as cli
def broken(*args):
    raise {kind}("injected")
cli.check_parameters = broken
sys.exit(cli.main(["resolve", "--n", "4", "--k", "2", "--r", "4"]))
"""
    done = run_script(body, "-O")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("Traceback (most recent call last):")
    assert done.stderr.endswith(f"{kind}: injected\n") and "error:" not in done.stderr
