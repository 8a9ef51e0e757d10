"""The names the benchmark's operations rely on.

perfbench/trace_child.py replaces every function listed in its WRAPPED
table by name and reads `enumerate_Q.cache_info()`, and
perfbench/gencount.py imports names from symsyz; a rename or deletion in
symsyz would surface only in a benchmark run, since Tier-1 does not collect
perfbench/. Both files are read from the source, without importing them.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
