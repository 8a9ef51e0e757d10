"""The names the benchmark's traced runs rely on.

perfbench/trace_child.py replaces every function listed in its WRAPPED
table by name and reads `enumerate_Q.cache_info()`; a rename or deletion in
symsyz would surface only in a traced run, since Tier-1 does not collect
perfbench/. The table is read from the source, without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


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
