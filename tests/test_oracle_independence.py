"""The oracles in tests/oracles.py are written from first principles: the
file imports nothing from symsyz, anywhere in it, so a reference that the
tests compare the library against never runs the library's own code."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def symsyz_imports(tree: ast.Module) -> list[str]:
    """Every `import symsyz...` or `from symsyz... import` in the tree, as
    "line: module", nested ones included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found.extend(f"{node.lineno}: {module}" for module in modules
                     if module == "symsyz" or module.startswith("symsyz."))
    return found


def test_oracles_import_nothing_from_symsyz():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "partitions_of"
               for node in tree.body), "the scan must see the oracles"
    assert symsyz_imports(tree) == []


def test_scan_flags_every_import_form():
    source = '''
import itertools, symsyz.partitions
from symsyz import weyl
import symsyzlike

def oracle():
    from symsyz.bott import bott
    return bott
'''
    assert symsyz_imports(ast.parse(source)) == [
        "2: symsyz.partitions", "3: symsyz", "7: symsyz.bott"]
