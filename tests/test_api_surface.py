"""The design rule "no function that lacks a non-test consumer", held by a
test: every public top-level function or class in `src/symsyz` is reachable
from a root, following the names each definition uses. The roots are
`cli.main`, the module-level code of each module (constants, tables, the
`__main__` guard) and every name that the benchmark scripts in `perfbench/`
mention. Tests do not count as consumers, and re-exports in `__init__.py`
do not either. A chain of definitions that only call one another is
unreachable, however long it is."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symsyz"


def _names_used(node: ast.AST) -> set[str]:
    """Names loaded in `node`, as plain names or as attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            used.add(sub.attr)
    return used


def _is_definition(statement: ast.stmt) -> bool:
    return isinstance(statement, (ast.FunctionDef, ast.ClassDef))


def unreachable_public_definitions(modules: dict[str, ast.Module], bench_text: str) -> list[str]:
    """The public top-level definitions, as "module.name", that no root
    reaches. A name reaches every top-level definition of that name, in any
    module, and a reached definition reaches the names it uses."""
    definitions: dict[str, list[tuple[str, ast.stmt]]] = {}
    frontier = ["main"]
    for module, tree in modules.items():
        for statement in tree.body:
            if _is_definition(statement):
                definitions.setdefault(statement.name, []).append((module, statement))
            else:
                frontier.extend(_names_used(statement))
    frontier.extend(name for name in definitions
                    if re.search(rf"\b{re.escape(name)}\b", bench_text))
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        for _, statement in definitions[name]:
            frontier.extend(_names_used(statement))
    return sorted(f"{module}.{name}" for name, found in definitions.items()
                  if name not in reached and not name.startswith("_")
                  for module, _ in found)


def test_every_public_definition_has_a_consumer():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    # the scan must see the package: a few definitions it has to find
    names = {f"{module}.{s.name}" for module, tree in modules.items()
             for s in tree.body if _is_definition(s)}
    assert {"geometry.is_symplectic", "geometry.OppositeCellPoint", "partitions.hook_family",
            "cli.main"} <= names
    bench_text = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = unreachable_public_definitions(modules, bench_text)
    assert not unused, f"public definitions no root reaches: {unused}"


def test_reachability_flags_a_closed_chain():
    source = '''
def main():
    return _helper()

def _helper():
    return from_table()

def from_table():
    return 1

TABLE = {"entry": listed}

def listed():
    return 2

def benched():
    return 3

def outer():
    return inner()

def inner():
    return 4
'''
    found = unreachable_public_definitions({"m": ast.parse(source)}, "trace benched()")
    # `inner` has a consumer, `outer`, yet neither is reachable
    assert found == ["m.inner", "m.outer"]
