"""The design rule "no function that lacks a non-test consumer", held by a
test: every public top-level function or class in `src/symsyz` is used
outside its own definition, somewhere in `src/symsyz` or by the benchmark
scripts in `perfbench/`. Tests do not count as consumers, and re-exports in
`__init__.py` do not either."""

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


def _public_definitions_and_uses():
    """Every public top-level def or class as (module, node), and every
    top-level statement of the package with the names it uses; a
    definition's consumers are the statements other than itself."""
    definitions = []
    uses_by_statement = []  # (module, statement, names used in it)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            uses_by_statement.append((path.stem, statement, _names_used(statement)))
            if (isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                    and not statement.name.startswith("_")):
                definitions.append((path.stem, statement))
    return definitions, uses_by_statement


def test_every_public_definition_has_a_consumer():
    definitions, uses = _public_definitions_and_uses()
    # the scan must see the package: a few definitions it has to find
    assert {"geometry.is_symplectic", "geometry.OppositeCellPoint", "partitions.hook_family",
            "cli.main"} <= {f"{module}.{d.name}" for module, d in definitions}
    bench_text = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for module, definition in definitions:
        name = definition.name
        in_src = any(name in names for _, statement, names in uses if statement is not definition)
        in_bench = re.search(rf"\b{re.escape(name)}\b", bench_text) is not None
        if not (in_src or in_bench):
            unused.append(f"{module}.{name}")
    assert not unused, f"public definitions with no consumer outside tests: {unused}"

