"""Structural guards on the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparselsfd"


def private_sibling_imports(path):
    """(module, name) of every `_`-prefixed name imported from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("sparselsfd")
        ):
            found += [(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_private_names_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: private_sibling_imports(path) for path in modules}
    assert {name: found for name, found in offenders.items() if found} == {}
