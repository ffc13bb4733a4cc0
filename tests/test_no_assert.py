"""Library checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import stereograph

PACKAGE_DIR = Path(stereograph.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "raise a typed error instead of assert at " + ", ".join(found)
