"""Every module-level function of the package has a reader.

When a new path replaces an old one, the old one must go, or move into
tests/oracles.py as a reference. This scan fails on a module-level
function in src/stereograph that nothing reaches: it must be referenced
outside its own definition somewhere in the package (a name or an
attribute, not an import and not an ``__all__`` entry), be exported from
``stereograph``, or be named by (module, attribute) in
perfbench/spans.py, which traces it. perfbench/ is only read.
"""

import ast
from pathlib import Path

import stereograph

PACKAGE_DIR = Path(stereograph.__file__).parent
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def parsed_modules() -> dict[str, ast.Module]:
    return {
        f"stereograph.{path.stem}": ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }


def traced_names() -> set[tuple[str, str]]:
    """The (module, attribute) pairs spans.py writes as string tuples."""
    tree = ast.parse(SPANS_PATH.read_text(encoding="utf-8"))
    return {
        (node.elts[0].value, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) >= 2
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts[:2])
    }


def references(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every name read and attribute taken."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                found.append((module, node.lineno, node.attr))
    return found


def unread_functions(
    trees: dict[str, ast.Module], exported: set[str], traced: set[tuple[str, str]]
) -> list[str]:
    """module.name of each module-level function that nothing reaches:
    no reference outside its own lines, no export and no trace."""
    refs = references(trees)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            own = range(node.lineno, node.end_lineno + 1)
            if any(n == name and not (m == module and line in own) for m, line, n in refs):
                continue
            if name not in exported and (module, name) not in traced:
                unread.append(f"{module}.{name}")
    return unread


def test_every_function_has_a_reader():
    trees = parsed_modules()
    assert len(trees) > 5
    traced = traced_names()
    assert ("stereograph.graphs", "max_clique_size") in traced
    exported = {name for name, value in vars(stereograph).items() if callable(value)}
    unread = unread_functions(trees, exported, traced)
    assert unread == [], "no caller, export or trace reaches " + ", ".join(unread)


def test_scan_flags_an_unread_function():
    """Recursion, an import and an __all__ entry do not count as readers."""
    source = """
from .other import dead

__all__ = ["dead"]


def used():
    return 1


def dead():
    return dead()


def traced():
    return 2


def exported():
    return 3


x = used()
"""
    trees = {"stereograph.m": ast.parse(source)}
    traced = {("stereograph.m", "traced")}
    assert unread_functions(trees, {"exported"}, traced) == ["stereograph.m.dead"]
