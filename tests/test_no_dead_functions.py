"""Every module-level function and private method of the package has a
reader.

When a new path replaces an old one, the old one must go, or move into
tests/oracles.py as a reference. This scan fails on a module-level
function in src/stereograph that nothing reaches: it must be referenced
outside its own definition somewhere in the package (a name or an
attribute, not an import and not an ``__all__`` entry), be exported from
``stereograph``, or be named by (module, attribute) in
perfbench/spans.py, which traces it. perfbench/ is only read. A private
method of a class (``_name``, not a dunder) must be read on some line of
the package outside its own definition.
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


def read_elsewhere(
    refs: list[tuple[str, int, str]], module: str, node: ast.FunctionDef
) -> bool:
    """Whether node's name is read outside node's own lines."""
    own = range(node.lineno, node.end_lineno + 1)
    return any(n == node.name and not (m == module and line in own) for m, line, n in refs)


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
            if read_elsewhere(refs, module, node):
                continue
            if name not in exported and (module, name) not in traced:
                unread.append(f"{module}.{name}")
    return unread


def unread_private_methods(trees: dict[str, ast.Module]) -> list[str]:
    """module.Class.name of each private method of a module-level class
    that no line of the package outside its own definition reads."""
    refs = references(trees)
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder and not read_elsewhere(refs, module, node):
                    unread.append(f"{module}.{cls.name}.{name}")
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


def test_every_private_method_has_a_reader():
    unread = unread_private_methods(parsed_modules())
    assert unread == [], "nothing in the package reads " + ", ".join(unread)


def test_scan_flags_an_unread_private_method():
    """Recursion does not count as a reader, and public and dunder
    methods are not scanned."""
    source = """
class Walker:
    def __init__(self):
        self.steps = 0

    def walk(self):
        return self._used()

    def _used(self):
        return 1

    def _dead(self):
        return self._dead()

    def public(self):
        return 2
"""
    trees = {"stereograph.m": ast.parse(source)}
    assert unread_private_methods(trees) == ["stereograph.m.Walker._dead"]


def unraised_errors(errors_tree: ast.Module, package_lines: list[str]) -> list[str]:
    """Each StereographError subclass defined in errors_tree, the base
    excluded, that no line of package_lines raises as ``raise Name(``."""
    return [
        node.name
        for node in errors_tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "StereographError" for b in node.bases)
        and not any(f"raise {node.name}(" in line for line in package_lines)
    ]


def test_every_error_type_is_raised():
    errors_path = PACKAGE_DIR / "errors.py"
    lines = [
        line
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path != errors_path
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    errors_tree = ast.parse(errors_path.read_text(encoding="utf-8"))
    unraised = unraised_errors(errors_tree, lines)
    assert unraised == [], "nothing in the package raises " + ", ".join(unraised)


def test_scan_flags_an_unraised_error():
    """Naming or catching a type is not raising it, and the base is not
    scanned."""
    source = """
class StereographError(Exception):
    pass


class Raised(StereographError, ValueError):
    pass


class Caught(StereographError, ValueError):
    pass
"""
    lines = ["raise Raised(f'bad {x}')", "except Caught:", "    raise Caught", "Caught('x')"]
    assert unraised_errors(ast.parse(source), lines) == ["Caught"]
