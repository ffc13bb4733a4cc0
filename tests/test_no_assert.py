"""Library checks must survive ``python -O``, which strips ``assert``."""

import ast
import os
import subprocess
import sys
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


# Under -O, one bad input per consolidated check; each prints its error.
OPTIMIZED_SCRIPT = """
import sys
from stereograph import census, from_edge_list, from_pattern, gen_complete_bipartite, reduce_to_k2
from stereograph.model import pattern_slot

def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"

print(sys.flags.optimize)
print(raised(from_pattern, 0, ()))
print(raised(reduce_to_k2, gen_complete_bipartite(3), [(2, 2), (1, 3)]))
print(raised(from_edge_list, 2, [(0, 4)]))
print(raised(pattern_slot, 3, 1.0, 2.0))
print(raised(gen_complete_bipartite(3).bit, 1.0, 2))
print(raised(census, 3, "6"))
"""


def test_checks_survive_optimized_mode():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "1",
        "DomainError: pair count must be a positive int, got 0",
        "InvalidOrder: step 0: pair (2, 2) is not alive in (1, 2, 3)",
        "DomainError: edge (0, 4) references a vertex outside 0..3",
        "DomainError: pair indices must be ints, got (1.0, 2.0)",
        "DomainError: pair indices must be ints, got (1.0, 2)",
        "DomainError: limit must be None or a positive int, got '6'",
    ]
