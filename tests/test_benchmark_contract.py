"""The library names the benchmark reaches into must keep resolving.

perfbench/spans.py wraps functions and methods by (module, attribute)
name and reads a value off some of their results, and perfbench/batch.py
reads both polynomial caches' cache_info(); a rename or deletion here
would break tracing or every benchmark batch, so it fails tier-1
instead. The CSI spans must also stay live: a report reaches them
through the attributes spans.py wraps. One csi_files batch also runs
end to end and must check clean. perfbench/ is only read.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import three_block_graph
from stereograph import gen_random, stability_report
from stereograph.chromatic import _stability_report_cached

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()

# Arguments, built from one small graph, for each traced function whose
# span records a value taken from its result.
VALUE_ARGS = {
    "greedy_coloring": lambda g: (g.graph,),
    "max_clique_size": lambda g: (g.graph,),
    "graph_isomorphic": lambda g: (g.graph, g.graph),
    "reduce_to_k2": lambda g: (g,),
}


@pytest.mark.parametrize(
    "module_name, attr",
    [entry[:2] for entry in SPANS.FUNCTIONS + SPANS.ITERATORS],
)
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize(
    "module_name, attr, value",
    [
        pytest.param(module, attr, value, id=attr)
        for module, attr, _, value in SPANS.FUNCTIONS
        if value is not None
    ],
)
def test_traced_value_reads_the_result(module_name, attr, value):
    fn = getattr(importlib.import_module(module_name), attr)
    g = gen_random(4, 0)
    assert isinstance(value(fn(*VALUE_ARGS[attr](g))), int)


@pytest.mark.parametrize("cls, attr", [entry[:2] for entry in SPANS.METHODS])
def test_traced_method_resolves(cls, attr):
    assert callable(getattr(cls, attr))


@pytest.mark.parametrize(
    "module_name, attr",
    [
        ("stereograph.spectral", "characteristic_polynomial"),
        ("stereograph.chromatic", "_chromatic_polynomial_cached"),
    ],
)
def test_polynomial_cache_exposes_cache_info(module_name, attr):
    cached = getattr(importlib.import_module(module_name), attr)
    info = cached.cache_info()
    assert info.maxsize
    assert cached.__name__ == attr
    for field in ("currsize", "hits", "misses"):
        assert isinstance(getattr(info, field), int)


CSI_SPANS = ("chromatic.csi", "chromatic.greedy")


@pytest.mark.parametrize(
    "g, index, calls",
    [
        pytest.param(gen_random(9, 0), 5, 1, id="searched"),
        pytest.param(three_block_graph([0, 1, 1, 2, 0, 2, 1, 2, 0]), 3, 0, id="three-blocks"),
    ],
)
def test_report_reaches_the_csi_spans(monkeypatch, g, index, calls):
    """A computed report calls each CSI span's function once through the
    module attribute spans.py wraps when the exact search decides the
    index, and neither when csi reads index 3 off the pattern."""
    counts = dict.fromkeys(CSI_SPANS, 0)

    def counted(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        return wrapper

    for module_name, attr, name, _ in SPANS.FUNCTIONS:
        if name in CSI_SPANS:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    _stability_report_cached.cache_clear()
    assert stability_report(g).csi == index
    assert counts == dict.fromkeys(CSI_SPANS, calls)


def test_csi_files_batch_checks_clean(tmp_path):
    """One untraced csi_files batch in a fresh interpreter, as the
    benchmark runs it: every build, generate, validate and csi --witness
    output passes the workload's own checks."""
    # No bytecode files, so the run leaves perfbench/ as it was.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "batch.py"),
            "--workload",
            "csi_files",
            "--seed",
            "1",
            "--workdir",
            str(tmp_path / "work"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["errors"] == []
    assert len(result["op_s"]) == 3 * (11 + 12 + 13 + 12)
