"""The library names the benchmark reaches into must keep resolving.

perfbench/spans.py wraps functions and methods by (module, attribute)
name, and perfbench/batch.py reads both polynomial caches'
cache_info(); a rename or deletion here would break tracing or every
benchmark batch, so it fails tier-1 instead. spans.py is only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize(
    "module_name, attr",
    [entry[:2] for entry in SPANS.FUNCTIONS + SPANS.ITERATORS],
)
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


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
    assert cached.cache_info().maxsize
