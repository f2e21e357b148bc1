"""The span and cache names of bench/tracer.py exist in the package.

The tracer patches functions by name; a name that no longer exists would
make a traced benchmark pass fail or read a metric as zero.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in tracer.SPANS.items() for name in names])
def test_span_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, name", [
    pair for pairs in tracer.CACHES.values() for pair in pairs])
def test_cache_function_has_cache_info(module, name):
    fn = getattr(importlib.import_module(module), name, None)
    assert callable(getattr(fn, "cache_info", None))
