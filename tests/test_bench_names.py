"""The benchmark tracer wraps layer functions by name: every name it lists must exist.

``bench/tracing.py`` imports only the standard library, so it is loaded here by path; a
function or method renamed or deleted under ``src/`` then fails this test instead of the
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod, fname, span", tracing.FUNCTIONS, ids=[span for *_, span in tracing.FUNCTIONS])
def test_traced_function_exists(mod, fname, span):
    assert callable(getattr(importlib.import_module(f"vbgroupoids.{mod}"), fname))


@pytest.mark.parametrize("mod, cls, meth, span", tracing.METHODS, ids=[span for *_, span in tracing.METHODS])
def test_traced_method_exists(mod, cls, meth, span):
    assert callable(getattr(getattr(importlib.import_module(f"vbgroupoids.{mod}"), cls), meth))
