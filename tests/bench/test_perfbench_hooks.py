"""The repository benchmark's layer hooks must name real functions.

The traced benchmark run (``perfbench/spans.py``) wraps pipeline
functions by module and attribute name.  Renaming or removing one of
them would otherwise surface only when the benchmark runs, as a
``KeyError``; this test resolves every entry the same way.
"""

import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

HOOKS = spans.SYNTHESIS_LAYERS + spans.SERVICE_LAYERS + spans.COUNTED


@pytest.mark.parametrize(
    "name, module, attribute", HOOKS, ids=[f"{m}:{a}" for _, m, a in HOOKS]
)
def test_hook_resolves_to_a_function(name, module, attribute):
    _owner, attr, function = spans._resolve(module, attribute)
    assert attr == attribute.rsplit(".", 1)[-1]
    assert callable(function)


def test_tracing_restores_every_original():
    tracing = spans.Tracing(spans.Recorder())
    with tracing:
        assert tracing._patched
    assert tracing.restored()
