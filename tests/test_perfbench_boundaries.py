"""The benchmark's traced run wraps the package at named boundaries.

``perfbench/spans.py`` lists them; a boundary that no longer resolves
turns its per-layer metrics into None.  This loads that list by path and
checks every entry against the package, so a rename shows up here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module_name, class_name, attr, span, kind", spans.BOUNDARIES)
def test_every_traced_boundary_resolves(module_name, class_name, attr, span, kind):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr))
    assert callable(getattr(spans.Tracer, f"_wrap_{kind}"))


@pytest.mark.parametrize("name", spans.CACHES)
def test_every_traced_cache_resolves(name):
    engagement = importlib.import_module("reentrysim.engagement")
    assert getattr(engagement, name).cache_info().maxsize > 0
