"""The benchmark's traced run wraps the package at named boundaries.

``perfbench/spans.py`` lists them; a boundary that no longer resolves
turns its per-layer metrics into None.  This loads that list by path and
checks every entry against the package, so a rename shows up here, and
traces two short runs, so a run that steps past a boundary shows up too.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from reentrysim import cli, dynamics, engagement
from reentrysim.engagement import NoiseConfig
from reentrysim.presets import scenario_for_range, terminal_engagement_scenario

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


def test_traced_runs_step_through_the_boundaries(tmp_path):
    base = scenario_for_range(615_000)
    vehicle_only = replace(base, integrator=replace(base.integrator, t_max=2.0))
    engaged = terminal_engagement_scenario(700.0, "type-1")
    # warm the launch-planning caches, so every traced step is a run's own
    assert any(label.startswith("launch:") for _, label in
               engagement.simulate_engagement(engaged).events)
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        engagement.simulate_vehicle_run(vehicle_only)
        assert tracer.counters["vehicle_steps"] == 100
        engagement.simulate_engagement(engaged)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.missing == []
    assert tracer.counters["vehicle_steps"] > 100
    assert tracer.counters["interceptor_steps"] > 0
    assert metrics["dynamics.rhs_per_step"] == 4.0
    assert metrics["guidance.control.calls"] == tracer.counters["vehicle_steps"]


def test_cold_cache_engagement_traces_the_nominal_flight(tmp_path):
    """Launch planning flies the noise-free track through the same step
    loop as the run, so a cold cache adds exactly that flight's steps."""
    engaged = terminal_engagement_scenario(700.0, "type-1")
    quiet = replace(engaged, noise=NoiseConfig(), sites=(), runs=1, seed=0)
    engagement._nominal_track.cache_clear()
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        cold = engagement.simulate_engagement(engaged)
        cold_steps = tracer.counters["vehicle_steps"]
        warm = engagement.simulate_engagement(engaged)
        run_steps = tracer.counters["vehicle_steps"] - cold_steps
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert cold == warm
    assert run_steps > 0
    rhs = dynamics.make_vehicle_rhs(quiet.vehicle, quiet.atmosphere, quiet.integrator.g)
    nominal = dynamics.integrate_until(
        rhs, engagement._VehicleControl(quiet, None), quiet.entry.t, quiet.entry.as_vector(),
        quiet.integrator,
    )
    assert cold_steps == run_steps + nominal.steps
    assert tracer.metrics()["guidance.control.calls"] == cold_steps + run_steps


def test_traced_cli_writes_count_the_bytes_of_each_file(tmp_path):
    """Every writer hands the trace the path of the file it wrote, so
    ``cli.write.bytes`` sums file sizes and never reads a directory's."""
    out = tmp_path / "fly"
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert cli.main(["fly", "--scenario", "x950", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.stats["cli.write"][0] == 2
    sizes = [(out / name).stat().st_size for name in ("trajectory.csv", "manifest.json")]
    assert tracer.metrics()["cli.write.bytes"] == sum(sizes)
