"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  The statistical criteria pin the shipped seed (0) at
N = 300; their budgets are generous on a desktop core but the suite
stays under ten minutes even with the module tests included.
"""

import json
import math
import time
from dataclasses import replace

import pytest

from reentrysim.aero import vehicle_drag_model
from reentrysim.atmosphere import AtmosphereModel, DEFAULT_ATMOSPHERE
from reentrysim.cli import main
from reentrysim.dynamics import (
    G0,
    IntegratorConfig,
    VehicleSpec,
    integrate_until,
    make_vehicle_rhs,
    rk4_step,
    specific_energy,
)
from reentrysim.engagement import monte_carlo_batch, error_vs_navigation_sweep
from reentrysim.guidance import evasion_radius, hold_gain_from_turn
from reentrysim.interceptor import (
    TYPE1_KILL_TABLE,
    TYPE2_KILL_TABLE,
    kill_probability,
    pinned_pitch_profile,
    type1_spec,
    type2_spec,
)
from reentrysim.presets import (
    CALIBRATED_NOISE,
    ENTRY,
    PRESET_RANGES,
    scenario_for_range,
    terminal_engagement_scenario,
)

VACUUM = AtmosphereModel(
    rho0=0.0,
    k_decay=DEFAULT_ATMOSPHERE.k_decay,
    vs_branches=DEFAULT_ATMOSPHERE.vs_branches,
)

# downrange reference ladder for the uncontrolled entry, t = 10..60 s
BALLISTIC_X = (78_617.0, 157_160.0, 235_596.0, 313_791.0, 391_361.0, 467_111.0)


def test_criterion_1_ballistic_phase_reproduction():
    start = time.perf_counter()
    rhs = make_vehicle_rhs(VehicleSpec())
    cfg = IntegratorConfig(dt=0.02, t_max=60.0)
    traj = integrate_until(rhs, lambda t, y: 0.0, 0.0, ENTRY.as_vector(), cfg, sample_interval=10.0)
    by_time = {round(p.t): p.y[0] for p in traj.samples}
    for k, expected in enumerate(BALLISTIC_X, start=1):
        assert by_time[10 * k] == pytest.approx(expected, rel=0.02), f"t={10 * k}s"
    assert time.perf_counter() - start < 1.0


def test_criterion_2_touchdown_timing():
    from reentrysim.engagement import simulate_vehicle_run

    start = time.perf_counter()
    short = simulate_vehicle_run(scenario_for_range(615_000))
    assert time.perf_counter() - start < 1.0
    assert short.flight_time == pytest.approx(92.0, abs=5.0)
    assert short.touchdown[0] == pytest.approx(615_000.0, rel=0.02)

    start = time.perf_counter()
    long = simulate_vehicle_run(scenario_for_range(800_000))
    assert time.perf_counter() - start < 1.0
    assert long.flight_time == pytest.approx(153.0, abs=8.0)
    assert long.touchdown[0] == pytest.approx(800_000.0, rel=0.02)


def test_criterion_3_vacuum_energy_conservation():
    rhs = make_vehicle_rhs(VehicleSpec(), VACUUM)
    cfg = IntegratorConfig(dt=0.02, t_max=100.0, sample_interval=0.5)
    y0 = (0.0, 60_000.0, 0.0, 2000.0, 0.2, 0.0, 0.0)
    traj = integrate_until(rhs, lambda t, y: 0.0, 0.0, y0, cfg)
    assert traj.event == "timeout"
    e0 = specific_energy(y0[1], y0[3])
    worst = max(abs(specific_energy(p.y[1], p.y[3]) - e0) / e0 for p in traj.samples)
    assert worst < 1e-9


def test_criterion_4_integrator_order():
    start = time.perf_counter()
    rhs = make_vehicle_rhs(VehicleSpec())
    y0 = (0.0, 12_000.0, 0.0, 2000.0, -0.5, 0.0, 0.0)

    def terminal_state(dt, t_end=8.0):
        y = y0
        for k in range(round(t_end / dt)):
            y = rk4_step(rhs, k * dt, y, -6.0, dt)
        return y

    def err(dt):
        ref = terminal_state(dt / 16.0)
        got = terminal_state(dt)
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(got, ref)))

    errors = {dt: err(dt) for dt in (0.08, 0.04, 0.02)}
    for coarse, fine in ((0.08, 0.04), (0.04, 0.02)):
        ratio = errors[coarse] / errors[fine]
        assert 8.0 <= ratio <= 32.0, f"halving {coarse}: ratio {ratio:.2f}"
    assert time.perf_counter() - start < 10.0


def test_criterion_5_closed_form_spot_checks():
    assert DEFAULT_ATMOSPHERE.speed_of_sound(0.0) == 340.28
    assert vehicle_drag_model().cx(1.0) == 1.0
    assert evasion_radius(2000.0, 1800.0, 3000.0).approximate == pytest.approx(3703.7, abs=0.1)
    assert hold_gain_from_turn(2000.0, 10_000.0, 33_000.0, 30_000.0).gain == pytest.approx(0.01359, abs=1e-5)


def test_criterion_6_interceptor_calibration():
    start = time.perf_counter()
    t1 = type1_spec()
    prof1 = pinned_pitch_profile(t1, 2.321, 40.0, DEFAULT_ATMOSPHERE, G0)
    assert prof1.v_peak == pytest.approx(1626.0, rel=0.05)
    assert prof1.t_peak == pytest.approx(14.0, abs=1.0)
    assert t1.mass_at(t1.burn_time) == 302.8
    prof2 = pinned_pitch_profile(type2_spec(), 3.0181, 35.0, DEFAULT_ATMOSPHERE, G0)
    assert prof2.v_peak == pytest.approx(721.0, rel=0.05)
    assert time.perf_counter() - start < 5.0


@pytest.mark.slow
def test_criterion_7_monotone_statistical_trends():
    from reentrysim.engagement import probability_vs_speed_sweep, summarize, batch_run_results

    start = time.perf_counter()
    base = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=300, seed=0)

    # (a) landing error shrinks as the navigation window stretches
    rows = error_vs_navigation_sweep(base, PRESET_RANGES)
    assert all(row.failed is None for row in rows)
    navs = [row.nav_time for row in rows]
    maxes = [row.max_error for row in rows]
    assert all(b > a for a, b in zip(navs, navs[1:]))
    assert all(b < a for a, b in zip(maxes, maxes[1:])), f"max ladder {maxes}"
    for row in rows:
        if row.nav_time < 15.0:
            assert row.max_error > 15.0

    # (b) faster targets are intercepted no more often, for both types
    speed_rows = probability_vs_speed_sweep(base, [1200.0, 1400.0, 1600.0, 1800.0, 2000.0])
    p1 = [row.p_type1 for row in speed_rows]
    p2 = [row.p_type2 for row in speed_rows]
    assert all(b <= a for a, b in zip(p1, p1[1:])), f"type-1 {p1}"
    assert all(b <= a for a, b in zip(p2, p2[1:])), f"type-2 {p2}"

    # (c) the fast evading target survives almost every run
    evading = replace(
        terminal_engagement_scenario(2000.0, "type-1", evasion_enabled=True),
        noise=CALIBRATED_NOISE, runs=300, seed=0,
    )
    stats = summarize(batch_run_results(evading))
    assert stats.p_intercept <= 0.2, (
        f"p={stats.p_intercept:.4f} +- {stats.p_stderr:.4f} (binomial SE)"
    )
    assert stats.p_stderr == pytest.approx(
        math.sqrt(stats.p_intercept * (1 - stats.p_intercept) / stats.n)
    )
    assert time.perf_counter() - start < 300.0


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    ini = tmp_path / "noisy.ini"
    ini.write_text(
        "[batch]\npreset = x615\n\n[noise]\n"
        "seeker_angle_sigma = 0.01\n"
        "atmosphere_density_sigma = 0.03\n"
        "turbulence_sigma = 0.35\n",
        encoding="utf-8",
    )
    args = ["batch", "--scenario", str(ini), "--n", "60", "--seed", "11"]
    dirs = [tmp_path / name for name in ("first", "second", "parallel")]
    assert main(args + ["--out", str(dirs[0])]) == 0
    assert main(args + ["--out", str(dirs[1])]) == 0
    assert main(args + ["--out", str(dirs[2]), "--workers", "2"]) == 0
    for name in ("runs.csv", "summary.csv"):
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref
        assert (dirs[2] / name).read_bytes() == ref
    # manifests agree on everything that is not the output location
    manifests = [json.loads((d / "manifest.json").read_text()) for d in dirs]
    for m in manifests:
        m["command"] = ""
    assert manifests[0] == manifests[1] == manifests[2]
    assert time.perf_counter() - start < 60.0


def test_criterion_9_kill_table_fidelity():
    for table in (TYPE1_KILL_TABLE, TYPE2_KILL_TABLE):
        for p, h, d, v in table.rows:
            assert kill_probability(table, h, d, v) == p
