import hashlib
import math
import pickle
import statistics
from collections import Counter
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest

from reentrysim import cli, dynamics, engagement, interceptor
from reentrysim.dynamics import SPEED_GUARD
from reentrysim.engagement import (
    GaussianStream,
    InterceptorSite,
    MISS_NONE,
    NoiseConfig,
    RunResult,
    SpeedRow,
    SweepRow,
    batch_run_results,
    error_vs_navigation_sweep,
    monte_carlo_batch,
    probability_vs_speed_sweep,
    simulate_engagement,
    simulate_vehicle_run,
    summarize,
)
from reentrysim.errors import BatchError, ConfigError, DomainError
from reentrysim.interceptor import LaunchPlan, type1_spec, type2_spec
from reentrysim.presets import (
    CALIBRATED_NOISE,
    PRESET_RANGES,
    range_preset,
    scenario_for_range,
    terminal_engagement_scenario,
)


def float_bits(value):
    """``value`` with every float, in tuples too, as its ``hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(float_bits, value))
    return value


def run_pickles(results) -> list:
    """Each run pickled after a round trip, to compare pooled with serial
    results: nan fields defeat ==, and results from a worker arrive
    unpickled, their event labels no longer the strings that serial results
    share (the 'touchdown' label is the interned field name), so a whole
    batch's pickle differs; a round trip per run puts both in one form and
    keeps every float bit."""
    return [pickle.dumps(pickle.loads(pickle.dumps(r))) for r in results]


class TestGaussianStream:
    def test_zero_sigma_returns_the_mean(self):
        s = GaussianStream(3)
        assert s.gaussian(5.0, 0.0) == 5.0

    def test_moments(self):
        s = GaussianStream(12)
        draws = [s.gaussian() for _ in range(100_000)]
        assert statistics.fmean(draws) == pytest.approx(0.0, abs=0.02)
        assert statistics.pstdev(draws) == pytest.approx(1.0, abs=0.02)

    def test_seed_determinism(self):
        a = [GaussianStream(9).gaussian() for _ in range(5)]
        b = [GaussianStream(9).gaussian() for _ in range(5)]
        assert a == b

    def test_substreams_are_reproducible_and_distinct(self):
        root = GaussianStream(4)
        s0 = [root.substream(0).gaussian() for _ in range(3)]
        s0_again = [GaussianStream(4).substream(0).gaussian() for _ in range(3)]
        s1 = [GaussianStream(4).substream(1).gaussian() for _ in range(3)]
        assert s0 == s0_again
        assert s0 != s1
        nested = GaussianStream(4).substream(1).substream(2).gaussian()
        assert nested == GaussianStream(4).substream(1).substream(2).gaussian()

    @pytest.mark.parametrize("seed, index", [(0, 0), (11, 2), (4099, 7)])
    def test_sequence_is_box_muller_over_single_uniform_draws(self, seed, index):
        # uniforms one call at a time, straight from the seed sequence
        gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        )

        def reference(mu, sigma):
            if sigma == 0.0:
                return mu
            u1 = gen.random()
            while u1 == 0.0:
                u1 = gen.random()
            u2 = gen.random()
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            return mu + sigma * z

        stream = GaussianStream(seed).substream(index)
        # 1,500 draws cross several block boundaries; zero-sigma draws use no uniforms
        for k in range(1500):
            mu, sigma = 0.5 * (k % 3), 0.0 if k % 7 == 0 else 0.35
            assert stream.gaussian(mu, sigma).hex() == reference(mu, sigma).hex(), k

    def test_zero_uniforms_are_skipped_across_a_block_boundary(self):
        class Blocks:
            """Serves fixed uniform blocks in place of the generator."""

            def __init__(self, *blocks):
                self.blocks = iter(blocks)

            def random(self, _size):
                return np.array(next(self.blocks))

        stream = GaussianStream(0)
        stream._gen = Blocks([0.3, 0.6, 0.0], [0.7, 0.8, 0.1], [0.4, 0.9, 0.0, 0.5])

        def box_muller(u1, u2):
            return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

        # a zero u1 is redrawn, a zero u2 is kept, and a leftover uniform
        # is used before the next block
        assert stream.gaussian() == box_muller(0.3, 0.6)
        assert stream.gaussian() == box_muller(0.7, 0.8)
        assert stream.gaussian() == box_muller(0.1, 0.4)
        assert stream.gaussian() == box_muller(0.9, 0.0)

    def test_invalid_arguments(self):
        s = GaussianStream(0)
        with pytest.raises(DomainError):
            s.gaussian(0.0, -1.0)
        with pytest.raises(DomainError):
            s.gaussian(0.0, math.nan)
        with pytest.raises(DomainError):
            s.substream(-1)

    @pytest.mark.parametrize("make", [
        lambda: GaussianStream(2.7),
        lambda: GaussianStream(-1),
        lambda: GaussianStream("3"),
        lambda: GaussianStream(4).substream(1.5),
    ], ids=["float seed", "negative seed", "str seed", "float index"])
    def test_seeds_and_indices_must_be_non_negative_integers(self, make):
        """A float seed or index used to be truncated (seed 2.7 drew what
        seed 2 draws), and a negative seed failed only inside numpy."""
        with pytest.raises(DomainError):
            make()
        assert GaussianStream(np.int64(4)).substream(np.int64(1)).gaussian() == (
            GaussianStream(4).substream(1).gaussian())

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf])
    def test_infinite_sigma_is_rejected(self, sigma):
        """An infinite sigma used to return an infinite draw."""
        with pytest.raises(DomainError, match="sigma must be finite"):
            GaussianStream(0).gaussian(0.0, sigma)

    def test_a_stream_that_never_draws_holds_no_generator(self):
        root = GaussianStream(4)
        child = root.substream(1).substream(2)
        assert child.gaussian(1.0, 0.0) == 1.0  # a zero sigma draws nothing
        assert root._gen is None and child._gen is None
        child.gaussian()
        assert child._gen is not None and root._gen is None


class TestNoiseConfig:
    @pytest.mark.parametrize("name", ["seeker_angle_sigma", "atmosphere_density_sigma",
                                      "turbulence_sigma"])
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_negative_and_non_finite_sigmas_are_rejected(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            NoiseConfig(**{name: bad})


class TestVehicleRun:
    def test_short_range_descent(self):
        r = simulate_vehicle_run(scenario_for_range(615_000))
        assert r.failed is None
        assert r.flight_time == pytest.approx(93.27, abs=0.5)
        assert r.touchdown[0] == pytest.approx(615_020.0, abs=50.0)
        assert r.navigation_time == pytest.approx(25.4, abs=0.5)
        labels = [label for _, label in r.events]
        assert labels[0] == "phase:GRAVITATIONAL"
        assert "phase:TERMINAL" in labels
        assert labels[-1] == "touchdown"

    def test_long_range_flies_all_four_phases(self):
        r = simulate_vehicle_run(scenario_for_range(800_000))
        phases = [label for _, label in r.events if label.startswith("phase:")]
        assert phases == [
            "phase:GRAVITATIONAL",
            "phase:PULL_UP",
            "phase:ALTITUDE_HOLD",
            "phase:TERMINAL",
        ]
        assert r.flight_time == pytest.approx(152.9, abs=1.0)
        assert r.navigation_time == pytest.approx(52.5, abs=1.0)

    def test_noise_free_runs_land_on_target(self):
        for rng in (615_000, 675_000, 800_000):
            r = simulate_vehicle_run(scenario_for_range(rng))
            assert r.landing_error < 1.0, f"range {rng}"

    def test_terminal_homing_converges(self):
        sc = scenario_for_range(615_000)
        r = simulate_vehicle_run(sc, sample_interval=0.5)
        t_td = r.flight_time
        boresight = engagement._VehicleControl(sc, None)._alpha
        alphas = [
            (t, boresight(y[0], y[1], y[4]))
            for t, y, _ in r.samples
            if t_td - 10.0 <= t <= t_td - 1.0
        ]
        assert abs(alphas[-1][1]) < 0.05 * abs(alphas[0][1])
        tail = [abs(a) for t, a in alphas if t >= t_td - 3.0]
        assert all(b <= a + 1e-6 for a, b in zip(tail, tail[1:]))

    def test_timeout_marks_the_run_failed(self):
        sc = scenario_for_range(615_000)
        short = replace(sc, integrator=replace(sc.integrator, t_max=5.0))
        r = simulate_vehicle_run(short)
        assert r.failed == "timeout"
        assert math.isnan(r.landing_error)

    def test_same_stream_same_run(self):
        sc = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE)
        a = simulate_vehicle_run(sc, GaussianStream(11).substream(0))
        b = simulate_vehicle_run(sc, GaussianStream(11).substream(0))
        assert a == b

    def test_infinite_altitude_is_rejected(self):
        """It used to fly as a failed run.  The kernel's abort on such a state
        is pinned in test_dynamics, and an aborted flight recorded as a failed
        run by ``test_aborting_nominal_flight_is_a_failed_run``."""
        sc = scenario_for_range(615_000)
        with pytest.raises(ConfigError, match="entry y must be finite, got inf"):
            replace(sc, entry=replace(sc.entry, y=math.inf))

    @pytest.mark.parametrize("altitude", [0.0, -50.0, math.nan])
    def test_entry_at_or_below_ground_is_rejected(self, altitude):
        sc = scenario_for_range(615_000)
        with pytest.raises(ConfigError, match="entry altitude must be > 0"):
            replace(sc, entry=replace(sc.entry, y=altitude))

    @pytest.mark.parametrize("name", ["t", "x", "z"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_position_or_time_is_rejected(self, name, bad):
        sc = scenario_for_range(615_000)
        with pytest.raises(ConfigError, match=f"entry {name} must be finite"):
            replace(sc, entry=replace(sc.entry, **{name: bad}))

    @pytest.mark.parametrize("name", ["v", "theta", "n"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_speed_angle_or_load_is_rejected(self, name, bad):
        """On x800, theta or n = +-inf used to end the run with a bare
        ValueError from the vehicle kernel, and a NaN theta or n, or v = inf,
        to fail as "speed below guard"."""
        sc = scenario_for_range(800_000)
        with pytest.raises(ConfigError, match=f"entry {name} must be finite, got {bad}"):
            replace(sc, entry=replace(sc.entry, **{name: bad}))

    @pytest.mark.parametrize("heading", [0.3, -1e-9, math.pi, math.nan])
    def test_entry_heading_off_the_x_axis_is_rejected(self, heading):
        """Flight is planar; such a heading used to fly as w = 0 without a word."""
        sc = scenario_for_range(615_000)
        with pytest.raises(ConfigError, match="entry heading w must be 0"):
            replace(sc, entry=replace(sc.entry, w=heading))
        assert replace(sc, entry=replace(sc.entry, w=-0.0)).entry.w == 0.0

    @pytest.mark.parametrize("t", [600.0, 1e9])
    def test_entry_at_or_past_t_max_is_rejected(self, t):
        """Such a run used to take one step and fail with a timeout."""
        sc = scenario_for_range(615_000)
        with pytest.raises(ConfigError, match=r"entry t must be < t_max \(600.0\)"):
            replace(sc, entry=replace(sc.entry, t=t))

    @pytest.mark.parametrize("target", [(math.nan, 0.0), (615_000.0, math.inf)])
    def test_non_finite_target_is_rejected(self, target):
        with pytest.raises(ConfigError, match="target must be a finite"):
            replace(scenario_for_range(615_000), target=target)

    @pytest.mark.parametrize("name, bad", [("seed", 3.5), ("seed", "3"), ("runs", 2.5)])
    def test_seed_and_runs_must_be_integers(self, name, bad):
        """seed 3.5 used to run as seed 3, and runs 2.5 failed only when a
        batch came to count its runs."""
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            replace(scenario_for_range(615_000), **{name: bad})

    def test_integer_seed_and_runs_are_stored_as_int(self):
        """A numpy seed used to pass and then fail the manifest's JSON write."""
        sc = replace(scenario_for_range(615_000), seed=np.int64(3), runs=np.int32(2))
        assert (type(sc.seed), type(sc.runs)) == (int, int)
        assert (sc.seed, sc.runs) == (3, 2)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
    def test_kill_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ConfigError, match="kill_radius must be finite and > 0"):
            replace(terminal_engagement_scenario(1600.0, "type-1"), kill_radius=radius)


    @pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_sample_interval_is_rejected(self, interval):
        """It used to leak a raw ValueError (nan) or OverflowError (inf), or
        sample every step (0.0, -1.0)."""
        with pytest.raises(DomainError, match="sample_interval must be finite and > 0"):
            simulate_vehicle_run(scenario_for_range(615_000), sample_interval=interval)

def _hexed(rows):
    return [(t.hex(), tuple(v.hex() for v in y), u.hex()) for t, y, u in rows]


class TestStepLoop:
    """The two callers of the one step loop, ``dynamics._drive``: the
    production ``engagement._fly`` against the public driver
    ``dynamics.integrate_until`` on the same RHS and a fresh control."""

    @staticmethod
    def _driver(sc, sample_interval=None):
        rhs = dynamics.make_vehicle_rhs(sc.vehicle, sc.atmosphere, sc.integrator.g)
        return dynamics.integrate_until(
            rhs, engagement._VehicleControl(sc, None), sc.entry.t, sc.entry.as_vector(),
            sc.integrator, sample_interval=sample_interval or sc.integrator.dt,
        )

    @pytest.mark.parametrize("rng", [615_000, 800_000, 950_000])
    def test_vehicle_run_samples_every_step_as_the_driver(self, rng):
        sc = scenario_for_range(rng)
        traj = self._driver(sc)
        r = simulate_vehicle_run(sc, sample_interval=sc.integrator.dt)
        assert traj.event == "ground" and r.failed is None
        assert len(r.samples) == traj.steps + 1
        assert _hexed(r.samples) == _hexed(traj.samples)  # touchdown row included
        assert r.flight_time.hex() == traj.event_t.hex()
        assert r.touchdown == (traj.event_y[0], traj.event_y[2])

    def test_timeout_ends_where_the_driver_does(self):
        sc = scenario_for_range(615_000)
        short = replace(sc, integrator=replace(sc.integrator, t_max=5.0))
        traj = self._driver(short, sample_interval=1.0)
        r = simulate_vehicle_run(short, sample_interval=1.0)
        assert traj.event == "timeout"
        assert r.failed == "timeout"
        assert r.flight_time == traj.event_t
        assert r.events[-1] == (traj.event_t, "failed:timeout")
        assert _hexed(r.samples) == _hexed(traj.samples)  # timeout row included

    def test_nominal_track_is_the_driver_track_on_the_planning_grid(self):
        sc = terminal_engagement_scenario(700.0, "type-1")
        quiet = replace(sc, noise=NoiseConfig(), sites=(), runs=1, seed=0)
        track = engagement._nominal_track.__wrapped__(quiet)
        traj = self._driver(quiet, sample_interval=engagement.PLANNING_GRID)
        assert traj.event == "ground"
        # touchdown row included
        assert track == tuple((p.t, p.y[0], p.y[1]) for p in traj.samples)

    @pytest.mark.parametrize("scenario", [
        replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, seed=11),
        terminal_engagement_scenario(700.0, "type-1"),
    ], ids=["calibrated-x615", "terminal-700-type-1"])
    def test_bound_step_equals_the_dispatch_path(self, scenario):
        """The loops bind each RHS's fused step once; an RHS without one (a
        plain wrapper, as under the benchmark's timers) steps through
        ``engagement.rk4_step`` every step, with the same bits."""
        fly = simulate_engagement if scenario.sites else simulate_vehicle_run

        def plain(make):
            def make_plain(*args, **kwargs):
                rhs = make(*args, **kwargs)

                def wrapper(t, y, u):
                    return rhs(t, y, u)

                wrapper.made_by = make.__name__
                return wrapper

            return make_plain

        with mock.patch.object(engagement, "rk4_step", wraps=dynamics.rk4_step) as dispatch:
            bound = fly(scenario)
            assert not dispatch.called
            with mock.patch.object(engagement, "make_vehicle_rhs",
                                   plain(dynamics.make_vehicle_rhs)), \
                 mock.patch.object(engagement, "make_interceptor_rhs",
                                   plain(dynamics.make_interceptor_rhs)):
                dispatched = fly(scenario)
        steps = Counter(args[0].made_by for args, _ in dispatch.call_args_list)
        assert steps["make_vehicle_rhs"] > 500
        if scenario.sites:
            assert any(label.startswith("launch:") for _, label in bound.events)
            assert steps["make_interceptor_rhs"] > 100
        assert bound == dispatched
        assert bound.events == dispatched.events


def _reference_rhs(*args, **kwargs):
    """The generated vehicle RHS without ``made_from``, so its flight steps
    through ``_drive``, ``_VehicleControl`` and the fused step."""
    rhs = dynamics.make_vehicle_rhs(*args, **kwargs)
    del rhs.made_from
    return rhs


def _flown(sc, sample_interval=None):
    if sample_interval is None:
        return batch_run_results(sc)
    return tuple(simulate_vehicle_run(sc, GaussianStream(sc.seed).substream(i), sample_interval)
                 for i in range(sc.runs))


def _recording_interceptor_rhs(rows):
    """``make_interceptor_rhs`` with the fused step of each RHS it makes
    wrapped to record every ``(ts, s, u)`` a missile step is handed."""

    def make(*args, **kwargs):
        rhs = dynamics.make_interceptor_rhs(*args, **kwargs)
        step = rhs.rk4_step

        def recorded(ts, s, u, dt):
            rows.append((ts, s, u))
            return step(ts, s, u, dt)

        rhs.rk4_step = recorded
        return rhs

    return make


def _pinned(sc, sample_interval=None):
    """The runs of ``sc`` on the generated run loop, after checking that
    their pickles, and the ``(ts, s, u)`` of every missile step they take,
    equal the reference path's, and that the loop called none of what it
    inlines: ``_VehicleControl.__call__``, ``_Missile.pn_command`` and
    ``_step_miss``.  A PN command that differs in its last bit is seen in
    the step rows even where it never reaches the end state."""
    calls = Counter()
    looped_steps, driven_steps = [], []

    def spy(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        return mock.patch.object(owner, name, counted)

    def steps(rows):
        return mock.patch.object(engagement, "make_interceptor_rhs", _recording_interceptor_rhs(rows))

    with spy(engagement._VehicleControl, "__call__"), spy(engagement._Missile, "pn_command"), \
            spy(engagement, "_step_miss"):
        with steps(looped_steps):
            looped = _flown(sc, sample_interval)
        assert not calls
        with mock.patch.object(engagement, "make_vehicle_rhs", _reference_rhs), steps(driven_steps):
            driven = _flown(sc, sample_interval)
        assert calls["__call__"]
    assert pickle.dumps(looped_steps) == pickle.dumps(driven_steps)
    assert pickle.dumps(looped) == pickle.dumps(driven)
    return looped


def _channel(name):
    return NoiseConfig(**{name: getattr(CALIBRATED_NOISE, name)})


def _entry(rng, **changes):
    sc = replace(scenario_for_range(rng), noise=CALIBRATED_NOISE, runs=2, seed=11)
    return replace(sc, entry=replace(sc.entry, **changes))


class TestRunLoop:
    """A vehicle-only run of the generated RHS takes the generated run
    loop, ``_drive``, ``_VehicleControl`` and the fused step in one frame,
    with no missiles and no evasion; its results must pickle to the bytes of
    the reference path, which an RHS without ``made_from`` takes.  The traps
    it keeps:

    - the draw adds ``0.0 + sigma * z``, so a -0.0 draw adds as +0.0;
    - seeker draws happen only where alpha is evaluated, at the gate and
      then in the law, so two on the acquisition step;
    - a ``u1 == 0.0`` is redrawn, across a refill too (``_refill`` fills
      ``_buf`` in place, so the loop's bound buffer stays valid);
    - the clamp returns ``u_max`` itself;
    - each sample row is ``(t, y, u)`` with the last command;
    - ``t = t0 + k * dt`` for every step, never a running sum.
    """

    @pytest.mark.parametrize("noise", [NoiseConfig(), CALIBRATED_NOISE],
                             ids=["quiet", "calibrated"])
    @pytest.mark.parametrize("rng", PRESET_RANGES)
    def test_every_preset(self, rng, noise):
        _pinned(replace(scenario_for_range(rng), noise=noise, runs=2, seed=7))

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("noise", [
        NoiseConfig(), CALIBRATED_NOISE, _channel("atmosphere_density_sigma"),
        _channel("turbulence_sigma"), _channel("seeker_angle_sigma"),
    ], ids=["quiet", "calibrated", "density", "turbulence", "seeker"])
    def test_each_noise_channel_and_seed(self, noise, seed):
        """x950 flies all four phases; seeker noise alone draws only where
        alpha is evaluated, two on the acquisition step."""
        results = _pinned(replace(scenario_for_range(950_000), noise=noise, runs=2, seed=seed))
        phases = [label for _, label in results[0].events if label.startswith("phase:")]
        assert phases == ["phase:GRAVITATIONAL", "phase:PULL_UP", "phase:ALTITUDE_HOLD",
                          "phase:TERMINAL"]

    @pytest.mark.parametrize("sc", [
        replace(scenario_for_range(950_000), noise=CALIBRATED_NOISE, runs=2, seed=11,
                guidance=replace(range_preset(950_000).guidance(), gravitational_cos_theta=True)),
        _entry(615_000, z=-0.0),
        _entry(615_000, z=250.0),
        _entry(615_000, t=1.3),
    ], ids=["cos-theta-law", "z-negative-zero", "z-250-m", "t0-1.3-s"])
    def test_entries_and_laws_sampled_every_step(self, sc):
        """Each row is (t, y, u) at t0 + k * dt with that step's command,
        and the touchdown row carries the last one."""
        for r in _pinned(sc, sc.integrator.dt):
            assert r.failed is None
            assert [t for t, _, _ in r.samples[:-1]] == [
                sc.entry.t + k * sc.integrator.dt for k in range(len(r.samples) - 1)]
            assert r.samples[-1][2] == r.samples[-2][2]

    @pytest.mark.parametrize("sc, phase", [
        (_entry(615_000, x=560_000.0, y=30_000.0, theta=-0.5), "TERMINAL"),
        (_entry(950_000, y=30_000.0, v=3000.0, theta=0.0), "ALTITUDE_HOLD"),
    ], ids=["inside-the-seeker-window", "below-the-hold-band"])
    def test_an_entry_past_its_gates_chains_at_step_0(self, sc, phase):
        """From GRAVITATIONAL straight to the last phase the gates lead to,
        with one event, at t0."""
        for r in _pinned(sc, engagement.PLANNING_GRID):
            assert r.events[:2] == ((0.0, "phase:GRAVITATIONAL"), (sc.entry.t, f"phase:{phase}"))

    def test_the_clamp_returns_u_max_itself(self):
        """An integer ``u_max`` stays an int in the sample rows on both paths."""
        guidance = replace(range_preset(615_000).guidance(), u_max=1)
        sc = replace(scenario_for_range(615_000), guidance=guidance, noise=CALIBRATED_NOISE,
                     runs=2, seed=0)
        commands = {u for r in _pinned(sc, sc.integrator.dt) for _, _, u in r.samples}
        assert {u for u in commands if type(u) is int} == {1, -1}

    def test_a_timeout(self):
        sc = replace(scenario_for_range(800_000), noise=CALIBRATED_NOISE, runs=2, seed=11)
        short = replace(sc, integrator=replace(sc.integrator, t_max=5.0))
        assert [r.failed for r in _pinned(short, 1.0)] == ["timeout", "timeout"]

    @pytest.mark.parametrize("interval", [0.02, 10.0, engagement.PLANNING_GRID])
    def test_sample_intervals(self, interval):
        _pinned(replace(scenario_for_range(800_000), noise=CALIBRATED_NOISE, runs=2, seed=11),
                interval)

    def test_zero_uniforms_are_redrawn_across_a_refill(self):
        """Streams served three uniforms a block, every fifth 0.0 (redrawn
        as u1, kept as u2) and every seventh 1.0 (a signed-zero draw)."""
        def refill(stream):
            k = getattr(stream, "served", 0)
            stream.served = k + 3
            stream._buf[:0] = reversed([0.0 if j % 5 == 0 else 1.0 if j % 7 == 0
                                        else (j * 0.6180339887) % 1.0 for j in range(k, k + 3)])

        with mock.patch.object(GaussianStream, "_refill", refill):
            _pinned(replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=2, seed=3))

    def test_a_speed_guard_abort_replays_only_the_aborting_step(self):
        """A straight-up climb at 50 m/s stalls; the loop replays that step,
        and no other, through ``dynamics._rk4_generic``."""
        sc = _entry(615_000, v=50.0, theta=1.5707)
        with mock.patch.object(dynamics, "_rk4_generic", wraps=dynamics._rk4_generic) as replay:
            (looped,) = _flown(replace(sc, runs=1))
        assert looped.failed == "speed below guard (1/v singular)"
        assert replay.call_count == 1
        _rhs, t, _y, _u, dt = replay.call_args.args
        assert t == sc.entry.t + round(t / dt) * dt
        assert t <= looped.flight_time <= t + dt
        _pinned(sc)


class TestEngagement:
    def test_needs_a_site(self):
        with pytest.raises(ConfigError):
            simulate_engagement(scenario_for_range(615_000))

    @pytest.mark.parametrize("kind, stock", [("type-1", type1_spec), ("type-2", type2_spec)])
    def test_sites_fly_the_one_stock_spec_of_their_kind(self, kind, stock):
        site = InterceptorSite(x=21_000.0, kind=kind)
        assert site.resolve_spec() == stock()
        assert site.resolve_spec() is site.resolve_spec()
        assert site.resolve_spec() is InterceptorSite(x=0.0, kind=kind).resolve_spec()

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown interceptor kind 'type-3'"):
            InterceptorSite(x=21_000.0, kind="type-3")

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_site_position_is_rejected(self, x):
        with pytest.raises(ConfigError, match="site x must be finite"):
            InterceptorSite(x=x, kind="type-1")

    def test_unreachable_site_never_launches(self):
        sc = replace(
            scenario_for_range(615_000),
            sites=(InterceptorSite(x=300_000.0, kind="type-1"),),
        )
        r = simulate_engagement(sc)
        assert not r.intercepted
        assert r.miss_distance == MISS_NONE
        assert not any(label.startswith("launch:") for _, label in r.events)
        assert r.touchdown is not None

    def test_slow_crossing_target_is_intercepted(self):
        sc = terminal_engagement_scenario(700.0, "type-1")
        hits = 0
        for seed in range(15):
            r = simulate_engagement(replace(sc, seed=seed), GaussianStream(seed).substream(0))
            if r.intercepted:
                hits += 1
                assert r.miss_distance <= sc.kill_radius
                labels = [label for _, label in r.events]
                assert any(l.startswith("launch:") for l in labels)
                t_launch = next(t for t, l in r.events if l.startswith("launch:"))
                t_kill = next(t for t, l in r.events if l.startswith("intercept:"))
                assert t_kill > t_launch
        assert hits >= 10

    def test_interceptor_abort_is_recorded_as_an_event(self):
        """The run loop, which inlines PN, from a launch below the speed
        guard; the reference path from a NaN PN command, which stalls the
        missile too."""
        sc = terminal_engagement_scenario(700.0, "type-1")
        with mock.patch.object(engagement._Missile, "launch", _launch_stalled("type-1")):
            looped = simulate_engagement(sc)
        with mock.patch.object(engagement._Missile, "pn_command", lambda self, y: math.nan), \
                mock.patch.object(engagement, "make_vehicle_rhs", _reference_rhs):
            driven = simulate_engagement(sc)
        for r in (looped, driven):
            labels = [label for _, label in r.events]
            assert labels[labels.index("launch:type-1") + 1] == (
                "abort:type-1:speed below guard (1/v singular)"
            )
            assert not r.intercepted
            assert labels[-1] == "touchdown"

    def test_infinite_interceptor_speed_is_recorded_as_an_abort(self):
        sc = terminal_engagement_scenario(700.0, "type-1")
        launch = engagement._Missile.launch

        def launch_at_infinite_speed(self):
            launch(self)
            self.state = self.state[:3] + (math.inf,) + self.state[4:]

        with mock.patch.object(engagement._Missile, "launch", launch_at_infinite_speed):
            r = simulate_engagement(sc)
        labels = [label for _, label in r.events]
        assert labels[labels.index("launch:type-1") + 1] == "abort:type-1:non-finite Mach"
        assert not r.intercepted

    def test_aborting_nominal_flight_is_a_failed_run(self):
        """A straight-up climb at 50 m/s stalls in the launch-planning
        prediction too; the run fails with the abort's reason."""
        base = scenario_for_range(615_000)
        sc = replace(base, entry=replace(base.entry, v=50.0, theta=1.5707),
                     sites=(InterceptorSite(x=21_000.0, kind="type-1"),))
        r = simulate_engagement(sc)
        assert r.failed == simulate_vehicle_run(replace(sc, sites=())).failed
        assert r.failed == "speed below guard (1/v singular)"
        assert r.events[-1] == (r.flight_time, "failed:speed below guard (1/v singular)")

    def test_booster_scan_runs_only_for_evasion(self):
        """Only an enabled evasion controller reads whether a booster burns,
        so without evasion no step scans the missiles."""
        sc = terminal_engagement_scenario(700.0, "type-1")
        thrusting = engagement._Missile.thrusting
        calls = []

        def spy(self, t):
            calls.append(t)
            return thrusting(self, t)

        plain = simulate_engagement(sc)
        with mock.patch.object(engagement._Missile, "thrusting", spy):
            spied = simulate_engagement(sc)
            assert not calls
            simulate_engagement(replace(sc, evasion=replace(sc.evasion, enabled=True)))
        assert calls
        assert any(label.startswith("launch:") for _, label in plain.events)
        assert spied == plain

    def test_without_evasion_no_step_calls_the_controller(self):
        sc = terminal_engagement_scenario(700.0, "type-1")
        command = engagement.EvasionController.command
        calls = []

        def spy(self, *args):
            calls.append(args)
            return command(self, *args)

        with mock.patch.object(engagement.EvasionController, "command", spy):
            simulate_engagement(sc)
            assert not calls
            simulate_engagement(replace(sc, evasion=replace(sc.evasion, enabled=True)))
        assert calls

    # type 1 at 9,100 m plans a launch at 22.557 s and type 2 at 10,220 m at
    # 22.542 s, both due on step 1128 (22.56 s); type 1 at 6,000 m plans one
    # for step 538
    TYPE1_TIED = InterceptorSite(x=9_100.0, kind="type-1")
    TYPE2 = InterceptorSite(x=10_220.0, kind="type-2")
    TYPE1_EARLY = InterceptorSite(x=6_000.0, kind="type-1")

    @pytest.mark.parametrize("sites, launches, digest", [
        ((TYPE1_TIED, TYPE2), [(1128, "type-1"), (1128, "type-2")],
         "4e9ef28b9f07463d0a7c7361f9125cbfc69ff984bf53a5e12cccd62c798a9dda"),
        ((TYPE2, TYPE1_TIED), [(1128, "type-2"), (1128, "type-1")],
         "6a3c64823fbc454dc7e8b39bdfd0e8af2f6c56e679db85ee705844fb1e094416"),
        ((TYPE2, TYPE1_EARLY), [(538, "type-1"), (1128, "type-2")],
         "a5beec28c6d31dda8237a449a7b022a4a842e4dad1389761b978153bac5a3c9e"),
    ])
    def test_launches_log_on_their_due_step_in_site_order(self, sites, launches, digest):
        """Launches due on one step log in site order, whichever plan is
        earlier.  ``digest`` is the sha256 of each run's fields, every float
        as its bits, as the launch scan that ran on every step produced them."""
        base = replace(terminal_engagement_scenario(1000.0, "type-1"),
                       noise=CALIBRATED_NOISE, runs=4, seed=3)
        results = batch_run_results(replace(base, sites=sites))
        for r in results:
            logged = [(t, label) for t, label in r.events if label.startswith("launch:")]
            assert logged == [(k * 0.02, f"launch:{kind}") for k, kind in launches]
        fingerprint = repr([float_bits(astuple(r)) for r in results])
        assert hashlib.sha256(fingerprint.encode()).hexdigest() == digest

    def test_evasion_degrades_the_intercept(self):
        base = replace(terminal_engagement_scenario(2000.0, "type-1"), runs=20, noise=CALIBRATED_NOISE)
        quiet = summarize(batch_run_results(base))
        evading = summarize(batch_run_results(
            replace(base, evasion=replace(base.evasion, enabled=True))
        ))
        assert evading.p_intercept < quiet.p_intercept
        assert evading.p_intercept <= 0.1

    def test_longer_flights_are_easier_to_intercept(self):
        """Past the shortest ranges the terminal dive arrives slower, so a
        defence laid under the descent connects far more often."""
        def probability(rng):
            base = scenario_for_range(rng)
            nominal = simulate_vehicle_run(base, sample_interval=0.2)
            site_x = None
            for (_, y0, _), (_, y1, _) in zip(nominal.samples, nominal.samples[1:]):
                if y0[1] > 8_000.0 >= y1[1]:
                    f = (y0[1] - 8_000.0) / (y0[1] - y1[1])
                    site_x = y0[0] + f * (y1[0] - y0[0])
                    break
            sc = replace(
                base,
                sites=(InterceptorSite(x=site_x, kind="type-1"),),
                runs=15,
                kill_radius=25.0,
                noise=CALIBRATED_NOISE,
                evasion=replace(base.evasion, enabled=False),
            )
            return summarize(batch_run_results(sc)).p_intercept

        assert probability(675_000) < probability(950_000)


def _launch_stalled(kind):
    """``_Missile.launch`` leaving the rail below the speed guard for ``kind``."""
    launch = engagement._Missile.launch

    def launch_stalled(self):
        launch(self)
        if self.kind == kind:
            self.state = self.state[:3] + (0.5 * SPEED_GUARD,) + self.state[4:]

    return launch_stalled


def _labels(r):
    return [label for _, label in r.events]


class TestEngageLoop:
    """A defended run of the generated RHS takes the same run loop, with
    the reference's launches, evasion override, PN, interceptor steps,
    closest approach and kill test inline; its results must pickle to the
    bytes of the reference path, ``_drive`` with the ``_defence_hooks``,
    which an RHS without ``made_from`` takes."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("noise", [NoiseConfig(), CALIBRATED_NOISE],
                             ids=["quiet", "calibrated"])
    @pytest.mark.parametrize("kind", ["type-1", "type-2"])
    @pytest.mark.parametrize("speed", cli.SWEEP_SPEEDS)
    def test_the_speed_sweep(self, speed, kind, noise, seed):
        base = replace(scenario_for_range(615_000), noise=noise, runs=4, seed=seed)
        results = _pinned(terminal_engagement_scenario(speed, kind, base=base))
        assert all(f"launch:{kind}" in _labels(r) for r in results)

    def test_the_evading_batch(self):
        sc = replace(terminal_engagement_scenario(2000.0, "type-1", evasion_enabled=True),
                     noise=CALIBRATED_NOISE, runs=8, seed=11)
        command = engagement.EvasionController.command
        calls = []

        def spy(self, *args):
            calls.append(args[0])
            return command(self, *args)

        with mock.patch.object(engagement.EvasionController, "command", spy):
            _pinned(sc)
        assert len(calls) > 1000

    @pytest.mark.parametrize("sites", [
        (TestEngagement.TYPE1_TIED, TestEngagement.TYPE2),
        (TestEngagement.TYPE2, TestEngagement.TYPE1_TIED),
        (TestEngagement.TYPE2, TestEngagement.TYPE1_EARLY),
    ], ids=["tied", "tied-reversed", "later-plan-first"])
    def test_launch_site_orders(self, sites):
        base = replace(terminal_engagement_scenario(1000.0, "type-1"),
                       noise=CALIBRATED_NOISE, runs=4, seed=3)
        for r in _pinned(replace(base, sites=sites)):
            assert sum(label.startswith("launch:") for label in _labels(r)) == 2

    def test_an_unreachable_site(self):
        sc = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=2, seed=11,
                     sites=(InterceptorSite(x=300_000.0, kind="type-1"),))
        for r in _pinned(sc):
            assert r.touchdown is not None and r.miss_distance == MISS_NONE
            assert not any(label.startswith("launch:") for label in _labels(r))

    def test_two_missiles_under_the_kill_radius_on_one_step(self):
        """Both come within 8 km on their launch step; the closer, listed
        second, ends the run."""
        sc = replace(terminal_engagement_scenario(1000.0, "type-1"), noise=CALIBRATED_NOISE,
                     runs=1, seed=3, kill_radius=8_000.0,
                     sites=(TestEngagement.TYPE1_TIED, TestEngagement.TYPE2))
        misses = []
        step_miss = engagement._step_miss

        def spy(*args):
            misses.append(step_miss(*args)[0])
            return step_miss(*args)

        with mock.patch.object(engagement, "_step_miss", spy):
            (r,) = _pinned(sc)
        assert len(misses) == 2 and max(misses) < sc.kill_radius
        assert r.intercepted and r.miss_distance == misses[1] < misses[0]
        assert _labels(r)[-3:] == ["launch:type-1", "launch:type-2", "intercept:type-2"]

    def test_a_missile_abort(self):
        """Type 1 stalls on the rail and aborts; type 2 flies on alone."""
        sc = replace(terminal_engagement_scenario(1000.0, "type-1"), noise=CALIBRATED_NOISE,
                     runs=4, seed=3, sites=(TestEngagement.TYPE1_TIED, TestEngagement.TYPE2))
        with mock.patch.object(engagement._Missile, "launch", _launch_stalled("type-1")):
            results = _pinned(sc)
        for r in results:
            labels = _labels(r)
            assert labels[labels.index("launch:type-2") + 1] == (
                "abort:type-1:speed below guard (1/v singular)")
            assert r.miss_distance < MISS_NONE

    def test_a_vehicle_abort_with_a_missile_in_flight(self):
        """A straight-up climb at 50 m/s stalls 4.5 s after a launch at
        0.5 s; the plan is patched in, as the planning track stalls too."""
        base = scenario_for_range(615_000)
        sc = replace(base, entry=replace(base.entry, v=50.0, theta=1.5707),
                     evasion=replace(base.evasion, enabled=False),
                     sites=(InterceptorSite(x=21_000.0, kind="type-1"),))
        with mock.patch.object(engagement, "_nominal_track", lambda quiet: ()), \
                mock.patch.object(engagement, "launch_decision", lambda *args: LaunchPlan(0.5, 1.0)):
            (r,) = _pinned(sc)
        assert r.failed == "speed below guard (1/v singular)"
        assert r.events[1:] == ((0.5, "launch:type-1"),
                                (r.flight_time, "failed:speed below guard (1/v singular)"))

    def test_a_timeout_with_a_missile_up(self):
        """The plan comes from the full track, as the run's t_max cuts it."""
        base = replace(terminal_engagement_scenario(1000.0, "type-1"), noise=CALIBRATED_NOISE,
                       runs=2, seed=3, sites=(TestEngagement.TYPE1_EARLY,))
        track = engagement._nominal_track(replace(base, noise=NoiseConfig(), sites=(), seed=0,
                                                  runs=1))
        sc = replace(base, integrator=replace(base.integrator, t_max=15.0))
        with mock.patch.object(engagement, "_nominal_track", lambda quiet: track):
            for r in _pinned(sc):
                assert r.failed == "timeout" and r.flight_time == 15.0
                assert _labels(r)[-2:] == ["launch:type-1", "failed:timeout"]

    def test_an_entry_after_t_0(self):
        base = replace(terminal_engagement_scenario(1400.0, "type-2"), noise=CALIBRATED_NOISE,
                       runs=4, seed=3)
        results = _pinned(replace(base, entry=replace(base.entry, t=1.3)))
        assert any(r.intercepted for r in results)


# The README's defended x800 descent, noise-free: two launches, no kill.
DEFENDED_X800 = replace(
    scenario_for_range(800_000),
    sites=(InterceptorSite(x=776_900.0, kind="type-1"), InterceptorSite(x=790_000.0, kind="type-2")),
    kill_radius=25.0,
)


@pytest.fixture
def cold_caches():
    """Empty the launch-planning caches, as a fresh process has them."""
    for cached in (engagement._nominal_track, engagement._reach_table):
        cached.cache_clear()
    yield
    for cached in (engagement._nominal_track, engagement._reach_table):
        cached.cache_clear()


class TestLazyReachTables:
    def test_planning_flies_only_the_reach_it_reads(self, cold_caches):
        """Every reach step runs through interceptor.rk4_step; the two
        tables' climbs are 6,000 steps each when flown in full."""
        with mock.patch.object(interceptor, "rk4_step", wraps=interceptor.rk4_step) as step:
            r = simulate_engagement(DEFENDED_X800)
        assert sum(label.startswith("launch:") for _, label in r.events) == 2
        tables = [engagement._reach_table(site.resolve_spec(), DEFENDED_X800.atmosphere)
                  for site in DEFENDED_X800.sites]
        assert step.call_count == sum(len(table.path) - 1 for table in tables)
        assert step.call_count < 9_000

    def test_forked_workers_fly_on_from_a_partly_flown_table(self, cold_caches):
        sc = replace(DEFENDED_X800, noise=CALIBRATED_NOISE, runs=4, seed=11)
        cold = run_pickles(batch_run_results(sc))
        engagement._reach_table.cache_clear()
        for site in sc.sites:
            engagement._reach_table(site.resolve_spec(), sc.atmosphere).time_to(5_000.0)
        parallel = run_pickles(batch_run_results(sc, workers=2))
        assert run_pickles(batch_run_results(sc, workers=1)) == parallel == cold


def _inline_pool(**kwargs):
    """A mock ``multiprocessing.Pool`` whose ``map`` runs the jobs here, in order."""
    pool = mock.MagicMock(**kwargs)
    pool.return_value.__enter__.return_value.map.side_effect = (
        lambda fn, jobs, chunksize: [fn(job) for job in jobs])
    return pool


class TestBatch:
    def test_single_run_batch_matches_the_direct_call(self):
        sc = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=1, seed=5)
        (from_batch,) = batch_run_results(sc)
        direct = simulate_vehicle_run(sc, GaussianStream(5).substream(0))
        assert from_batch == direct

    def test_fused_step_matches_the_reference_step_over_a_batch(self):
        """A wrapped RHS has no fused step, as under the benchmark's timers,
        so the same batch then runs the reference step, through ``_drive``:
        ``_VehicleControl.__call__`` once per step and
        ``GaussianStream.gaussian`` once per draw.  The generated RHS takes
        the run loop, which calls neither; each run's density draw is made
        before it flies."""
        sc = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=4, seed=11)
        calls = []

        def make_wrapped_rhs(*args, **kwargs):
            rhs = dynamics.make_vehicle_rhs(*args, **kwargs)

            def wrapped(t, y, u):
                calls.append(t)
                return rhs(t, y, u)

            return wrapped

        spied = Counter()

        def spy(cls, name):
            method = getattr(cls, name)

            def counted(*args):
                spied[name] += 1
                return method(*args)

            return mock.patch.object(cls, name, counted)

        with mock.patch.object(dynamics, "_rk4_generic", wraps=dynamics._rk4_generic) as replay, \
                spy(engagement._VehicleControl, "__call__"), \
                spy(engagement._VehicleControl, "_alpha"), spy(GaussianStream, "gaussian"):
            fused = batch_run_results(sc)
            assert not calls and not replay.called
            assert spied == Counter(gaussian=sc.runs)
            spied.clear()
            with mock.patch.object(engagement, "make_vehicle_rhs", make_wrapped_rhs):
                reference = batch_run_results(sc)
        assert len(calls) > 4 * 4 * 1000
        steps = len(calls) // 4
        assert spied["__call__"] == steps
        assert spied["gaussian"] == sc.runs + steps + spied["_alpha"]
        assert pickle.dumps(fused) == pickle.dumps(reference)

    def test_fused_interceptor_step_matches_the_reference_step_over_a_batch(self):
        """The engage-sweep's 2000 m/s type-1 batch, with the interceptor RHS
        wrapped (no fused step, as under the benchmark's timers)."""
        sc = replace(terminal_engagement_scenario(2000.0, "type-1"), runs=4, seed=11,
                     noise=CALIBRATED_NOISE)
        calls = []

        def make_wrapped_rhs(*args, **kwargs):
            rhs = dynamics.make_interceptor_rhs(*args, **kwargs)

            def wrapped(t, y, u):
                calls.append(t)
                return rhs(t, y, u)

            return wrapped

        with mock.patch.object(dynamics, "_rk4_generic", wraps=dynamics._rk4_generic) as replay:
            fused = batch_run_results(sc)
        assert not calls and not replay.called
        with mock.patch.object(engagement, "make_interceptor_rhs", make_wrapped_rhs):
            reference = batch_run_results(sc)
        assert len(calls) > 4 * 4 * 100
        assert any(label.startswith("launch:") for r in fused for _, label in r.events)
        assert pickle.dumps(fused) == pickle.dumps(reference)

    def test_parallel_equals_serial(self):
        for speed, last_event in ((1400.0, "intercept:type-2"), (2200.0, "touchdown")):
            sc = replace(
                terminal_engagement_scenario(speed, "type-2"),
                runs=6, seed=3, noise=CALIBRATED_NOISE,
            )
            serial = batch_run_results(sc)
            parallel = batch_run_results(sc, workers=2)
            assert [r.events[-1][1] for r in serial] == [last_event] * 6
            assert run_pickles(serial) == run_pickles(parallel)
            assert (pickle.dumps(monte_carlo_batch(sc))
                    == pickle.dumps(monte_carlo_batch(sc, workers=2)))

    @pytest.mark.parametrize("runs, workers", [(2, 64), (3, 2)])
    def test_pool_never_outnumbers_the_runs(self, runs, workers):
        sc = replace(scenario_for_range(615_000), runs=runs, seed=3)
        pool = _inline_pool()
        with mock.patch("multiprocessing.Pool", pool):
            pooled = batch_run_results(sc, workers=workers)
        pool.assert_called_once_with(processes=min(runs, workers))
        # the chunk size is the one the uncapped worker count gave
        pool_map = pool.return_value.__enter__.return_value.map
        assert pool_map.call_args.kwargs == {"chunksize": max(1, runs // (4 * workers))}
        assert pickle.dumps(pooled) == pickle.dumps(batch_run_results(sc))

    def test_the_parent_compiles_the_kernel_and_run_loop_before_forking(self):
        """So every forked worker inherits what its runs fly instead of
        compiling it: the vehicle kernel and ``run_loop``, which launch
        planning's track flies too, and for a defended scenario each site's
        interceptor kernel (type 1's and type 2's stage seams differ), for
        every scenario of one runner call, not only the first."""
        x615 = replace(scenario_for_range(615_000), runs=2, seed=3)
        defended = replace(DEFENDED_X800, runs=2, seed=3)
        for scenarios, compiled in [
            ((x615,), {"vehicle": 1, "run_loop": 1}),
            ((defended,), {"vehicle": 1, "run_loop": 1, "interceptor": 2}),
            ((x615, defended), {"vehicle": 1, "run_loop": 1, "interceptor": 2}),
        ]:
            at_fork = set()

            def fork(processes):
                at_fork.update(dynamics._FACTORIES)
                return mock.DEFAULT

            pool = _inline_pool(side_effect=fork)
            with mock.patch.dict(dynamics._FACTORIES, clear=True), \
                    mock.patch("multiprocessing.Pool", pool):
                if len(scenarios) == 1:
                    batch_run_results(scenarios[0], workers=2)
                else:
                    engagement._run_jobs(scenarios, workers=2)
                flown = set(dynamics._FACTORIES)
            assert Counter(key[0] for key in at_fork) == compiled
            # nothing the runs fly compiled after the fork; only launch
            # planning's reach tables, which build lazily, may compile then
            assert at_fork == {key for key in flown if key[0] != "profile"}

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_workers_must_be_an_integer_of_at_least_one(self, workers):
        """2.5 used to fail inside ``multiprocessing`` with a TypeError, and
        0 or -3 ran serially without a word."""
        sc = replace(scenario_for_range(615_000), runs=4)
        with mock.patch("multiprocessing.Pool") as pool, \
                mock.patch.object(engagement, "simulate_vehicle_run") as run, \
                pytest.raises(ConfigError, match="workers must be"):
            monte_carlo_batch(sc, workers=workers)
        assert not pool.called and not run.called

    def test_one_runner_call_equals_separate_batches(self):
        """Unequal batch sizes, one of them defended, in one job list: each
        scenario gets its own runs back, in run order, serially and pooled."""
        scenarios = (
            replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=1, seed=7),
            replace(DEFENDED_X800, noise=CALIBRATED_NOISE, runs=3, seed=7),
            replace(scenario_for_range(950_000), noise=CALIBRATED_NOISE, runs=2, seed=4),
        )
        separate = [run_pickles(batch_run_results(sc)) for sc in scenarios]
        pool = _inline_pool()
        with mock.patch("multiprocessing.Pool", pool):
            pooled = engagement._run_jobs(scenarios, workers=2)
        pool.assert_called_once_with(processes=2)
        serial = engagement._run_jobs(scenarios)
        assert [len(results) for results in serial] == [1, 3, 2]
        assert [run_pickles(results) for results in serial] == separate
        assert [run_pickles(results) for results in pooled] == separate

    def test_summary_against_a_hand_count(self):
        def run(err, intercepted=False, failed=None, nav=20.0, launched=False):
            events = (((5.0, "launch:type-1"),) if launched else ())
            return RunResult(
                touchdown=None if intercepted else (0.0, 0.0),
                landing_error=math.nan if intercepted else err,
                flight_time=90.0,
                navigation_time=nav,
                intercepted=intercepted,
                miss_distance=5.0 if intercepted else MISS_NONE,
                events=events,
                failed=failed,
            )

        results = [
            run(4.0), run(8.0), run(6.0), run(2.0),
            run(0.0, intercepted=True, launched=True),
            run(0.0, intercepted=True, launched=True),
            run(12.0, launched=True),
            run(math.nan, failed="timeout"),
        ]
        stats = summarize(results)
        assert stats.n == 7
        assert stats.failures == 1
        assert stats.mean_error == pytest.approx(statistics.fmean([4.0, 8.0, 6.0, 2.0, 12.0]))
        assert stats.max_error == 12.0
        assert stats.cep == statistics.median([4.0, 8.0, 6.0, 2.0, 12.0])
        assert stats.p_intercept == pytest.approx(2 / 7)
        assert stats.p_stderr == pytest.approx(math.sqrt((2 / 7) * (5 / 7) / 7))
        assert stats.launches == 3
        assert stats.p_given_launch == pytest.approx(2 / 3)
        assert stats.cep <= stats.max_error

    def test_all_failed_batch_raises(self):
        sc = scenario_for_range(615_000)
        doomed = replace(sc, integrator=replace(sc.integrator, t_max=5.0), runs=3)
        with pytest.raises(BatchError):
            monte_carlo_batch(doomed)

    def test_zero_noise_has_zero_spread(self):
        sc = replace(scenario_for_range(615_000), noise=NoiseConfig(), runs=4)
        stats = monte_carlo_batch(sc)
        assert stats.mean_error == stats.max_error == stats.cep

    def test_no_sites_means_no_intercepts(self):
        sc = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=3)
        stats = monte_carlo_batch(sc)
        assert stats.p_intercept == 0.0
        assert stats.launches == 0
        assert math.isnan(stats.p_given_launch)


class TestSweeps:
    def test_error_sweep_rows_are_sorted_and_labelled(self):
        base = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=3)
        rows = error_vs_navigation_sweep(base, [800_000, 615_000])
        assert [row.x for row in rows] == [615_000, 800_000]
        for row in rows:
            assert row.failed is None
            assert row.nav_time > 0.0
            assert row.max_error > 0.0

    def test_navigation_time_grows_with_range(self):
        base = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=6)
        rows = error_vs_navigation_sweep(base, PRESET_RANGES)
        navs = [row.nav_time for row in rows]
        assert all(b > a for a, b in zip(navs, navs[1:]))

    def test_failed_batches_become_labelled_rows(self):
        base = scenario_for_range(615_000)
        doomed = replace(base, integrator=replace(base.integrator, t_max=5.0), runs=2)
        rows = error_vs_navigation_sweep(doomed, [615_000])
        assert len(rows) == 1
        assert rows[0].failed is not None
        assert math.isnan(rows[0].max_error)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ConfigError):
            error_vs_navigation_sweep(scenario_for_range(615_000), [])

    @pytest.mark.parametrize("range_m", [700_000.0, math.nan, math.inf, -math.inf])
    def test_range_without_a_preset_is_a_config_error(self, range_m):
        with pytest.raises(ConfigError, match="no preset for range"):
            range_preset(range_m)
        with pytest.raises(ConfigError, match="no preset for range"):
            error_vs_navigation_sweep(scenario_for_range(615_000), [range_m])

    def test_a_range_without_a_preset_fails_before_any_run(self):
        """The 615 km batch used to fly before 700 km raised."""
        base = replace(scenario_for_range(615_000), runs=2)
        with mock.patch.object(engagement, "simulate_vehicle_run",
                               wraps=engagement.simulate_vehicle_run) as run, \
                pytest.raises(ConfigError, match="no preset for range 700000"):
            error_vs_navigation_sweep(base, [615_000, 700_000])
        assert not run.called

    @pytest.mark.parametrize("sweep, points, workers, jobs", [
        (error_vs_navigation_sweep, (800_000, 615_000), 64, 4),
        (probability_vs_speed_sweep, (1600.0, 1200.0), 3, 8),
    ], ids=["error", "speed"])
    def test_a_sweep_hands_all_its_runs_to_one_pool(self, sweep, points, workers, jobs):
        base = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=2, seed=5)
        run_jobs = engagement._run_jobs
        pool = _inline_pool()
        with mock.patch.object(engagement, "_run_jobs",
                               lambda scenarios: run_jobs(scenarios, workers=workers)), \
                mock.patch("multiprocessing.Pool", pool):
            pooled = sweep(base, points)
        pool.assert_called_once_with(processes=min(workers, jobs))
        pool_map = pool.return_value.__enter__.return_value.map
        assert len(pool_map.call_args.args[1]) == jobs  # the sweep's every job
        assert pickle.dumps(pooled) == pickle.dumps(sweep(base, points))

    def test_error_sweep_rows_equal_one_batch_per_preset(self):
        base = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=3, seed=7)
        rows = []
        for x in PRESET_RANGES:
            stats = monte_carlo_batch(scenario_for_range(x, base=base))
            rows.append(SweepRow(x, stats.nav_time_mean, stats.max_error))
        assert pickle.dumps(error_vs_navigation_sweep(base, PRESET_RANGES)) == pickle.dumps(tuple(rows))

    def test_speed_sweep_rows_equal_one_batch_per_speed_and_type(self):
        base = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=3, seed=7)
        rows = []
        for v in sorted(cli.SWEEP_SPEEDS):
            one, two = (monte_carlo_batch(terminal_engagement_scenario(v, kind, base=base))
                        for kind in ("type-1", "type-2"))
            rows.append(SpeedRow(v, one.p_intercept, one.p_stderr, two.p_intercept, two.p_stderr))
        assert (pickle.dumps(probability_vs_speed_sweep(base, cli.SWEEP_SPEEDS))
                == pickle.dumps(tuple(rows)))

    def test_speed_sweep_envelope(self):
        base = replace(scenario_for_range(615_000), runs=2)
        with pytest.raises(DomainError):
            probability_vs_speed_sweep(base, [900.0])
        with pytest.raises(ConfigError):
            probability_vs_speed_sweep(base, [])

    def test_speed_sweep_reports_both_types(self):
        base = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=4, seed=1)
        rows = probability_vs_speed_sweep(base, [1600.0, 1200.0])
        assert [row.v for row in rows] == [1200.0, 1600.0]
        for row in rows:
            for p, se in ((row.p_type1, row.p_type1_stderr), (row.p_type2, row.p_type2_stderr)):
                assert 0.0 <= p <= 1.0
                assert se >= 0.0
