import math
import pickle
import statistics
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from reentrysim import dynamics, engagement, interceptor
from reentrysim.dynamics import IntegratorConfig
from reentrysim.engagement import (
    GaussianStream,
    InterceptorSite,
    MISS_NONE,
    NoiseConfig,
    RunResult,
    Scenario,
    batch_run_results,
    error_vs_navigation_sweep,
    monte_carlo_batch,
    probability_vs_speed_sweep,
    simulate_engagement,
    simulate_vehicle_run,
    summarize,
)
from reentrysim.errors import BatchError, ConfigError, DomainError
from reentrysim.interceptor import type1_spec, type2_spec
from reentrysim.presets import (
    CALIBRATED_NOISE,
    PRESET_RANGES,
    range_preset,
    scenario_for_range,
    terminal_engagement_scenario,
)


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

    def test_infinite_altitude_is_a_failed_run(self):
        sc = scenario_for_range(615_000)
        r = simulate_vehicle_run(replace(sc, entry=replace(sc.entry, y=math.inf)))
        assert r.failed == "non-finite altitude"
        assert r.events[-1] == (0.0, "failed:non-finite altitude")

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
        sc = terminal_engagement_scenario(700.0, "type-1")
        with mock.patch.object(engagement._Missile, "pn_command", lambda self, y: math.nan):
            r = simulate_engagement(sc)
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


class TestBatch:
    def test_single_run_batch_matches_the_direct_call(self):
        sc = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=1, seed=5)
        (from_batch,) = batch_run_results(sc)
        direct = simulate_vehicle_run(sc, GaussianStream(5).substream(0))
        assert from_batch == direct

    def test_fused_step_matches_the_reference_step_over_a_batch(self):
        """A wrapped RHS has no fused step, as under the benchmark's timers,
        so the same batch then runs the reference step."""
        sc = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=4, seed=11)
        calls = []

        def make_wrapped_rhs(*args, **kwargs):
            rhs = dynamics.make_vehicle_rhs(*args, **kwargs)

            def wrapped(t, y, u):
                calls.append(t)
                return rhs(t, y, u)

            return wrapped

        with mock.patch.object(dynamics, "_rk4_generic", wraps=dynamics._rk4_generic) as replay:
            fused = batch_run_results(sc)
        assert not calls and not replay.called
        with mock.patch.object(engagement, "make_vehicle_rhs", make_wrapped_rhs):
            reference = batch_run_results(sc)
        assert len(calls) > 4 * 4 * 1000
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
        pool = mock.MagicMock()
        pool_map = pool.return_value.__enter__.return_value.map
        pool_map.side_effect = lambda fn, jobs, chunksize: [fn(job) for job in jobs]
        with mock.patch("multiprocessing.Pool", pool):
            pooled = batch_run_results(sc, workers=workers)
        pool.assert_called_once_with(processes=min(runs, workers))
        # the chunk size is the one the uncapped worker count gave
        assert pool_map.call_args.kwargs == {"chunksize": max(1, runs // (4 * workers))}
        assert pickle.dumps(pooled) == pickle.dumps(batch_run_results(sc))

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
