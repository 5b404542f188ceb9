import math
import pickle
import statistics
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from reentrysim import dynamics, engagement
from reentrysim.dynamics import IntegratorConfig, VehicleState
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
from reentrysim.guidance import los_angle
from reentrysim.presets import (
    CALIBRATED_NOISE,
    PRESET_RANGES,
    scenario_for_range,
    terminal_engagement_scenario,
)


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
            s.substream(-1)


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
        alphas = [
            (t, los_angle(VehicleState.from_vector(t, y), sc.target))
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


class TestEngagement:
    def test_needs_a_site(self):
        with pytest.raises(ConfigError):
            simulate_engagement(scenario_for_range(615_000))

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

        fused = batch_run_results(sc)
        assert not calls
        with mock.patch.object(engagement, "make_vehicle_rhs", make_wrapped_rhs):
            reference = batch_run_results(sc)
        assert len(calls) > 4 * 4 * 1000
        assert pickle.dumps(fused) == pickle.dumps(reference)

    def test_parallel_equals_serial(self):
        sc = replace(
            terminal_engagement_scenario(1400.0, "type-2"),
            runs=6, seed=3, noise=CALIBRATED_NOISE,
        )
        serial = batch_run_results(sc)
        parallel = batch_run_results(sc, workers=2)
        # nan fields defeat ==; bit-identical serialisation is the real claim
        assert pickle.dumps(serial) == pickle.dumps(parallel)
        assert pickle.dumps(monte_carlo_batch(sc)) == pickle.dumps(monte_carlo_batch(sc, workers=2))

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
