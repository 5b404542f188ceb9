import bisect
import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from reentrysim.atmosphere import DEFAULT_ATMOSPHERE
from reentrysim.dynamics import G0, _rk4_generic
from reentrysim import engagement, interceptor
from reentrysim.errors import ConfigError, DomainError
from reentrysim.presets import scenario_for_range
from reentrysim.interceptor import (
    CalibrationResult,
    ENGAGEMENT_ZONES,
    FlightProfile,
    INTERCEPTOR_U_MAX,
    KillTable,
    LAUNCH_ALTITUDE,
    LAUNCH_SPEED,
    LaunchPlan,
    NAV_GAIN,
    PROFILE_DT,
    ProfilePoint,
    REACH_ELEVATION,
    REACH_T_END,
    ReachTable,
    TYPE1_CALIBRATION_PITCH,
    TYPE1_KILL_TABLE,
    TYPE1_THRUST,
    TYPE2_CALIBRATION_PITCH,
    TYPE2_KILL_TABLE,
    TYPE2_SPECIFIC_IMPULSE,
    calibrate_type1,
    calibrate_type2,
    kill_probability,
    launch_decision,
    pinned_pitch_profile,
    type1_spec,
    type2_spec,
    zone_classify,
    _bisect,
    _fit_profile,
)

T1 = type1_spec()
T2 = type2_spec()


class TestMassBudget:
    def test_type1_mass_schedule(self):
        assert T1.mass_at(0.0) == 959.0
        assert T1.mass_at(2.0) == pytest.approx(859.0)
        assert T1.mass_at(T1.burn_time) == pytest.approx(302.8)
        # constant after burnout
        assert T1.mass_at(20.0) == pytest.approx(302.8)
        assert T1.burn_time == pytest.approx(13.124)

    def test_type2_mass_schedule(self):
        assert T2.mass_at(0.0) == 984.7
        assert T2.mass_at(4.0) == pytest.approx(616.5)
        assert T2.mass_at(6.0) == pytest.approx(543.8)
        assert T2.mass_at(T2.burn_time) == pytest.approx(365.4)
        assert T2.burn_time == pytest.approx(29.787, abs=1e-3)

    def test_mass_never_increases(self):
        for spec in (T1, T2):
            t = 0.0
            prev = spec.mass_at(0.0)
            while t < spec.burn_time + 5.0:
                t += 0.25
                m = spec.mass_at(t)
                assert m <= prev + 1e-12
                prev = m

    def test_closed_form_matches_flow_integral(self):
        for spec in (T1, T2):
            for t in (0.0, 1.0, 3.9, 4.0, 5.5, 6.0, 10.0, spec.burn_time):
                steps = 4000
                burned = 0.0
                for k in range(steps):
                    tau = t * (k + 0.5) / steps
                    burned += spec.thrust_and_flow(tau)[1] * (t / steps)
                assert spec.mass_at(t) == pytest.approx(spec.mass_at(0.0) - burned, abs=0.5)


class TestThrust:
    def test_type1_single_stage(self):
        assert T1.thrust_and_flow(5.0) == (TYPE1_THRUST, 50.0)
        assert T1.thrust_and_flow(20.0) == (0.0, 0.0)

    def test_type2_staged_flow(self):
        for t, flow in ((2.0, 92.05), (5.0, 36.35), (10.0, 7.5)):
            thrust, got = T2.thrust_and_flow(t)
            assert got == flow
            # shared specific impulse across stages
            assert thrust == pytest.approx(TYPE2_SPECIFIC_IMPULSE * G0 * flow)

    def test_no_thrust_after_burnout(self):
        assert T2.thrust_and_flow(T2.burn_time + 0.01) == (0.0, 0.0)

    @pytest.mark.parametrize("column", [2, 3])  # thrust, flow
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stage_thrust_or_flow_is_rejected(self, column, bad):
        """A NaN or +inf thrust used to pass ``thrust < 0.0``."""
        stage = list(T1.stages[0])
        stage[column] = bad
        with pytest.raises(ConfigError, match="stage thrust and flow must be >= 0"):
            replace(T1, stages=(tuple(stage),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stage_end_is_rejected(self, bad):
        """It used to pass the tiling check and fail only as "stage flows
        burn nan kg", which names the flows, not the stage time."""
        with pytest.raises(ConfigError, match="thrust stages must be contiguous"):
            replace(T1, stages=((0.0, bad, 1e5, 50.0),))

    def test_an_infinite_wing_area_is_rejected(self):
        """It used to pass, and the profile then failed as "altitude must be
        finite, got -inf"."""
        with pytest.raises(ConfigError, match="wing_area must be finite and > 0, got inf"):
            type1_spec(wing_area=math.inf)


class TestClimbProfiles:
    def test_type1_profile(self):
        prof = pinned_pitch_profile(T1, 2.321, 40.0, DEFAULT_ATMOSPHERE, G0)
        assert prof.v_peak == pytest.approx(1625.9, abs=1.0)
        assert prof.t_peak == pytest.approx(13.12, abs=0.1)
        v36 = _speed_at(prof, 36.0)
        assert v36 == pytest.approx(810.2, abs=2.0)

    def test_type2_profile(self):
        prof = pinned_pitch_profile(T2, 3.0181, 35.0, DEFAULT_ATMOSPHERE, G0)
        assert prof.v_peak == pytest.approx(721.2, abs=1.0)
        assert prof.t_peak == pytest.approx(6.0, abs=0.1)

    def test_path_length_is_monotone(self):
        prof = pinned_pitch_profile(T1, 2.321, 30.0, DEFAULT_ATMOSPHERE, G0)
        paths = [p.path for p in prof.points]
        assert all(b > a for a, b in zip(paths, paths[1:]))


def readable_profile(spec, theta, t_end, seen=None):
    """pinned_pitch_profile through AtmosphereModel.density/mach,
    DragModel.cx, spec.thrust_and_flow and the generic RK4 step: the model
    the inlined kernel must reproduce bit for bit.  ``seen`` collects the
    drag segments, burnout and the speed clamp that the stages reached."""
    env, drag_model, g = DEFAULT_ATMOSPHERE, spec.drag, G0
    sin_t = math.sin(theta)

    def rhs(t, y, _u):
        v, h, mass, _path = y
        thrust, flow = spec.thrust_and_flow(t)
        if mass <= spec.burnout_mass:
            thrust, flow = 0.0, 0.0
            if seen is not None:
                seen.add("burnout")
        va = v if v > 0.0 else 0.0
        rho = env.density(h)
        mach = env.mach(va, h)
        if seen is not None:
            seen.add("mach < 0.8" if mach < 0.8 else "mach < 1.2" if mach < 1.2 else "mach >= 1.2")
            if v <= 0.0:
                seen.add("v <= 0")
        cx = drag_model.cx(mach)
        drag = cx * rho * va * va * spec.wing_area / 2.0
        return ((thrust - drag) / mass - g * sin_t, v * sin_t, -flow, v)

    y = (LAUNCH_SPEED, LAUNCH_ALTITUDE, spec.initial_mass, 0.0)
    points = [ProfilePoint(0.0, y[0], y[1], y[2], y[3])]
    v_peak, t_peak = y[0], 0.0
    dt = PROFILE_DT
    for k in range(round(t_end / dt)):
        y = _rk4_generic(rhs, k * dt, y, 0.0, dt)
        t_next = (k + 1) * dt
        points.append(ProfilePoint(t_next, y[0], y[1], y[2], y[3]))
        if y[0] > v_peak:
            v_peak, t_peak = y[0], t_next
        if y[1] <= 0.0 or y[0] < 1.0:
            break
    return FlightProfile(tuple(points), v_peak, t_peak)


def profile_bits(prof):
    return (
        [tuple(value.hex() for value in point) for point in prof.points],
        prof.v_peak.hex(),
        prof.t_peak.hex(),
    )


class TestProfileKernel:
    """The inlined profile RHS against the readable model, by float.hex."""

    @pytest.mark.parametrize("spec", [T1, T2], ids=["type-1", "type-2"])
    @pytest.mark.parametrize("theta, t_end", [
        (TYPE1_CALIBRATION_PITCH, 40.0),
        (TYPE2_CALIBRATION_PITCH, 40.0),
        (REACH_ELEVATION, REACH_T_END),
    ])
    def test_stock_profiles_are_bit_identical(self, spec, theta, t_end):
        fast = pinned_pitch_profile(spec, theta, t_end)
        assert profile_bits(fast) == profile_bits(readable_profile(spec, theta, t_end))

    @pytest.mark.parametrize("args, features", [
        ((T1, 1.0, 60.0), {"mach < 0.8", "mach < 1.2", "mach >= 1.2", "burnout"}),
        # drag this large brakes a stage's speed prediction below zero
        ((type1_spec(thrust=0.0, wing_area=3000.0), math.pi / 2, 30.0), {"v <= 0"}),
    ])
    def test_the_examples_reach_every_branch(self, args, features):
        seen = set()
        readable_profile(*args, seen=seen)
        assert features <= seen

    @settings(max_examples=40, deadline=None)
    @given(
        type2=st.booleans(),
        theta=st.floats(-0.3, 3.1),
        t_end=st.floats(0.5, 60.0),
        knob=st.floats(0.0, 2.0),
        wing_area=st.floats(0.3, 3.0),
    )
    @example(type2=False, theta=1.0, t_end=60.0, knob=1.0, wing_area=1.4126)
    @example(type2=False, theta=math.pi / 2, t_end=30.0, knob=0.0, wing_area=3000.0)
    # a slow subsonic climb where ``h * 0.001`` in place of ``h / 1000.0`` moves bits
    @example(type2=True, theta=0.2086513517750534, t_end=43.944845278226545,
             knob=0.20653002341425042, wing_area=0.7204246252434332)
    def test_profiles_match_the_readable_model(self, type2, theta, t_end, knob, wing_area):
        # knob scales the stock thrust (type 1) or specific impulse (type 2)
        if type2:
            spec = type2_spec(specific_impulse=knob * TYPE2_SPECIFIC_IMPULSE, wing_area=wing_area)
        else:
            spec = type1_spec(thrust=knob * TYPE1_THRUST, wing_area=wing_area)
        fast = pinned_pitch_profile(spec, theta, t_end)
        assert profile_bits(fast) == profile_bits(readable_profile(spec, theta, t_end))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_bad_step_arguments_raise(self, t_end):
        with pytest.raises(DomainError, match="need finite t_end >= 0"):
            pinned_pitch_profile(T1, 1.0, t_end)

    @pytest.mark.parametrize("g", [0.0, -9.8, math.nan, math.inf])
    def test_bad_gravity_raises(self, g):
        """g <= 0 used to fly, and a non-finite g to blame the altitude."""
        with pytest.raises(DomainError, match="a finite g > 0"):
            pinned_pitch_profile(T1, 1.0, 5.0, g=g)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_pitch_raises(self, theta):
        """inf used to leak math.sin's ValueError, nan to blame the altitude."""
        with pytest.raises(DomainError, match="finite theta"):
            pinned_pitch_profile(T1, theta, 1.0)


def _speed_at(prof, t):
    for a, b in zip(prof.points, prof.points[1:]):
        if a.t <= t <= b.t:
            f = (t - a.t) / (b.t - a.t)
            return a.v + f * (b.v - a.v)
    raise AssertionError(f"t={t} outside profile")


class TestBisect:
    """The Illinois regula falsi behind both calibrations."""

    @staticmethod
    def spy(f):
        seen = []

        def g(x):
            seen.append(x)
            return f(x)
        return g, seen

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: math.exp(x) - 2.0, 0.0, 3.0),
        (lambda x: x ** 3 - 2.0, 0.0, 2.0),
        (lambda x: math.atan(x - 0.3), -5.0, 5.0),
        (lambda x: 0.5 - x ** 9, 0.0, 1.0),
        (lambda x: math.tanh(20.0 * (x - 0.7)), 0.0, 1.0),
        (lambda x: 1625.9 - 1e-3 * x - 1e-10 * x * x, 60_000.0, 2e6),
    ], ids=["exp", "cubic", "atan", "ninth-power", "tanh", "quadratic"])
    def test_smooth_monotone_roots_take_few_points(self, f, lo, hi):
        g, seen = self.spy(f)
        root = _bisect(g, lo, hi, 1e-9)
        assert abs(f(root)) < 1e-9
        assert len(seen) <= 16
        assert root == seen[-1]

    @settings(max_examples=60, deadline=None)
    @given(root=st.floats(-10.0, 10.0), slope=st.floats(0.01, 100.0),
           cubic=st.floats(0.0, 10.0), sign=st.sampled_from([1.0, -1.0]))
    def test_the_root_is_a_point_it_evaluated(self, root, slope, cubic, sign):
        def f(x):
            return sign * (slope * (x - root) + cubic * (x - root) ** 3)

        g, seen = self.spy(f)
        x = _bisect(g, -20.0, 20.0, 1e-6)
        assert x in seen and x == seen[-1]
        assert abs(f(x)) < 1e-6
        assert len(seen) <= 30

    def test_an_exact_zero_at_an_end_is_returned_as_is(self):
        for lo, hi in ((0.5, 2.0), (-1.0, 0.5)):
            g, seen = self.spy(lambda x: x - 0.5)
            assert _bisect(g, lo, hi, 1e-12) == 0.5
            assert seen == [lo, hi]

    def test_an_unbracketed_interval_raises(self):
        with pytest.raises(ConfigError, match="not bracketed"):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)

    def test_a_step_stops_at_the_evaluation_cap(self):
        """The residual never falls below tol and 60 points cannot narrow
        the bracket to 1e-12: the last point is returned, without error."""
        g, seen = self.spy(lambda x: -1.0 if x < 1.0 else 1.0)
        x = _bisect(g, -1e300, 1e300, 1e-9)
        assert len(seen) == 62
        assert x == seen[-1]
        assert abs(x - 1.0) < 0.01

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_residual_at_an_end_raises(self, bad):
        """A nan end used to pass the bracket check and yield a root."""
        with pytest.raises(ConfigError, match=f"residual is {bad} at 0"):
            _bisect(lambda x: bad if x == 0.0 else x - 0.5, 0.0, 1.0, 1e-9)
        with pytest.raises(ConfigError, match=f"residual is {bad} at 1"):
            _bisect(lambda x: bad if x == 1.0 else x - 0.5, 0.0, 1.0, 1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_residual_inside_raises(self, bad):
        """A nan inside the bracket used to steer the search to a wrong root."""
        with pytest.raises(ConfigError, match=f"residual is {bad} at 0.5"):
            _bisect(lambda x: bad if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0, 1e-9)


class TestCalibration:
    def test_nested_fit_reuses_the_inner_fit_of_the_outer_root(self):
        """A smooth stand-in profile that holds its anchor point only when
        flown to the full window; the result must equal the plain nested fit
        on full profiles, without flying any (knob, area, window) twice."""
        calls = []

        def make_profile(knob, area, t_end):
            calls.append((knob, area, t_end))
            v_peak = knob / 100.0
            points = (ProfilePoint(0.0, v_peak, 0.0, 0.0, 0.0),
                      ProfilePoint(36.0, v_peak * math.exp(-area), 0.0, 0.0, 0.0))
            return FlightProfile(points if t_end > 36.0 else points[:1], v_peak, 12.0)

        def plain_fit():
            def fit_knob(area):
                return _bisect(lambda k: make_profile(k, area, 37.0).v_peak - 1625.9,
                               60_000.0, 500_000.0, 1e-6)

            area = _bisect(lambda a: make_profile(fit_knob(a), a, 37.0).points[-1].v - 810.2,
                           0.3, 3.0, 1e-6)
            knob = fit_knob(area)
            prof = make_profile(knob, area, 37.0)
            return CalibrationResult(knob, area, prof.v_peak, prof.t_peak, prof.points[-1].v)

        fitted = _fit_profile(make_profile)
        assert len(calls) == len(set(calls))
        full = [area for _knob, area, t_end in calls if t_end == 37.0]
        assert sorted(full) == sorted({area for _knob, area, _t_end in calls})
        assert {t_end for *_, t_end in calls} == {math.ceil(T1.burn_time / 0.02) * 0.02, 37.0}
        calls.clear()
        assert [value.hex() for value in fitted] == [value.hex() for value in plain_fit()]
        assert len(calls) > len(set(calls))

    @pytest.mark.parametrize("calibrate, most", [(calibrate_type1, 120), (calibrate_type2, 16)])
    def test_calibration_flies_few_profiles(self, calibrate, most):
        """Type 1: the inner fits stop at burnout, and one full-length
        profile is flown per drag area the outer fit tries."""
        flown = []

        def spy(spec, theta, t_end, *args, **kwargs):
            flown.append((spec.wing_area, t_end))
            return pinned_pitch_profile(spec, theta, t_end, *args, **kwargs)

        with mock.patch.object(interceptor, "pinned_pitch_profile", spy):
            calibrate()
        assert len(flown) <= most
        if calibrate is calibrate_type1:
            full = [area for area, t_end in flown if t_end == 37.0]
            assert len(full) == len(set(full)) == len({area for area, _ in flown})

    @settings(max_examples=25, deadline=None)
    @given(thrust=st.floats(60_000.0, 500_000.0), wing_area=st.floats(0.3, 3.0),
           theta=st.floats(0.05, math.pi - 0.05))
    @example(thrust=TYPE1_THRUST, wing_area=1.4126, theta=TYPE1_CALIBRATION_PITCH)
    def test_a_profile_cut_after_burnout_keeps_its_peak(self, thrust, wing_area, theta):
        """Past burnout, with sin(theta) > 0, drag and gravity both brake."""
        spec = type1_spec(thrust=thrust, wing_area=wing_area)
        cut = pinned_pitch_profile(spec, theta, math.ceil(spec.burn_time / 0.02) * 0.02)
        full = pinned_pitch_profile(spec, theta, 37.0)
        assert cut.points[-1].t >= spec.burn_time > cut.points[-2].t
        assert (cut.v_peak.hex(), cut.t_peak.hex()) == (full.v_peak.hex(), full.t_peak.hex())

    def test_type1_fit_hits_both_anchors(self):
        cal = calibrate_type1()
        assert cal.v_peak == pytest.approx(1625.9, rel=1e-4)
        assert cal.v_anchor == pytest.approx(810.2, rel=1e-4)
        assert cal.thrust == pytest.approx(TYPE1_THRUST, rel=1e-4)
        assert cal.wing_area == pytest.approx(1.4126, abs=1e-3)

    def test_type2_fit_hits_the_peak(self):
        cal = calibrate_type2()
        assert cal.v_peak == pytest.approx(721.2, rel=1e-4)
        assert cal.thrust == pytest.approx(TYPE2_SPECIFIC_IMPULSE, rel=1e-4)

    def test_type2_fit_flies_each_impulse_once(self):
        """The profile at the root is the one the bisection flew last; the
        result must equal the fit that flies it again."""
        flown = []

        def spy(specific_impulse, wing_area):
            flown.append(specific_impulse)
            return type2_spec(specific_impulse, wing_area)

        with mock.patch.object(interceptor, "type2_spec", spy):
            cal = calibrate_type2()
        assert len(flown) == len(set(flown))

        def peak(isp):
            return pinned_pitch_profile(type2_spec(isp), TYPE2_CALIBRATION_PITCH, 9.0)

        isp = _bisect(lambda k: peak(k).v_peak - 721.2, 60.0, 500.0, 1e-6)
        prof = peak(isp)
        plain = CalibrationResult(isp, 2.0, prof.v_peak, prof.t_peak, prof.points[400].v)
        assert isp == flown[-1]
        assert [value.hex() for value in cal] == [value.hex() for value in plain]


class TestZones:
    def test_classification(self):
        assert zone_classify(5_000.0, 1_000.0) == 1
        assert zone_classify(20_000.0, 5_000.0) == 2
        assert zone_classify(35_000.0, 12_000.0) == 3
        assert zone_classify(80_000.0, 30_000.0) is None

    def test_zone_interiors_do_not_overlap(self):
        # adjacent zones share boundary edges; interiors must be disjoint
        for d in range(0, 80_001, 2000):
            for h in range(0, 26_001, 500):
                hits = [z.index for z in ENGAGEMENT_ZONES
                        if z.d_low < d < z.d_high and z.h_low < h < z.h_high]
                assert len(hits) <= 1

    def test_classification_lands_inside_the_named_zone(self):
        for d in (200.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0, 50_000.0, 70_000.0):
            for h in (15.0, 1_000.0, 3_000.0, 8_000.0, 10_000.0, 20_000.0):
                idx = zone_classify(d, h)
                if idx is None:
                    continue
                zone = ENGAGEMENT_ZONES[idx - 1]
                assert zone.index == idx
                assert zone.d_low <= d <= zone.d_high
                assert zone.h_low <= h <= zone.h_high

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            zone_classify(-1.0, 1000.0)


class TestKillProbability:
    def test_rows_returned_exactly_at_their_coordinates(self):
        for table in (TYPE1_KILL_TABLE, TYPE2_KILL_TABLE):
            for p, h, d, v in table.rows:
                assert kill_probability(table, h, d, v) == pytest.approx(p, rel=1e-12)

    def test_spot_rows(self):
        assert kill_probability(TYPE1_KILL_TABLE, 7_000.0, 4_000.0, 1650.0) == 0.9
        assert kill_probability(TYPE2_KILL_TABLE, 5_000.0, 3_000.0, 750.0) == 0.8

    def test_zero_outside_the_altitude_envelope(self):
        assert kill_probability(TYPE1_KILL_TABLE, 40_000.0, 2_000.0, 700.0) == 0.0
        assert kill_probability(TYPE1_KILL_TABLE, 500.0, 1_000.0, 500.0) == 0.0

    def test_zero_when_geometry_is_off_the_table(self):
        # the 7 km row expects crossings near 4 km and speeds near 1650
        assert kill_probability(TYPE1_KILL_TABLE, 7_000.0, 9_000.0, 1650.0) == 0.0
        assert kill_probability(TYPE1_KILL_TABLE, 7_000.0, 4_000.0, 2500.0) == 0.0

    def test_fast_targets_are_attenuated(self):
        base = kill_probability(TYPE1_KILL_TABLE, 7_000.0, 4_000.0, 1650.0)
        fast = kill_probability(TYPE1_KILL_TABLE, 7_000.0, 4_000.0, 1700.0)
        assert fast == pytest.approx(base * (0.4 / 0.45))
        # below the attenuation threshold the row value stands
        slow = kill_probability(TYPE2_KILL_TABLE, 5_000.0, 3_000.0, 750.0)
        assert slow == 0.8

    def test_probabilities_stay_in_unit_interval(self):
        for table in (TYPE1_KILL_TABLE, TYPE2_KILL_TABLE):
            for h in range(0, 25_001, 1000):
                for d in range(0, 16_001, 2000):
                    for v in (300.0, 800.0, 1500.0, 2000.0, 3000.0):
                        p = kill_probability(table, float(h), float(d), v)
                        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize("anchors, match", [
        (((1200.0, 0.7),), "at least two"),
        (((1200.0, 0.7), (1200.0, 0.6)), "ascending"),
        (((1300.0, 0.7), (1200.0, 0.6)), "ascending"),
        (((1200.0, 0.7), (math.inf, 0.6)), "finite"),
        (((math.nan, 0.7), (1300.0, 0.6)), "finite"),
        (((1200.0, 0.7), (1300.0, math.nan)), r"\[0, 1\]"),
        (((1200.0, 1.5), (1300.0, 0.6)), r"\[0, 1\]"),
    ])
    def test_bad_speed_roll_offs_are_rejected(self, anchors, match):
        with pytest.raises(ConfigError, match=match):
            KillTable(rows=TYPE1_KILL_TABLE.rows, speed_attenuation=anchors)

    @pytest.mark.parametrize("column", [1, 2, 3])  # h, d, v
    def test_an_infinite_row_coordinate_is_rejected(self, column):
        """The last row, so an infinite altitude keeps the rows sorted."""
        rows = [list(row) for row in TYPE1_KILL_TABLE.rows]
        rows[-1][column] = math.inf
        with pytest.raises(ConfigError, match="bad kill-table row"):
            replace(TYPE1_KILL_TABLE, rows=tuple(map(tuple, rows)))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DomainError):
            kill_probability(TYPE1_KILL_TABLE, -1.0, 4_000.0, 1650.0)
        with pytest.raises(DomainError):
            kill_probability(TYPE1_KILL_TABLE, 7_000.0, math.nan, 1650.0)


class TestReachAndLaunch:
    REACH = ReachTable.build(T1, DEFAULT_ATMOSPHERE)

    def test_time_grows_with_distance(self):
        times = [self.REACH.time_to(s) for s in (1_000.0, 5_000.0, 20_000.0, 40_000.0)]
        assert all(t is not None for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_zero_and_unreachable(self):
        assert self.REACH.time_to(0.0) == 0.0
        assert self.REACH.time_to(5e6) is None

    def test_a_nan_slant_is_rejected(self):
        """NaN used to read as out of reach."""
        reach = ReachTable.build(T1)
        with pytest.raises(DomainError, match="slant"):
            reach.time_to(math.nan)
        assert reach.time_to(math.inf) is None
        assert reach.time_to(-1.0) == 0.0
        assert reach.time_to(0.0) == 0.0

    def test_launch_decision_matches_a_direct_scan(self):
        # straight descent through zone 2 toward the site
        prediction = []
        for k in range(200):
            t = k * 0.5
            prediction.append((t, 40_000.0 - 700.0 * t, 9_000.0 - 55.0 * t))
        site_x = 5_000.0
        plan = launch_decision(prediction, site_x, self.REACH)
        assert plan is not None

        def scan():
            for t, x, y in prediction:
                d = abs(x - site_x)
                if zone_classify(d, y) is None:
                    continue
                slant = math.hypot(x - site_x, y)
                t_flight = self.REACH.time_to(slant)
                if t_flight is None or t - t_flight < 0.0:
                    continue
                return t, slant, math.atan2(y, x - site_x)
            return None

        expected = scan()
        assert expected is not None
        expected_t, slant, aim = expected
        # the planned intercept point is the launch plus the fly-out to its slant
        assert plan.launch_time + self.REACH.time_to(slant) == pytest.approx(expected_t)
        assert plan == LaunchPlan(expected_t - self.REACH.time_to(slant), aim)

    def test_no_plan_outside_the_zones(self):
        prediction = [(t, 400_000.0 - 500.0 * t, 60_000.0) for t in range(100)]
        assert launch_decision(prediction, 5_000.0, self.REACH) is None
        assert launch_decision([], 5_000.0, self.REACH) is None


def eager_time_to(times, path, slant):
    """ReachTable.time_to over a fully flown climb, as the table once was built."""
    if slant <= 0.0:
        return 0.0
    i = bisect.bisect_right(path, slant)
    if i >= len(path):
        return None
    s0, s1 = path[i - 1], path[i]
    t0, t1 = times[i - 1], times[i]
    if s1 == s0:
        return t1
    return t0 + (t1 - t0) * (slant - s0) / (s1 - s0)


DENSER = replace(DEFAULT_ATMOSPHERE, rho0=1.5 * DEFAULT_ATMOSPHERE.rho0)


class TestLazyReach:
    """The lazily flown reach table against the climb flown in full."""

    @staticmethod
    def _climb(spec, env):
        prof = pinned_pitch_profile(spec, REACH_ELEVATION, REACH_T_END, env)
        return [p.t for p in prof.points], [p.path for p in prof.points]

    @pytest.mark.parametrize("env", [DEFAULT_ATMOSPHERE, DENSER], ids=["default", "denser"])
    @pytest.mark.parametrize("spec", [T1, T2], ids=["type-1", "type-2"])
    def test_the_flown_table_is_the_full_climb(self, spec, env):
        times, path = self._climb(spec, env)  # the denser air stalls both climbs early
        assert all(b >= a for a, b in zip(path, path[1:]))
        reach = ReachTable.build(spec, env)
        assert reach.time_to(math.inf) is None
        assert [t.hex() for t in reach.times] == [t.hex() for t in times]
        assert [s.hex() for s in reach.path] == [s.hex() for s in path]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("env", [DEFAULT_ATMOSPHERE, DENSER], ids=["default", "denser"])
    @pytest.mark.parametrize("spec", [T1, T2], ids=["type-1", "type-2"])
    def test_every_answer_is_the_eager_one(self, spec, env, order):
        times, path = self._climb(spec, env)
        # the points themselves, midpoints between them, and past the end
        slants = [-1.0, 0.0] + path + [0.5 * (a + b) for a, b in zip(path, path[1:])]
        slants += [path[-1] * (1.0 + k / 100.0) for k in range(1, 20)] + [math.inf]
        slants.sort(reverse=order == "descending")
        if order == "shuffled":
            random.Random(7).shuffle(slants)
        reach = ReachTable.build(spec, env)
        for slant in slants:
            got, want = reach.time_to(slant), eager_time_to(times, path, slant)
            assert got == want, slant
            if got is not None:
                assert got.hex() == want.hex(), slant

    @pytest.mark.parametrize("spec", [T1, T2], ids=["type-1", "type-2"])
    def test_a_short_query_flies_a_short_prefix(self, spec):
        reach = ReachTable.build(spec)
        assert reach.time_to(10_000.0) is not None
        assert reach.path[-2] <= 10_000.0 < reach.path[-1]
        assert len(reach.path) < 1_000  # of 6,001 points in the full climb

    def test_a_climb_that_cannot_fly_fails_every_query_past_it(self):
        """Air this dense overflows the first step; the table built eagerly
        raised at the build."""
        reach = ReachTable.build(T1, replace(DEFAULT_ATMOSPHERE, rho0=1e306))
        for _ in range(2):
            with pytest.raises(DomainError, match="altitude must be finite"):
                reach.time_to(100.0)
        assert reach.path == [0.0]

    def test_sites_sharing_one_table_plan_as_with_fresh_tables(self):
        sc = scenario_for_range(800_000)
        track = engagement._nominal_track(sc)
        sites = (776_900.0, 783_000.0, 776_900.0, 770_000.0)
        shared = ReachTable.build(T1)
        plans = [launch_decision(track, x, shared) for x in sites]
        assert plans == [launch_decision(track, x, ReachTable.build(T1)) for x in sites]
        assert all(plan is not None for plan in plans)


class TestProportionalNavigation:
    def interceptor(self, v=800.0, theta=0.0):
        """A type-1 missile of the engagement loop, in flight at 5 km."""
        site = engagement.InterceptorSite(x=0.0, kind="type-1")
        plan = LaunchPlan(0.0, theta)
        missile = engagement._Missile(site, plan, DEFAULT_ATMOSPHERE, G0)
        missile.state = (0.0, 5_000.0, 0.0, v, theta, 0.0, 0.0, 500.0)
        return missile

    @staticmethod
    def target(x, y, v, theta):
        return (x, y, 0.0, v, theta, 0.0, 0.0)

    def test_collision_course_needs_only_gravity_hold(self):
        me = self.interceptor(theta=0.0)
        u = me.pn_command(self.target(10_000.0, 5_000.0, 2000.0, math.pi))
        assert u == pytest.approx(math.cos(0.0))

    def test_command_scales_with_los_rate_and_closing_speed(self):
        me = self.interceptor(v=0.0 + 1e-12, theta=0.0)
        assert NAV_GAIN == 4.0
        # geometry tuned for closing speed 1000 and LOS rate 0.01
        target = self.target(1_000.0, 5_000.0, math.hypot(1000.0, 10.0), math.atan2(10.0, -1000.0))
        u = me.pn_command(target)
        assert u == pytest.approx(4.0 * (1000.0 / G0) * 0.01 + 1.0, rel=1e-9)

    def test_command_clamped(self):
        me = self.interceptor(v=2000.0, theta=0.2)
        assert INTERCEPTOR_U_MAX == 25.0
        assert abs(me.pn_command(self.target(100.0, 5_050.0, 2500.0, -2.9))) == 25.0

    def test_zero_range_commands_nothing(self):
        me = self.interceptor()
        assert me.pn_command(self.target(0.0, 5_000.0, 2000.0, 0.0)) == 0.0
