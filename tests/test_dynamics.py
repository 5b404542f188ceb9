import math
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from reentrysim import interceptor

from reentrysim.atmosphere import AtmosphereModel, DEFAULT_ATMOSPHERE
from reentrysim.dynamics import (
    G0,
    IntegratorConfig,
    InterceptorState,
    VehicleSpec,
    VehicleState,
    integrate_until,
    interceptor_derivatives,
    make_interceptor_rhs,
    make_vehicle_rhs,
    rk4_step,
    specific_energy,
    vehicle_derivatives,
    _rk4_generic,
)
from reentrysim.errors import ConfigError, IntegrationAbort
from reentrysim.interceptor import pinned_pitch_profile, type1_spec, type2_spec

VACUUM = AtmosphereModel(
    rho0=0.0,
    k_decay=DEFAULT_ATMOSPHERE.k_decay,
    vs_branches=DEFAULT_ATMOSPHERE.vs_branches,
)
ENTRY = VehicleState(t=0.0, x=0.0, y=84_109.0, z=0.0, v=7873.0, theta=-0.0442)


def state(v, theta, y=50_000.0, n=0.0):
    return VehicleState(t=0.0, x=0.0, y=y, z=0.0, v=v, theta=theta, n=n)


def test_vacuum_level_flight_is_an_equilibrium():
    r = vehicle_derivatives(state(2000.0, 0.0, n=1.0), 1.0, VehicleSpec(), VACUUM)
    assert r.v == 0.0
    assert r.theta == 0.0
    assert r.y == 0.0


def test_vacuum_vertical_dive():
    r = vehicle_derivatives(state(2000.0, -math.pi / 2), 0.0, VehicleSpec(), VACUUM)
    assert r.v == pytest.approx(G0)
    assert r.y == pytest.approx(-2000.0)
    assert r.x == pytest.approx(0.0, abs=1e-9)


def test_entry_state_horizontal_rate():
    r = vehicle_derivatives(ENTRY, 0.0, VehicleSpec())
    assert r.x == pytest.approx(7865.3, abs=0.1)


def test_drag_always_brakes():
    spec = VehicleSpec()
    for v, theta, y in ((500.0, -0.2, 5000.0), (3000.0, -0.5, 20_000.0), (7873.0, -0.0442, 60_000.0)):
        s = state(v, theta, y=y)
        with_air = vehicle_derivatives(s, 0.0, spec)
        in_vacuum = vehicle_derivatives(s, 0.0, spec, VACUUM)
        assert with_air.v < in_vacuum.v


def test_fast_rhs_matches_readable_vehicle_model():
    spec = VehicleSpec()
    rhs = make_vehicle_rhs(spec)
    for v, theta, y, n, u in (
        (7873.0, -0.0442, 84_109.0, 0.0, 0.0),
        (3000.0, -0.3, 30_000.0, 2.0, 5.0),
        (900.0, -0.8, 8_000.0, -1.0, -6.0),
        (250.0, 0.1, 1_000.0, 1.0, 1.0),
        # speed-of-sound seams, and Mach exactly on both drag seams
        (900.0, -0.2, 11_000.0, 0.0, 1.0),
        (900.0, -0.2, 25_000.0, 0.0, 1.0),
        (900.0, -0.2, 45_500.0, 0.0, 1.0),
        (900.0, -0.2, 54_000.0, 0.0, 1.0),
        (900.0, -0.2, 80_000.0, 0.0, 1.0),
        (0.8 * 295.1, -0.1, 20_000.0, 0.0, 0.0),
        (1.2 * 295.1, -0.1, 20_000.0, 0.0, 0.0),
    ):
        s = state(v, theta, y=y, n=n)
        readable = vehicle_derivatives(s, u, spec)
        fast = rhs(s.t, s.as_vector(), u)
        assert fast == pytest.approx(tuple(readable), rel=1e-12)


def test_fast_rhs_matches_readable_interceptor_model():
    spec = type1_spec()
    rhs = make_interceptor_rhs(spec)
    for t, v, theta, y in (
        (0.5, 30.0, 1.2, 10.0),
        (5.0, 600.0, 1.0, 4_000.0),
        (20.0, 1500.0, 0.6, 14_000.0),
        (10.0, 900.0, 0.8, 11_000.0),
        (10.0, 900.0, 0.8, 25_000.0),
        (10.0, 0.8 * 295.1, 0.8, 20_000.0),
        (10.0, 1.2 * 295.1, 0.8, 20_000.0),
    ):
        s = InterceptorState(t=t, x=0.0, y=y, z=0.0, v=v, theta=theta, w=0.0, n=0.0, mass=spec.mass_at(t))
        readable = interceptor_derivatives(s, 2.0, spec)
        fast = rhs(t, s.as_vector(), 2.0)
        assert fast == pytest.approx(tuple(readable), rel=1e-12)


def test_heading_equation_guards_vertical_flight():
    s = state(1000.0, math.pi / 2)
    with pytest.raises(IntegrationAbort):
        vehicle_derivatives(s, 0.0, VehicleSpec(), n_lateral=0.5)
    # planar flight through the vertical is fine
    vehicle_derivatives(s, 0.0, VehicleSpec(), n_lateral=0.0)


def test_rk4_exact_for_cubics():
    rhs = lambda t, y, u: (3.0 * t * t,)
    y = (0.0,)
    dt = 0.5
    for k in range(8):
        y = rk4_step(rhs, k * dt, y, 0.0, dt)
    assert y[0] == pytest.approx(4.0 ** 3, rel=1e-12)


def test_rk4_aborts_on_non_finite_derivative():
    rhs = lambda t, y, u: (math.nan,)
    with pytest.raises(IntegrationAbort) as err:
        rk4_step(rhs, 0.0, (1.0,), 0.0, 0.02)
    assert "k1" in str(err.value)


def bits(vec):
    return [value.hex() for value in vec]


@given(
    v=st.floats(50.0, 8000.0),
    theta=st.floats(-1.5, 1.5),
    y=st.floats(0.0, 90_000.0),
    n=st.floats(-10.0, 10.0),
    u=st.floats(-10.0, 10.0),
)
def test_unrolled_vehicle_step_matches_the_generic_step(v, theta, y, n, u):
    rhs = make_vehicle_rhs(VehicleSpec())
    s = (1234.5, y, 0.0, v, theta, 0.0, n)
    assert bits(rk4_step(rhs, 7.0, s, u, 0.02)) == bits(_rk4_generic(rhs, 7.0, s, u, 0.02))


@given(
    t=st.floats(0.0, 40.0),
    v=st.floats(20.0, 3000.0),
    theta=st.floats(-1.5, 1.5),
    y=st.floats(0.0, 40_000.0),
    n=st.floats(-10.0, 10.0),
    u=st.floats(-10.0, 10.0),
)
def test_unrolled_interceptor_step_matches_the_generic_step(t, v, theta, y, n, u):
    spec = type1_spec()
    rhs = make_interceptor_rhs(spec)
    s = (500.0, y, 0.0, v, theta, 0.0, n, spec.mass_at(t))
    assert bits(rk4_step(rhs, t, s, u, 0.02)) == bits(_rk4_generic(rhs, t, s, u, 0.02))


def profile_rhs(spec, theta):
    """The 4-state RHS pinned_pitch_profile builds, caught at its first step."""
    seen = []

    def spy(rhs, t, y, u, dt):
        seen.append(rhs)
        return rk4_step(rhs, t, y, u, dt)

    with mock.patch.object(interceptor, "rk4_step", spy):
        pinned_pitch_profile(spec, theta, 0.02)
    return seen[0]


@given(
    type2=st.booleans(),
    theta=st.floats(-1.5, 3.1),
    t=st.floats(0.0, 40.0),
    v=st.floats(-20.0, 3000.0),
    y=st.floats(0.0, 40_000.0),
    burnt=st.floats(0.0, 1.0),
    path=st.floats(0.0, 60_000.0),
)
def test_unrolled_profile_step_matches_the_generic_step(type2, theta, t, v, y, burnt, path):
    spec = type2_spec() if type2 else type1_spec()
    rhs = profile_rhs(spec, theta)
    mass = spec.initial_mass - burnt * (spec.initial_mass - spec.burnout_mass)
    s = (v, y, mass, path)
    assert bits(rk4_step(rhs, t, s, 0.0, 0.02)) == bits(_rk4_generic(rhs, t, s, 0.0, 0.02))


def test_unrolled_step_tracks_the_generic_step_along_an_entry():
    rhs = make_vehicle_rhs(VehicleSpec())
    fast = slow = ENTRY.as_vector()
    for k in range(3000):
        fast = rk4_step(rhs, k * 0.02, fast, 0.5, 0.02)
        slow = _rk4_generic(rhs, k * 0.02, slow, 0.5, 0.02)
    assert bits(fast) == bits(slow)


@pytest.mark.parametrize("size", [4, 7, 8])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_unrolled_rk4_names_the_non_finite_stage(size, stage):
    def make_rhs():
        calls = []

        def rhs(t, y, u):
            calls.append(t)
            return (math.nan if len(calls) == stage else 1.0,) * size

        return rhs

    y0 = (1.0,) * size
    with pytest.raises(IntegrationAbort) as err:
        rk4_step(make_rhs(), 0.0, y0, 0.0, 0.02)
    assert err.value.reason == f"non-finite derivative (k{stage})"
    with pytest.raises(IntegrationAbort) as ref:
        _rk4_generic(make_rhs(), 0.0, y0, 0.0, 0.02)
    assert str(err.value) == str(ref.value)
    assert bits(err.value.state) == bits(ref.value.state)


def test_speed_guard_aborts_the_run():
    cfg = IntegratorConfig(dt=0.02, t_max=30.0)
    rhs = make_vehicle_rhs(VehicleSpec())
    # vertical climb holds theta fixed, so drag plus gravity stall the run
    slow = state(3.0, math.pi / 2, y=200.0)
    with pytest.raises(IntegrationAbort) as err:
        integrate_until(rhs, lambda t, y: 0.0, 0.0, slow.as_vector(), cfg)
    assert "speed" in str(err.value)


def test_vacuum_energy_conservation():
    rhs = make_vehicle_rhs(VehicleSpec(), VACUUM)
    cfg = IntegratorConfig(dt=0.02, t_max=100.0, sample_interval=1.0)
    y0 = state(2000.0, 0.2, y=60_000.0).as_vector()
    traj = integrate_until(rhs, lambda t, y: 0.0, 0.0, y0, cfg)
    assert traj.event == "timeout"
    e0 = specific_energy(y0[1], y0[3])
    for point in traj.samples:
        e = specific_energy(point.y[1], point.y[3])
        assert abs(e - e0) / e0 < 1e-9


def test_autopilot_lag_settles_exponentially():
    """dn/dt = (u - n)/T is decoupled, so n(t) must track the closed form."""
    spec = VehicleSpec()
    rhs = make_vehicle_rhs(spec, VACUUM)
    u0 = 4.0
    y = state(2000.0, 0.3, y=60_000.0).as_vector()
    dt = 0.02
    t_end = 5.0 * spec.lag_time
    for k in range(round(t_end / dt)):
        y = rk4_step(rhs, k * dt, y, u0, dt)
    expected = u0 + (0.0 - u0) * math.exp(-t_end / spec.lag_time)
    assert y[6] == pytest.approx(expected, abs=1e-6)


def test_ground_impact_is_interpolated():
    # constant sink rate: touchdown time is exact even mid-step
    rhs = lambda t, y, u: (120.0, -100.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    y0 = (0.0, 1003.0, 0.0, 500.0, -0.2, 0.0, 0.0)
    traj = integrate_until(rhs, lambda t, y: 0.0, 0.0, y0, IntegratorConfig(dt=0.02, t_max=60.0))
    assert traj.event == "ground"
    assert traj.event_t == pytest.approx(10.03, abs=1e-9)
    assert traj.event_y[1] == pytest.approx(0.0, abs=1e-9)
    assert traj.event_y[0] == pytest.approx(120.0 * 10.03, rel=1e-9)


def test_timeout_is_a_result_not_an_error():
    rhs = make_vehicle_rhs(VehicleSpec(), VACUUM)
    cfg = IntegratorConfig(dt=0.02, t_max=2.0)
    traj = integrate_until(rhs, lambda t, y: 1.0, 0.0, state(2000.0, 0.1).as_vector(), cfg)
    assert traj.event == "timeout"
    assert traj.event_t == pytest.approx(2.0)


def test_custom_stop_events():
    rhs = make_vehicle_rhs(VehicleSpec(), VACUUM)
    cfg = IntegratorConfig(dt=0.02, t_max=60.0)
    stop = ("slowed", lambda t, y: y[3] < 1990.0)
    traj = integrate_until(rhs, lambda t, y: 0.0, 0.0, state(2000.0, 0.4).as_vector(), cfg, stop_events=(stop,))
    assert traj.event == "slowed"
    assert traj.event_y[3] < 1990.0


def test_integration_is_deterministic():
    rhs = make_vehicle_rhs(VehicleSpec())
    cfg = IntegratorConfig(dt=0.02, t_max=40.0)
    a = integrate_until(rhs, lambda t, y: 0.5, 0.0, ENTRY.as_vector(), cfg)
    b = integrate_until(rhs, lambda t, y: 0.5, 0.0, ENTRY.as_vector(), cfg)
    assert a.samples == b.samples
    assert a.event_y == b.event_y


def test_sampling_cadence_and_terminal_row():
    rhs = make_vehicle_rhs(VehicleSpec(), VACUUM)
    cfg = IntegratorConfig(dt=0.02, t_max=10.0)
    traj = integrate_until(rhs, lambda t, y: 0.0, 0.0, state(2000.0, 0.2).as_vector(), cfg, sample_interval=2.0)
    times = [p.t for p in traj.samples]
    assert times[:5] == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0])
    assert times[-1] == pytest.approx(traj.event_t)


def test_state_vector_round_trip():
    s = VehicleState(t=3.0, x=1.0, y=2.0, z=0.5, v=100.0, theta=-0.1, w=0.02, n=1.5)
    assert VehicleState.from_vector(3.0, s.as_vector()) == s
    i = InterceptorState(t=1.0, x=5.0, y=6.0, z=0.0, v=300.0, theta=1.0, w=0.0, n=2.0, mass=700.0)
    assert InterceptorState.from_vector(1.0, i.as_vector()) == i


def test_specific_energy():
    assert specific_energy(0.0, 0.0) == 0.0
    assert specific_energy(1000.0, 100.0) == pytest.approx(100.0 ** 2 / 2 + G0 * 1000.0)


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        VehicleSpec(mass=-1.0)
    with pytest.raises(ConfigError):
        VehicleSpec(wing_area=0.0)
    with pytest.raises(ConfigError):
        VehicleSpec(lag_time=0.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(g=-1.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(t_max=0.0)
