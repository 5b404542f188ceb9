import math
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from reentrysim import dynamics, interceptor

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
    _drive,
    _kernel_source,
    _rk4_generic,
)
from reentrysim.aero import (
    VEHICLE_CX_COEFFS,
    DragModel,
    interceptor_drag_model,
    vehicle_drag_model,
)
from reentrysim.engagement import _run_loop_source, batch_run_results
from reentrysim.errors import ConfigError, DomainError, IntegrationAbort
from reentrysim.interceptor import pinned_pitch_profile, type1_spec, type2_spec
from reentrysim.presets import CALIBRATED_NOISE, scenario_for_range

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
    for spec in (type1_spec(), type2_spec()):
        rhs = make_interceptor_rhs(spec)
        # either side of each thrust-stage seam: type 2's 4 s and 6 s, and burnout
        seams = [t for edge in (4.0, 6.0, spec.burn_time)
                 for t in (edge - 0.01, math.nextafter(edge, -math.inf), edge, edge + 0.01)]
        for t, v, theta, y, mass in (
            (0.5, 30.0, 1.2, 10.0, None),
            (5.0, 600.0, 1.0, 4_000.0, None),
            (20.0, 1500.0, 0.6, 14_000.0, None),
            (10.0, 900.0, 0.8, 11_000.0, None),
            (10.0, 900.0, 0.8, 25_000.0, None),
            (10.0, 0.8 * 295.1, 0.8, 20_000.0, None),
            (10.0, 1.2 * 295.1, 0.8, 20_000.0, None),
            *[(t, 600.0, 1.0, 4_000.0, None) for t in seams],
            # burnt out while a stage still burns: no thrust and no flow
            (5.0, 600.0, 1.0, 4_000.0, spec.burnout_mass),
            (10.0, 900.0, 0.8, 11_000.0, spec.burnout_mass),
        ):
            mass = spec.mass_at(t) if mass is None else mass
            s = InterceptorState(t=t, x=0.0, y=y, z=0.0, v=v, theta=theta, w=0.0, n=0.0, mass=mass)
            readable = interceptor_derivatives(s, 2.0, spec)
            fast = rhs(t, s.as_vector(), 2.0)
            assert fast == pytest.approx(tuple(readable), rel=1e-12)


@given(
    y=st.floats(0.0, 90_000.0),
    v=st.floats(50.0, 8000.0),
    theta=st.floats(-3.1, 3.1),
    z=st.floats(-1e4, 1e4),
    w=st.floats(-math.pi, math.pi).filter(lambda w: w != 0.0),
    n=st.floats(-10.0, 10.0),
    u=st.floats(-10.0, 10.0),
    t=st.floats(0.0, 40.0),
)
def test_kernels_match_the_references_at_any_heading(y, v, theta, z, w, n, u, t):
    """Flight is planar: the references carry w and z through, as the
    kernels do, so the two agree off the x axis too."""
    s = VehicleState(t=t, x=0.0, y=y, z=z, v=v, theta=theta, w=w, n=n)
    assert make_vehicle_rhs(VehicleSpec())(t, s.as_vector(), u) == pytest.approx(
        tuple(vehicle_derivatives(s, u, VehicleSpec())), rel=1e-12)
    spec = type1_spec()
    s = InterceptorState(t=t, x=0.0, y=y, z=z, v=v, theta=theta, w=w, n=n, mass=spec.mass_at(t))
    assert make_interceptor_rhs(spec)(t, s.as_vector(), u) == pytest.approx(
        tuple(interceptor_derivatives(s, u, spec)), rel=1e-12)


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


def outcome(step, rhs, t, s, u, dt):
    """A step's result, or its abort's reason, time and state, as bits."""
    try:
        return bits(step(rhs, t, s, u, dt))
    except IntegrationAbort as abort:
        return (abort.reason, abort.t.hex(), bits(abort.state))
    except DomainError as err:
        return ("DomainError", str(err))


SEAMS_M = [hi * 1000.0 for _lo, hi, *_ in DEFAULT_ATMOSPHERE.vs_branches[:-1]]
LATERAL = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e4, 1e4))


@given(
    x=st.floats(-1e6, 2e6),
    v=st.one_of(st.floats(50.0, 8000.0), st.floats(1.0, 10.0)),
    theta=st.floats(-3.1, 3.1),
    y=st.one_of(st.floats(-2_000.0, 90_000.0), st.sampled_from(SEAMS_M)),
    z=LATERAL,
    w=LATERAL,
    n=st.floats(-10.0, 10.0),
    u=st.floats(-10.0, 10.0),
    dt=st.sampled_from([0.02, 0.2, 1.0]),
)
# Mach above the vehicle's cap, at the last speed-of-sound row
@example(x=0.0, v=7873.0, theta=-0.0442, y=84_109.0, z=-0.0, w=-0.0, n=0.0, u=0.0, dt=0.02)
# speed below the guard first at stage k2, k3 and k4
@example(x=0.0, v=1.0, theta=0.5, y=200.0, z=0.0, w=0.0, n=-5.0, u=-10.0, dt=0.02)
@example(x=0.0, v=3.0, theta=0.5, y=200.0, z=0.0, w=0.0, n=-5.0, u=-10.0, dt=0.5)
@example(x=0.0, v=1.5, theta=0.5, y=200.0, z=0.0, w=0.0, n=-5.0, u=-10.0, dt=0.2)
# one of the rare states where ``hc / 1000.0`` for ``hc * 0.001`` moves bits
@example(x=0.0, v=3134.163060435017, theta=0.6909170071348139, y=3527.3567092330936, z=0.0,
         w=0.0, n=-5.622532292776348, u=-3.994995987976928, dt=0.02)
# overflow: in the drag term, in one output, and in the sum only
@example(x=0.0, v=1e200, theta=-0.1, y=30_000.0, z=0.0, w=0.0, n=0.0, u=0.0, dt=0.02)
@example(x=1.7976931348623157e308, v=1e300, theta=0.5, y=1e7, z=0.0, w=0.0, n=0.0,
         u=0.0, dt=0.02)
@example(x=1e308, v=8000.0, theta=0.0, y=1e308, z=0.0, w=0.0, n=0.0, u=0.0, dt=0.02)
def test_unrolled_vehicle_step_matches_the_generic_step(x, v, theta, y, z, w, n, u, dt):
    rhs = make_vehicle_rhs(VehicleSpec())
    s = (x, y, z, v, theta, w, n)
    assert outcome(rk4_step, rhs, 7.0, s, u, dt) == outcome(_rk4_generic, rhs, 7.0, s, u, dt)


def profile_rhs(spec, theta, env=DEFAULT_ATMOSPHERE):
    """The 4-state RHS pinned_pitch_profile builds, caught at its first step."""
    seen = []

    def spy(rhs, t, y, u, dt):
        seen.append(rhs)
        return rk4_step(rhs, t, y, u, dt)

    with mock.patch.object(interceptor, "rk4_step", spy):
        pinned_pitch_profile(spec, theta, 0.02, env)
    return seen[0]


UNCAPPED = VehicleSpec(drag=replace(vehicle_drag_model(), mach_cap=math.inf))

# kind -> (fused RHS, a state it flies)
FUSED = {
    "vehicle": lambda: (make_vehicle_rhs(VehicleSpec()), ENTRY.as_vector()),
    "uncapped vehicle": lambda: (make_vehicle_rhs(UNCAPPED), ENTRY.as_vector()),
    "interceptor": lambda: (make_interceptor_rhs(type1_spec()),
                            (0.0, 900.0, 0.0, 300.0, 1.0, 0.0, 2.0, 800.0)),
    "profile": lambda: (profile_rhs(type1_spec(), 1.0), (300.0, 900.0, 800.0, 0.0)),
}


@pytest.mark.parametrize("kind", FUSED)
def test_rk4_step_takes_the_fused_step_only_on_the_bare_rhs(kind):
    rhs, y = FUSED[kind]()
    with mock.patch.object(dynamics, "_rk4_generic", side_effect=AssertionError) as reference:
        fused = rk4_step(rhs, 0.0, y, 0.5, 0.02)
        assert not reference.called
        with pytest.raises(AssertionError):
            rk4_step(lambda t, y, u: rhs(t, y, u), 0.0, y, 0.5, 0.02)
    assert bits(fused) == bits(_rk4_generic(rhs, 0.0, y, 0.5, 0.02))


def test_fused_vehicle_step_at_every_speed_of_sound_seam():
    rhs = make_vehicle_rhs(VehicleSpec())
    for h in SEAMS_M + [-500.0, 0.0]:
        for v in (250.0, 900.0, 7873.0):
            for h_step in (h, math.nextafter(h, -math.inf), math.nextafter(h, math.inf)):
                # a dive, and level flight at n = u = 1, which holds every
                # stage at the same altitude
                for theta, u in ((-0.2, 2.0), (0.0, 1.0)):
                    s = (0.0, h_step, 0.0, v, theta, 0.0, 1.0)
                    fused = rk4_step(rhs, 0.0, s, u, 0.02)
                    assert bits(fused) == bits(_rk4_generic(rhs, 0.0, s, u, 0.02))


def reference_calls(rhs, t, s, u, dt):
    """How many RHS calls the reference step made before it raised."""
    calls = []

    def counted(t, y, u):
        calls.append(t)
        return rhs(t, y, u)

    with pytest.raises((IntegrationAbort, DomainError)):
        _rk4_generic(counted, t, s, u, dt)
    return len(calls)


@pytest.mark.parametrize("calls, x, h, v, dt, reason", [
    # the speed guard, first crossed at stage k2, k3 and k4
    (2, 0.0, 200.0, 1.0, 0.02, "speed below guard (1/v singular)"),
    (3, 0.0, 200.0, 3.0, 0.5, "speed below guard (1/v singular)"),
    (4, 0.0, 200.0, 1.5, 0.2, "speed below guard (1/v singular)"),
    # overflow: of the drag term (a -inf speed at k2), of one output, and
    # of the sum of finite outputs
    (2, 0.0, 200.0, 1e200, 0.02, "speed below guard (1/v singular)"),
    (4, 1.7976931348623157e308, 1e7, 1e300, 0.02, "non-finite derivative (y)"),
    (4, 1e308, 1e308, 8000.0, 0.02, "non-finite state"),
])
def test_fused_vehicle_step_replays_each_abort_through_the_reference(calls, x, h, v, dt, reason):
    s = (x, h, 0.0, v, 0.5, 0.0, -5.0)
    rhs = make_vehicle_rhs(VehicleSpec())
    assert reference_calls(rhs, 0.0, s, -10.0, dt) == calls
    with pytest.raises(IntegrationAbort) as err:
        rhs.rk4_step(0.0, s, -10.0, dt)
    assert err.value.reason == reason
    assert outcome(rk4_step, rhs, 0.0, s, -10.0, dt) == outcome(_rk4_generic, rhs, 0.0, s, -10.0, dt)


def test_infinite_altitude_aborts_instead_of_crashing():
    vehicle = make_vehicle_rhs(VehicleSpec())
    s = (0.0, math.inf, 0.0, 900.0, -0.2, 0.0, 0.0)
    for step in (rk4_step, _rk4_generic):
        with pytest.raises(IntegrationAbort) as err:
            step(vehicle, 3.0, s, 0.0, 0.02)
        assert err.value.reason == "non-finite altitude"
        assert err.value.t == 3.0
    spec = type1_spec()
    missile = make_interceptor_rhs(spec)
    with pytest.raises(IntegrationAbort) as err:
        missile(1.0, (0.0, math.inf, 0.0, 600.0, 1.0, 0.0, 0.0, spec.initial_mass), 0.0)
    assert err.value.reason == "non-finite altitude"


# times a step earlier than a thrust-stage boundary or burnout (type 2 at 4 s,
# 6 s and 29.79 s; type 1 at 13.124 s), so the seam falls inside the step
STAGE_SEAMS = [edge - f * 0.02 for edge in (4.0, 6.0, type2_spec().burn_time,
                                           type1_spec().burn_time) for f in (0.25, 0.5, 1.0)]
MACH_SEAMS_20KM = [0.8 * 295.1, 1.2 * 295.1]  # Mach exactly 0.8 and 1.2 at 20 km
# launch and every thrust-stage seam of the stock specs (type 2's 4 s, 6 s and
# burnout, type 1's burnout at 13.124 s), each with one ulp either side; then
# -0.0, a time before launch, one after every burnout, and NaN
THRUST_SEAM_TIMES = [
    x for edge in (0.0, 4.0, 6.0, type2_spec().burn_time, type1_spec().burn_time)
    for x in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
] + [-0.0, -1.0, 40.0, math.nan]


@given(
    type2=st.booleans(),
    t=st.one_of(st.floats(0.0, 40.0), st.sampled_from(STAGE_SEAMS)),
    v=st.one_of(st.floats(20.0, 3000.0), st.sampled_from(MACH_SEAMS_20KM)),
    theta=st.floats(-1.5, 1.5),
    y=st.one_of(st.floats(0.0, 40_000.0), st.sampled_from(SEAMS_M + [20_000.0])),
    n=st.floats(-10.0, 10.0),
    u=st.floats(-10.0, 10.0),
)
# Mach on each drag seam, and a stage boundary inside the step
@example(type2=False, t=5.0, v=MACH_SEAMS_20KM[0], theta=0.0, y=20_000.0, n=1.0, u=1.0)
@example(type2=False, t=5.0, v=MACH_SEAMS_20KM[1], theta=0.0, y=20_000.0, n=1.0, u=1.0)
@example(type2=True, t=3.99, v=600.0, theta=1.0, y=3_000.0, n=0.0, u=2.0)
@example(type2=True, t=5.99, v=600.0, theta=1.0, y=3_000.0, n=0.0, u=2.0)
# burnout inside the step
@example(type2=False, t=13.11, v=1500.0, theta=1.0, y=11_000.0, n=0.0, u=2.0)
def test_unrolled_interceptor_step_matches_the_generic_step(type2, t, v, theta, y, n, u):
    spec = type2_spec() if type2 else type1_spec()
    rhs = make_interceptor_rhs(spec)
    assert rhs.rk4_step is not None
    s = (500.0, y, 0.0, v, theta, 0.0, n, spec.mass_at(t))
    assert outcome(rk4_step, rhs, t, s, u, 0.02) == outcome(_rk4_generic, rhs, t, s, u, 0.02)


@given(
    type2=st.booleans(),
    theta=st.floats(-1.5, 3.1),
    t=st.one_of(st.floats(0.0, 40.0), st.sampled_from(STAGE_SEAMS)),
    v=st.floats(-20.0, 3000.0),
    y=st.one_of(st.floats(0.0, 40_000.0), st.sampled_from(SEAMS_M)),
    burnt=st.floats(0.0, 1.0),
    path=st.floats(0.0, 60_000.0),
)
# the v <= 0 clamp
@example(type2=False, theta=1.5, t=20.0, v=0.0, y=500.0, burnt=1.0, path=10.0)
@example(type2=False, theta=1.5, t=20.0, v=-5.0, y=500.0, burnt=1.0, path=10.0)
def test_unrolled_profile_step_matches_the_generic_step(type2, theta, t, v, y, burnt, path):
    spec = type2_spec() if type2 else type1_spec()
    rhs = profile_rhs(spec, theta)
    assert rhs.rk4_step is not None
    mass = spec.initial_mass - burnt * (spec.initial_mass - spec.burnout_mass)
    s = (v, y, mass, path)
    assert outcome(rk4_step, rhs, t, s, 0.0, 0.02) == outcome(_rk4_generic, rhs, t, s, 0.0, 0.02)


@pytest.mark.parametrize("type2, theta, t, v, y", [
    # a slow climb where ``hc * 0.001`` in place of ``hc / 1000.0`` moves bits
    (True, 0.22669744364138517, 25.72850677369641, 382.5138356224252, 7044.027625540523),
    # every speed-of-sound seam, and Mach on both drag seams at 20 km
    *[(False, 1.0, 20.0, 600.0, h) for h in SEAMS_M],
    *[(False, 0.0, 20.0, v, 20_000.0) for v in MACH_SEAMS_20KM],
    # a thrust-stage boundary or burnout inside the step
    *[(True, 1.0, t, 300.0, 2_000.0) for t in STAGE_SEAMS],
])
def test_fused_profile_step_at_each_seam(type2, theta, t, v, y):
    spec = type2_spec() if type2 else type1_spec()
    rhs = profile_rhs(spec, theta)
    for h in (y, math.nextafter(y, -math.inf), math.nextafter(y, math.inf)):
        s = (v, h, spec.mass_at(t), 1_000.0)
        assert bits(rk4_step(rhs, t, s, 0.0, 0.02)) == bits(_rk4_generic(rhs, t, s, 0.0, 0.02))


@pytest.mark.parametrize("spec", [type1_spec(), type2_spec()], ids=["type-1", "type-2"])
def test_rhs_at_each_thrust_seam_matches_the_readable_model(spec):
    """With the burnout gate open the stage chain alone picks the stage: the
    interceptor and profile RHS burn as ``interceptor_derivatives`` does."""
    missile, profile = make_interceptor_rhs(spec), profile_rhs(spec, 1.0)
    mass = spec.burnout_mass + 1.0
    for t in THRUST_SEAM_TIMES:
        s = InterceptorState(t=t, x=0.0, y=4_000.0, z=0.0, v=600.0, theta=1.0, w=0.0, n=0.0,
                             mass=mass)
        readable = interceptor_derivatives(s, 2.0, spec)
        fast = missile(t, s.as_vector(), 2.0)
        assert fast == pytest.approx(tuple(readable), rel=1e-12)
        dv, dh, dmass, dpath = profile(t, (600.0, 4_000.0, mass, 0.0), 0.0)
        assert (dv, dh) == pytest.approx((readable.v, readable.y), rel=1e-12)
        assert fast[7] == dmass == readable.mass == -spec.thrust_and_flow(t)[1]
        assert dpath == 600.0


@pytest.mark.parametrize("spec", [type1_spec(), type2_spec()], ids=["type-1", "type-2"])
def test_fused_steps_at_each_thrust_seam(spec):
    """With the burnout gate open, a step whose k1, k2 and k3, or k4 falls
    on or beside a seam has the reference step's bits, in both kernels."""
    missile, profile = make_interceptor_rhs(spec), profile_rhs(spec, 1.0)
    mass = spec.burnout_mass + 1.0
    for seam in THRUST_SEAM_TIMES:
        for t in (seam, seam - 0.01, seam - 0.02):
            for rhs, s in ((missile, (0.0, 4_000.0, 0.0, 600.0, 1.0, 0.0, 1.0, mass)),
                           (profile, (600.0, 4_000.0, mass, 0.0))):
                assert outcome(rk4_step, rhs, t, s, 2.0, 0.02) == outcome(
                    _rk4_generic, rhs, t, s, 2.0, 0.02)


def stalling(v):
    """A burnt-out interceptor climbing slowly at 200 m, pulling down hard."""
    return (0.0, 200.0, 0.0, v, 0.5, 0.0, -5.0, type1_spec().burnout_mass)


@pytest.mark.parametrize("kind, calls, t, s, u, dt, reason", [
    # the speed guard, first crossed at stage k2, k3 and k4
    ("interceptor", 2, 40.0, stalling(1.0), -10.0, 0.02, "speed below guard (1/v singular)"),
    ("interceptor", 3, 40.0, stalling(3.0), -10.0, 0.5, "speed below guard (1/v singular)"),
    ("interceptor", 4, 40.0, stalling(1.5), -10.0, 0.2, "speed below guard (1/v singular)"),
    # v = inf: Mach past every drag segment under an infinite mach_cap ...
    ("interceptor", 1, 1.0, (0.0, 5e3, 0.0, math.inf, 0.5, 0.0, 0.0, 900.0), 0.0, 0.02,
     "non-finite Mach"),
    ("uncapped vehicle", 1, 1.0, (0.0, 5e3, 0.0, math.inf, 0.5, 0.0, 0.0), 0.0, 0.02,
     "non-finite Mach"),
    # ... and under the vehicle's finite cap, a drag that makes k2's speed -inf
    ("vehicle", 2, 1.0, (0.0, 5e3, 0.0, math.inf, 0.5, 0.0, 0.0), 0.0, 0.02,
     "speed below guard (1/v singular)"),
    # h = inf: no speed-of-sound branch holds it
    ("interceptor", 1, 1.0, (0.0, math.inf, 0.0, 600.0, 0.5, 0.0, 0.0, 900.0), 0.0, 0.02,
     "non-finite altitude"),
    ("vehicle", 1, 1.0, (0.0, math.inf, 0.0, 600.0, 0.5, 0.0, 0.0), 0.0, 0.02,
     "non-finite altitude"),
    # the profile's non-finite y0, and a NaN or overflowing speed reaching h
    ("profile", 1, 0.0, (math.inf, 100.0, 900.0, 0.0), 0.0, 0.02,
     "speed must be finite and >= 0, got inf"),
    ("profile", 1, 0.0, (100.0, math.inf, 900.0, 0.0), 0.0, 0.02, "altitude must be finite, got inf"),
    ("profile", 1, 0.0, (100.0, math.nan, 900.0, 0.0), 0.0, 0.02, "altitude must be finite, got nan"),
    ("profile", 2, 0.0, (math.nan, 100.0, 900.0, 0.0), 0.0, 0.02, "altitude must be finite, got nan"),
    ("profile", 3, 0.0, (1e308, 100.0, 900.0, 0.0), 0.0, 0.02, "altitude must be finite, got -inf"),
])
def test_fused_steps_replay_each_abort_through_the_reference(kind, calls, t, s, u, dt, reason):
    rhs, _ = FUSED[kind]()
    assert reference_calls(rhs, t, s, u, dt) == calls
    with pytest.raises((IntegrationAbort, DomainError)) as err:
        rhs.rk4_step(t, s, u, dt)
    assert getattr(err.value, "reason", str(err.value)) == reason
    assert outcome(rk4_step, rhs, t, s, u, dt) == outcome(_rk4_generic, rhs, t, s, u, dt)


def test_infinite_speed_aborts_the_interceptor_rhs_instead_of_crashing():
    spec = type1_spec()
    missile = make_interceptor_rhs(spec)
    with pytest.raises(IntegrationAbort) as err:
        missile(1.0, (0.0, 5_000.0, 0.0, math.inf, 1.0, 0.0, 0.0, spec.initial_mass), 0.0)
    assert err.value.reason == "non-finite Mach"
    assert err.value.t == 1.0


# Tables off the stock ones, each compiled into kernels of its own: other
# drag seams without a Mach cap, other speed-of-sound branches, and signed
# zeros, which equal 0.0 as floats but not as literals.
OFF_STOCK = {
    "drag seams at 0.7 and 1.3, uncapped": (
        DEFAULT_ATMOSPHERE, DragModel(segments=tuple(
            (lo, hi, *c) for lo, hi, c in zip((0.0, 0.7, 1.3), (0.7, 1.3, math.inf),
                                             VEHICLE_CX_COEFFS)))),
    "three speed-of-sound branches": (
        AtmosphereModel(vs_branches=((0.0, 5.0, 340.0, -3.0, 0.0), (5.0, 30.0, 325.0, 0.0, 5.0),
                                     (30.0, math.inf, 300.0, 0.5, 0.0))),
        vehicle_drag_model()),
    "signed zeros": (
        AtmosphereModel(vs_branches=((0.0, 5.0, 340.0, -3.0, -0.0), (5.0, 30.0, 325.0, -0.0, 5.0),
                                     (30.0, math.inf, 300.0, 0.5, -0.0))),
        DragModel(segments=((0.0, 0.9, -0.0, 0.3, 0.25), (0.9, 2.0, 0.1, -0.0, 0.4),
                            (2.0, math.inf, -0.0, -0.0, 0.2)), mach_cap=5.0)),
}


def seams_and_non_finite(env, drag):
    """Altitudes at and beside every speed-of-sound seam, speeds at and beside
    every drag seam at 20 km, each list with NaN and both infinities."""
    def around(values):
        return [x for v in values for x in (v, math.nextafter(v, -math.inf),
                                             math.nextafter(v, math.inf))]

    heights = around([hi * 1000.0 for _lo, hi, *_ in env.vs_branches[:-1]] + [0.0, 20_000.0])
    vs_20km = env.speed_of_sound(20_000.0)
    speeds = around([hi * vs_20km for _lo, hi, *_ in drag.segments[:-1]] + [1.0, 900.0, 7873.0])
    non_finite = [math.nan, math.inf, -math.inf]
    return heights + non_finite, speeds + non_finite


@pytest.mark.parametrize("tables", OFF_STOCK)
def test_kernels_off_the_stock_tables_match_the_references(tables):
    env, drag = OFF_STOCK[tables]
    vehicle_spec, missile_spec = VehicleSpec(drag=drag), replace(type1_spec(), drag=drag)
    vehicle = make_vehicle_rhs(vehicle_spec, env)
    missile = make_interceptor_rhs(missile_spec, env)
    profile = profile_rhs(missile_spec, 1.0, env)
    heights, speeds = seams_and_non_finite(env, drag)
    for h in heights:
        for v in speeds:
            for rhs, s in ((vehicle, (0.0, h, 0.0, v, -0.2, 0.0, 1.0)),
                           (missile, (0.0, h, 0.0, v, 0.8, 0.0, 1.0, 800.0)),
                           (profile, (v, h, 800.0, 0.0))):
                assert outcome(rk4_step, rhs, 5.0, s, 2.0, 0.02) == outcome(
                    _rk4_generic, rhs, 5.0, s, 2.0, 0.02)
            if not (math.isfinite(h) and math.isfinite(v) and v >= 1.0):
                continue
            s = VehicleState(t=5.0, x=0.0, y=h, z=0.0, v=v, theta=-0.2, n=1.0)
            assert vehicle(5.0, s.as_vector(), 2.0) == pytest.approx(
                tuple(vehicle_derivatives(s, 2.0, vehicle_spec, env)), rel=1e-12)
            s = InterceptorState(t=5.0, x=0.0, y=h, z=0.0, v=v, theta=0.8, w=0.0, n=1.0, mass=800.0)
            assert missile(5.0, s.as_vector(), 2.0) == pytest.approx(
                tuple(interceptor_derivatives(s, 2.0, missile_spec, env)), rel=1e-12)


def test_a_nan_table_entry_never_reaches_a_kernel():
    # the tables reject it at construction, so no kernel spells a ``nan`` literal
    with pytest.raises(ConfigError, match="must be finite"):
        AtmosphereModel(vs_branches=((0.0, math.inf, math.nan, 0.0, 0.0),))
    with pytest.raises(ConfigError, match="must be finite"):
        DragModel(segments=((0.0, math.inf, math.nan, 0.0, 0.0),))


KERNELS = Path(__file__).parent / "kernels"
# the stock tables each kernel flies on, and the stages of a stock spec:
# type 2's three, so the snapshots show a chain of seams; engagement's run
# loop inlines the vehicle kernel's step
STOCK_DRAG = {"vehicle": vehicle_drag_model(), "interceptor": interceptor_drag_model(),
              "profile": interceptor_drag_model(), "run_loop": vehicle_drag_model()}
STOCK_STAGES = {"vehicle": (), "interceptor": type2_spec().stages, "profile": type2_spec().stages,
                "run_loop": ()}
REWRITE = (
    "PYTHONPATH=src:tests python -c \"import test_dynamics as t; "
    "[(t.KERNELS / f'{n}.txt').write_text(t.stock_source(n)) for n in t.STOCK_DRAG]\""
)


def stock_source(name):
    source = _run_loop_source if name == "run_loop" else _kernel_source
    return source(name, DEFAULT_ATMOSPHERE.vs_branches, STOCK_DRAG[name].segments,
                  tuple(stage[1] for stage in STOCK_STAGES[name]))


@pytest.mark.parametrize("name", STOCK_DRAG)
def test_generated_kernel_source_matches_its_snapshot(name):
    snapshot = (KERNELS / f"{name}.txt").read_text(encoding="utf-8")
    assert stock_source(name) == snapshot, (
        f"the generated {name} kernel changed; review the diff after rewriting the "
        f"snapshots from the repository root with:\n{REWRITE}"
    )


def test_every_snapshot_is_of_a_generated_kernel():
    """A snapshot left behind by a kernel that is no longer generated fails
    here, and so does a kernel without one."""
    snapshots = sorted(path.stem for path in KERNELS.glob("*.txt"))
    assert snapshots == sorted(STOCK_DRAG), (
        f"tests/kernels/ holds {snapshots}, the generated kernels are {sorted(STOCK_DRAG)}; "
        f"delete the stale snapshots and rewrite the rest from the repository root with:\n"
        f"{REWRITE}"
    )


def test_kernels_compile_once_per_process_and_show_in_tracebacks():
    for kind in FUSED:
        FUSED[kind]()
    with mock.patch.object(dynamics, "compile", side_effect=AssertionError, create=True):
        for kind in FUSED:
            rhs, y = FUSED[kind]()
            assert bits(rk4_step(rhs, 0.0, y, 0.5, 0.02)) == bits(_rk4_generic(rhs, 0.0, y, 0.5, 0.02))
    # the last is the profile; a NaN altitude replays from the generated line
    with pytest.raises(DomainError) as err:
        rhs.rk4_step(0.0, (100.0, math.nan, 900.0, 0.0), 0.0, 0.02)
    text = "".join(traceback.format_tb(err.value.__traceback__))
    assert "<reentrysim.dynamics generated profile kernel " in text
    assert "return _rk4_generic(rhs, t, y, u, dt)" in text
    # a plain RHS call raises from its own generated line, whatever its
    # tables: the shorter chain of other tables puts the line elsewhere
    frames = []
    for env in (DEFAULT_ATMOSPHERE, OFF_STOCK["three speed-of-sound branches"][0]):
        with pytest.raises(IntegrationAbort) as err:
            make_vehicle_rhs(VehicleSpec(), env)(0.0, (0.0, math.inf, 0.0, 900.0, -0.2, 0.0, 0.0), 0.0)
        frames.append(traceback.extract_tb(err.value.__traceback__)[-1])
        assert frames[-1].filename.startswith("<reentrysim.dynamics generated vehicle kernel ")
        assert frames[-1].line == 'raise IntegrationAbort("non-finite altitude", t, y)'
    assert frames[0].filename != frames[1].filename
    assert frames[0].lineno != frames[1].lineno


def test_each_table_set_compiles_its_own_kernel_once():
    plain, signed = (OFF_STOCK[k][0] for k in ("three speed-of-sound branches", "signed zeros"))
    assert plain == signed  # as floats, -0.0 == 0.0
    uncapped = OFF_STOCK["drag seams at 0.7 and 1.3, uncapped"][1]
    with mock.patch.dict(dynamics._FACTORIES, clear=True), \
            mock.patch.object(dynamics, "compile", wraps=compile, create=True) as compiled:
        rhs = [make_vehicle_rhs(VehicleSpec(), plain), make_vehicle_rhs(VehicleSpec(), signed),
               make_vehicle_rhs(VehicleSpec(drag=uncapped), plain)]
        assert compiled.call_count == 3
        assert len({r.rk4_step.__code__.co_filename for r in rhs}) == 3
        # density, floor and cap are arguments of the compiled kernel
        floored = replace(vehicle_drag_model(), cx_floor=0.07, mach_cap=3.0)
        make_vehicle_rhs(VehicleSpec(drag=floored), replace(plain, rho0=1.3, k_decay=1e-4))
        assert compiled.call_count == 3


def test_a_repeated_lookup_of_the_same_tables_skips_repr():
    """A lookup with the very table objects of an earlier one finds its
    kernel without ``repr``; other objects take the ``repr`` key, on which
    equal tables share a kernel and -0.0 and 0.0 still compile two."""
    plain, signed = (OFF_STOCK[k][0] for k in ("three speed-of-sound branches", "signed zeros"))
    copied = AtmosphereModel(vs_branches=tuple(tuple(row) for row in plain.vs_branches))
    assert copied.vs_branches is not plain.vs_branches
    spec = VehicleSpec()
    with mock.patch.dict(dynamics._FACTORIES, clear=True), \
            mock.patch.object(dynamics, "compile", wraps=compile, create=True) as compiled:
        first = make_vehicle_rhs(spec, plain)
        with mock.patch.object(dynamics, "repr", side_effect=AssertionError, create=True):
            again = make_vehicle_rhs(spec, replace(plain, rho0=1.3))
        assert compiled.call_count == 1
        assert again.rk4_step.__code__ is first.rk4_step.__code__
        with mock.patch.object(dynamics, "repr", wraps=repr, create=True) as keyed:
            make_vehicle_rhs(spec, copied)
        assert keyed.call_count == 3 and compiled.call_count == 1
        make_vehicle_rhs(spec, signed)
        assert compiled.call_count == 2


def test_a_calibrated_noise_batch_compiles_its_kernel_once():
    """Once each: the vehicle kernel, and the run loop generated over it."""
    scenario = replace(scenario_for_range(615_000), noise=CALIBRATED_NOISE, runs=3, seed=5)
    with mock.patch.dict(dynamics._FACTORIES, clear=True), \
            mock.patch.object(dynamics, "compile", wraps=compile, create=True) as compiled, \
            mock.patch.object(dynamics, "_generated_rhs", wraps=dynamics._generated_rhs) as built:
        batch_run_results(scenario)
    densities = {call.args[1].rho0 for call in built.call_args_list}
    assert len(densities) >= scenario.runs
    assert sorted(call.args[1].split()[2] for call in compiled.call_args_list) == [
        "run_loop", "vehicle"]


@pytest.mark.parametrize("calibrate", [interceptor.calibrate_type1, interceptor.calibrate_type2])
def test_a_calibration_compiles_its_profile_kernel_once(calibrate):
    # the fits vary stage thrust, an argument of the kernel, never a seam
    with mock.patch.dict(dynamics._FACTORIES, clear=True), \
            mock.patch.object(dynamics, "compile", wraps=compile, create=True) as compiled:
        calibrate()
    assert compiled.call_count == 1


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


@pytest.mark.parametrize("t0", [math.inf, -math.inf, math.nan])
def test_non_finite_start_time_is_rejected(t0):
    rhs = make_vehicle_rhs(VehicleSpec())
    with pytest.raises(DomainError, match="t0 must be finite and < t_max"):
        integrate_until(rhs, lambda t, y: 0.0, t0, ENTRY.as_vector(), IntegratorConfig())


@pytest.mark.parametrize("index, bad", [(1, math.nan), (3, math.inf), (4, math.inf), (6, -math.inf)])
def test_non_finite_start_state_is_rejected(index, bad):
    """theta = inf used to leak a bare ValueError from the fused step."""
    y0 = list(ENTRY.as_vector())
    y0[index] = bad
    with pytest.raises(DomainError, match="y0 must be finite"):
        integrate_until(make_vehicle_rhs(VehicleSpec()), lambda t, y: 0.0, 0.0, y0, IntegratorConfig())


@pytest.mark.parametrize("t0", [600.0, 1e9])
def test_start_time_at_or_past_t_max_is_rejected(t0):
    """Past the end the driver used to take one step and report a timeout."""
    rhs = make_vehicle_rhs(VehicleSpec())
    with pytest.raises(DomainError, match=r"t0 must be finite and < t_max \(600.0\)"):
        integrate_until(rhs, lambda t, y: 0.0, t0, ENTRY.as_vector(), IntegratorConfig())


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


@pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -1.0])
def test_bad_sample_interval_is_rejected(interval):
    """It used to leak a raw ValueError (nan) or OverflowError (inf), or
    sample every step (0.0, -1.0)."""
    rhs = make_vehicle_rhs(VehicleSpec())
    with pytest.raises(DomainError, match="sample_interval must be finite and > 0"):
        integrate_until(rhs, lambda t, y: 0.0, 0.0, ENTRY.as_vector(), IntegratorConfig(),
                        sample_interval=interval)


class TestDrive:
    """Precedence in the one step loop, on a constant sink of 100 m/s that
    crosses the ground inside step 502 (t = 10.02 to 10.04 s)."""

    cfg = IntegratorConfig(dt=0.02, t_max=60.0)
    y0 = (0.0, 1003.0, 0.0, 500.0, -0.2, 0.0, 0.0)

    @staticmethod
    def sink(t, y, u):
        return (120.0, -100.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def drive(self, t0=0.0, after_step=None):
        return _drive(partial(rk4_step, self.sink), lambda t, y: 0.0, t0, self.y0, self.cfg,
                      after_step=after_step)

    def test_a_hook_ending_on_the_crossing_step_wins_over_touchdown(self):
        """As a defended run's intercept on its last step does."""
        end, t, y, samples, steps = self.drive()
        assert (end, steps, samples) == ("ground", 502, [])
        assert t == pytest.approx(10.03, abs=1e-9)

        def hook(t, y, y_next):
            return "hit" if y_next[1] <= 0.0 else None

        end, t, y, samples, steps = self.drive(after_step=hook)
        assert (end, steps) == ("hit", 502)
        assert t.hex() == (502 * 0.02).hex()
        assert y[1] < 0.0  # the post-step state, not interpolated

    def test_ground_wins_over_a_stop_event_on_the_same_step(self):
        low = ("low", lambda t, y: y[1] <= 0.0)
        traj = integrate_until(self.sink, lambda t, y: 0.0, 0.0, self.y0, self.cfg,
                               stop_events=(low,))
        assert (traj.event, traj.steps) == ("ground", 502)
        assert traj.event_y[1] == pytest.approx(0.0, abs=1e-9)

    def test_stop_events_see_t0_plus_k_dt(self):
        """Not t + dt, which differs in the last bit on about a quarter of
        these steps."""
        t0, dt, seen = 0.1, self.cfg.dt, []

        def below(t, y):
            seen.append(t)
            return y[1] < 500.0

        traj = integrate_until(self.sink, lambda t, y: 0.0, t0, self.y0, self.cfg,
                               stop_events=(("below", below),), sample_interval=1.0)
        assert traj.event == "below"
        assert [t.hex() for t in seen] == [(t0 + k * dt).hex() for k in range(1, traj.steps + 1)]
        assert traj.event_t.hex() == traj.samples[-1].t.hex() == (t0 + traj.steps * dt).hex()
        assert traj.samples[-1].y == traj.event_y


def test_state_vector_round_trip():
    s = VehicleState(t=3.0, x=1.0, y=2.0, z=0.5, v=100.0, theta=-0.1, w=0.02, n=1.5)
    assert VehicleState(3.0, *s.as_vector()) == s
    i = InterceptorState(t=1.0, x=5.0, y=6.0, z=0.0, v=300.0, theta=1.0, w=0.0, n=2.0, mass=700.0)
    assert InterceptorState(1.0, *i.as_vector()) == i


def test_specific_energy():
    assert specific_energy(0.0, 0.0) == 0.0
    assert specific_energy(1000.0, 100.0) == pytest.approx(100.0 ** 2 / 2 + G0 * 1000.0)


@pytest.mark.parametrize("key", ["mass", "wing_area", "lag_time"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_vehicle_spec_values_must_be_finite(key, value):
    """On x800 an infinite mass or lag used to land 53 or 81 km off target
    without an error, and an infinite wing area to abort below the speed guard."""
    with pytest.raises(ConfigError, match=f"{key} must be finite and > 0"):
        VehicleSpec(**{key: value})


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
    # non-finite values, which the step loops cannot size
    for bad in (math.inf, math.nan):
        for key in ("t_max", "g", "sample_interval"):
            with pytest.raises(ConfigError, match=key):
                IntegratorConfig(**{key: bad})
