import math

import pytest
from hypothesis import given, strategies as st

from reentrysim.dynamics import G0
from reentrysim.engagement import GaussianStream, NoiseConfig, Scenario, _VehicleControl
from reentrysim.errors import ConfigError, DomainError
from reentrysim.guidance import (
    EvasionConfig,
    EvasionController,
    GuidanceConfig,
    GuidancePhase,
    SeekerModel,
    evasion_radius,
    hold_gain_from_turn,
    wrap_angle,
)
from reentrysim.presets import ENTRY

TARGET = (615_000.0, 0.0)


def state(v=2000.0, theta=-0.1, y=30_000.0, x=0.0, n=0.0):
    """A vehicle state tuple, as the step loop hands it to the control."""
    return (x, y, 0.0, v, theta, 0.0, n)


def control(phase=GuidancePhase.GRAVITATIONAL, cfg=GuidanceConfig(), seeker=SeekerModel(),
            target=TARGET, noise=NoiseConfig(), stream=None):
    """The per-run phase machine the engagement layer flies, in ``phase``."""
    sc = Scenario(entry=ENTRY, target=target, guidance=cfg, seeker=seeker, noise=noise)
    ctl = _VehicleControl(sc, stream)
    ctl.phase = phase
    return ctl


def command(phase, s, cfg, target=TARGET):
    """The load factor commanded from ``s``, asserting the phase held."""
    ctl = control(phase, cfg, target=target)
    u = ctl(0.0, s)
    assert ctl.phase is phase
    return u


class TestPhaseLaws:
    # states sit where their phase holds: the laws, not the switches, rule
    def test_gravitational_commands_nothing(self):
        cfg = GuidanceConfig()
        assert command(GuidancePhase.GRAVITATIONAL, state(y=85_000.0), cfg) == 0.0

    def test_gravitational_cos_theta_variant(self):
        cfg = GuidanceConfig(gravitational_cos_theta=True)
        u = command(GuidancePhase.GRAVITATIONAL, state(theta=-0.25, y=85_000.0), cfg)
        assert u == pytest.approx(math.cos(-0.25))

    def test_pull_up_turn_command(self):
        cfg = GuidanceConfig(pullup_radius=45_000.0)
        s = state(v=2000.0, theta=-0.1, y=40_000.0)
        u = command(GuidancePhase.PULL_UP, s, cfg)
        assert u == pytest.approx(2000.0 ** 2 / (G0 * 45_000.0) + math.cos(-0.1))
        assert u == pytest.approx(10.059, abs=0.01)

    def test_altitude_hold_is_proportional_and_clamped(self):
        cfg = GuidanceConfig(hold_altitude=35_000.0, hold_gain=0.01)
        s = state(theta=0.0, y=33_000.0)
        # raw command 0.01 * 2000 + 1 = 21 hits the structural limit
        assert command(GuidancePhase.ALTITUDE_HOLD, s, cfg) == cfg.u_max
        near = state(theta=0.0, y=34_950.0)
        assert command(GuidancePhase.ALTITUDE_HOLD, near, cfg) == pytest.approx(1.5)

    def test_terminal_homing_is_pure_in_alpha(self):
        cfg = GuidanceConfig(terminal_gain=240.0)
        los = math.atan2(-10_000.0, 10_000.0)
        x = TARGET[0] - 10_000.0
        assert command(GuidancePhase.TERMINAL, state(theta=los, y=10_000.0, x=x), cfg) == 0.0
        u = command(GuidancePhase.TERMINAL, state(theta=los - 0.01, y=10_000.0, x=x), cfg)
        assert u == pytest.approx(2.4)

    @given(
        phase=st.sampled_from(list(GuidancePhase)),
        v=st.floats(50.0, 8000.0),
        theta=st.floats(-1.5, 1.5),
        y=st.floats(0.0, 90_000.0),
        x=st.floats(0.0, 700_000.0),
        seed=st.integers(0, 2 ** 16),
    )
    def test_commands_respect_the_structural_limit(self, phase, v, theta, y, x, seed):
        # seeker noise and turbulence added before the clamp included
        cfg = GuidanceConfig(terminal_gain=4800.0)
        noise = NoiseConfig(seeker_angle_sigma=0.5, turbulence_sigma=20.0)
        ctl = control(phase, cfg, noise=noise, stream=GaussianStream(seed))
        assert abs(ctl(0.0, state(v=v, theta=theta, y=y, x=x))) <= cfg.u_max


class TestAngles:
    def test_wrap_range(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.25) == 0.25

    @given(st.floats(-50.0, 50.0))
    def test_wrap_is_periodic(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-12
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)

    # the boresight angle alpha of the terminal law and the seeker test
    def test_los_zero_along_velocity(self):
        d = 5000.0
        target = (d * math.cos(-0.3), 1000.0 + d * math.sin(-0.3))
        assert control(target=target)._alpha(0.0, 1000.0, -0.3) == pytest.approx(0.0, abs=1e-12)

    def test_los_forty_five_down(self):
        alpha = control(target=(1000.0, 0.0))._alpha(0.0, 1000.0, 0.0)
        assert alpha == pytest.approx(-math.pi / 4)

    def test_los_measures_from_velocity_vector(self):
        d = 8000.0
        target = (d * math.cos(-0.5), 1000.0 + d * math.sin(-0.5))
        assert control(target=target)._alpha(0.0, 1000.0, -0.3) == pytest.approx(-0.2)

    def test_los_undefined_at_zero_range(self):
        # the seeker never acquires on an undefined line of sight
        ctl = control()
        ctl(0.0, state(v=300.0, theta=-0.5, y=TARGET[1], x=TARGET[0]))
        assert ctl.phase is not GuidancePhase.TERMINAL
        assert ctl.terminal_t is None
        # two metres short it does
        ctl(0.0, state(v=300.0, theta=-0.5, y=1.0, x=TARGET[0] - 2.0))
        assert ctl.phase is GuidancePhase.TERMINAL


class TestSeeker:
    SEEKER = SeekerModel(activation_altitude=26_000.0, activation_range=72_000.0)

    def acquires(self, s, target):
        ctl = control(seeker=self.SEEKER, target=target)
        ctl(1.0, s)
        return ctl.phase is GuidancePhase.TERMINAL and ctl.terminal_t == 1.0

    def test_acquires_inside_all_gates(self):
        s = state(theta=-0.4, y=20_000.0, x=0.0)
        assert self.acquires(s, (40_000.0, 0.0))

    def test_altitude_gate(self):
        s = state(theta=-0.4, y=30_000.0)
        assert not self.acquires(s, (40_000.0, 0.0))

    def test_range_gate(self):
        s = state(theta=-0.4, y=20_000.0)
        assert not self.acquires(s, (90_000.0, 0.0))

    def test_field_of_regard_gate(self):
        # target behind the vehicle: well outside the boresight cone
        s = state(theta=-0.4, y=20_000.0, x=50_000.0)
        assert not self.acquires(s, (10_000.0, 0.0))


class TestPhaseTransitions:
    CFG = GuidanceConfig(pullup_start_altitude=38_200.0, hold_altitude=35_000.0)
    SEEKER = SeekerModel(activation_altitude=26_000.0, activation_range=72_000.0)

    def control(self, phase):
        return control(phase, self.CFG, self.SEEKER)

    def transition(self, phase, s):
        ctl = self.control(phase)
        ctl(0.0, s)
        return ctl.phase

    def test_stays_ballistic_above_pullup_altitude(self):
        s = state(v=7873.0, theta=-0.0442, y=84_109.0)
        assert self.transition(GuidancePhase.GRAVITATIONAL, s) is GuidancePhase.GRAVITATIONAL

    def test_enters_pull_up_below_switch_altitude(self):
        s = state(theta=-0.5, y=38_000.0, x=400_000.0)
        assert self.transition(GuidancePhase.GRAVITATIONAL, s) is GuidancePhase.PULL_UP

    def test_pull_up_hands_over_near_the_hold_band(self):
        s = state(theta=-0.05, y=35_400.0, x=400_000.0)
        assert self.transition(GuidancePhase.PULL_UP, s) is GuidancePhase.ALTITUDE_HOLD
        # from GRAVITATIONAL both switches fire in one call; the event
        # timeline records the phase it ends in
        ctl = self.control(GuidancePhase.GRAVITATIONAL)
        ctl(2.0, s)
        assert ctl.phase is GuidancePhase.ALTITUDE_HOLD
        assert ctl.events == [(0.0, "phase:GRAVITATIONAL"), (2.0, "phase:ALTITUDE_HOLD")]

    def test_pull_up_hands_over_once_level(self):
        s = state(theta=0.01, y=37_000.0, x=400_000.0)
        assert self.transition(GuidancePhase.PULL_UP, s) is GuidancePhase.ALTITUDE_HOLD
        assert self.transition(GuidancePhase.GRAVITATIONAL, s) is GuidancePhase.ALTITUDE_HOLD

    def test_acquisition_preempts_everything(self):
        s = state(theta=-0.4, y=20_000.0, x=TARGET[0] - 40_000.0)
        for phase in (GuidancePhase.GRAVITATIONAL, GuidancePhase.PULL_UP, GuidancePhase.ALTITUDE_HOLD):
            assert self.transition(phase, s) is GuidancePhase.TERMINAL

    def test_phases_never_regress(self):
        high = state(v=7873.0, theta=0.1, y=60_000.0)
        assert self.transition(GuidancePhase.ALTITUDE_HOLD, high) is GuidancePhase.ALTITUDE_HOLD
        assert self.transition(GuidancePhase.TERMINAL, high) is GuidancePhase.TERMINAL


class TestEvasionRadius:
    def test_reference_value(self):
        r = evasion_radius(2000.0, 1800.0, 3000.0)
        assert r.approximate == pytest.approx(3703.7, abs=0.1)

    def test_matched_speeds_need_the_same_radius(self):
        r = evasion_radius(1600.0, 1600.0, 3000.0)
        assert r.approximate == pytest.approx(3000.0)

    def test_exact_equals_approximate_for_perpendicular_geometry(self):
        r = evasion_radius(2000.0, 1800.0, 3000.0)
        assert r.exact == pytest.approx(r.approximate, rel=1e-12)

    def test_scaling(self):
        base = evasion_radius(1000.0, 1500.0, 3000.0).approximate
        assert evasion_radius(2000.0, 1500.0, 3000.0).approximate == pytest.approx(4 * base)
        assert evasion_radius(1000.0, 3000.0, 3000.0).approximate == pytest.approx(base / 4)
        assert evasion_radius(1000.0, 1500.0, 6000.0).approximate == pytest.approx(2 * base)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DomainError):
            evasion_radius(2000.0, 0.0, 3000.0)
        with pytest.raises(DomainError):
            evasion_radius(0.0, 1800.0, 3000.0)
        with pytest.raises(DomainError):
            evasion_radius(2000.0, 1800.0, -1.0)

    @pytest.mark.parametrize("args", [
        (math.inf, 1600.0, 3000.0),
        (1000.0, math.nan, 3000.0),
        (1000.0, 1600.0, math.inf),
        (1000.0, 1600.0, 3000.0, math.nan),
        (1000.0, 1600.0, 3000.0, math.pi / 2.0, -math.inf),
        (1000.0, 1600.0, 3000.0, math.pi / 2.0, math.pi / 2.0, math.nan),
    ])
    def test_non_finite_inputs_rejected(self, args):
        """inf used to return (inf, inf), and a nan angle a nan exact radius."""
        with pytest.raises(DomainError, match="must be finite"):
            evasion_radius(*args)


class TestHoldGain:
    def test_reference_value(self):
        hg = hold_gain_from_turn(2000.0, 10_000.0, 33_000.0, 30_000.0)
        assert hg.gain == pytest.approx(0.013596, abs=1e-5)
        assert not hg.in_reference_band

    def test_reference_band_is_reported_not_enforced(self):
        hg = hold_gain_from_turn(1000.0, 10_000.0, 3_000.0, 0.0)
        assert hg.gain == pytest.approx(0.0034, abs=1e-4)
        assert hg.in_reference_band

    def test_gain_inverse_in_the_altitude_gap(self):
        near = hold_gain_from_turn(2000.0, 10_000.0, 31_000.0, 30_000.0)
        far = hold_gain_from_turn(2000.0, 10_000.0, 32_000.0, 30_000.0)
        assert near.gain == pytest.approx(2 * far.gain)

    def test_implied_angle_is_the_arctangent_of_the_load(self):
        hg = hold_gain_from_turn(2000.0, 10_000.0, 33_000.0, 30_000.0)
        assert hg.implied_angle_of_attack == pytest.approx(math.atan(2000.0 ** 2 / (G0 * 10_000.0)))

    def test_gap_must_be_positive(self):
        with pytest.raises(DomainError):
            hold_gain_from_turn(2000.0, 10_000.0, 33_000.0, 33_000.0)
        with pytest.raises(DomainError):
            hold_gain_from_turn(2000.0, 10_000.0, 30_000.0, 33_000.0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1000.0, 35_000.0, 2.0),
        (500.0, math.inf, 35_000.0, 2.0),
        (500.0, 1000.0, math.inf, 2.0),
        (500.0, 1000.0, 35_000.0, math.nan),
        (500.0, 1000.0, 35_000.0, 2.0, math.inf),
    ])
    def test_non_finite_inputs_rejected(self, args):
        """A nan depth used to give gain nan, an inf radius gain 0.0."""
        with pytest.raises(DomainError, match="must be finite"):
            hold_gain_from_turn(*args)


class TestEvasionController:
    CFG = EvasionConfig(enabled=True, interceptor_turn_radius=30_000.0, interceptor_speed=2000.0, dwell=3.0)

    def test_disabled_defers_to_the_phase_law(self):
        ctl = EvasionController(EvasionConfig(enabled=False), u_max=15.0)
        assert ctl.command(0.0, 2000.0, 0.0, boost_active=True) is None

    def test_turns_chain_and_alternate(self):
        ctl = EvasionController(self.CFG, u_max=15.0)
        first = ctl.command(0.0, 2000.0, 0.0, boost_active=True)
        expected = 2000.0 ** 2 / (G0 * 30_000.0) + 1.0
        assert first == pytest.approx(expected)
        # dwell holds the turn even without a fresh boost flag
        assert ctl.command(1.0, 2000.0, 0.0, boost_active=False) == pytest.approx(expected)
        # once the dwell lapses quietly, control goes back to the phases
        assert ctl.command(3.5, 2000.0, 0.0, boost_active=False) is None
        second = ctl.command(4.0, 2000.0, 0.0, boost_active=True)
        assert second == pytest.approx(2.0 - expected)

    @pytest.mark.parametrize("field", ["interceptor_turn_radius", "interceptor_speed"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_pursuer_model_must_be_finite_and_positive(self, field, value):
        """An infinite pursuer speed or turn radius used to pass ``inf > 0``
        and end an evading batch with a DomainError at the first boost."""
        with pytest.raises(ConfigError, match=f"{field} must be finite and > 0"):
            EvasionConfig(**{field: value})

    def test_commands_are_clamped(self):
        tight = EvasionConfig(enabled=True, interceptor_turn_radius=3000.0, interceptor_speed=1600.0, dwell=3.0)
        ctl = EvasionController(tight, u_max=15.0)
        assert ctl.command(0.0, 2000.0, 0.0, boost_active=True) == 15.0
