"""Shipped descent scenarios for the supported target ranges.

All ranges share one atmospheric entry state; the trajectory is shaped
per range by the pull-up switch altitude, the glide-hold altitude and
the seeker acquisition gates.  Short ranges fly ballistic and dive on
acquisition; long ranges pull up into a glide hold that stretches the
trajectory until the target comes inside the acquisition range.  Each
preset's aim point is the converged unperturbed impact point, so a
noise-free run lands on target and batch errors measure dispersion, not
bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .dynamics import VehicleState
from .engagement import InterceptorSite, NoiseConfig, Scenario
from .errors import ConfigError
from .guidance import GuidanceConfig, SeekerModel

ENTRY = VehicleState(t=0.0, x=0.0, y=84_109.0, z=0.0, v=7873.0, theta=-0.0442)

# Shipped noise calibration: sigmas sized so batch landing errors at the
# long ranges land in the tens-of-metres-and-below band while the short
# steep dive stays the dominant error source.
CALIBRATED_NOISE = NoiseConfig(
    seeker_angle_sigma=0.01,
    atmosphere_density_sigma=0.03,
    turbulence_sigma=0.35,
)


@dataclass(frozen=True)
class RangePreset:
    """Trajectory-shaping knobs for one target range.

    ``target_x`` is frozen at the unperturbed impact point of the shaped
    trajectory, found by one fixed-point pass (aim at the nominal range,
    re-aim at the resulting impact).  ``terminal_gain`` is raised per
    range until that pass converges below a metre: the homing law has no
    gravity compensation, so its steady miss shrinks roughly as 1/gain,
    and the fast-arriving ranges need a stiffer loop than the ones that
    arrive slow.
    """

    target_x: float          # m, converged unperturbed impact point
    pullup_start: float      # m, 0 keeps the descent ballistic until acquisition
    hold_altitude: float     # m, glide-hold setpoint (unused when ballistic)
    seeker_altitude: float   # m, acquisition altitude gate
    seeker_range: float      # m, acquisition slant-range gate
    terminal_gain: float     # 1/rad, homing loop stiffness

    def guidance(self) -> GuidanceConfig:
        return GuidanceConfig(
            pullup_start_altitude=self.pullup_start,
            hold_altitude=self.hold_altitude,
            hold_gain=0.002,
            terminal_gain=self.terminal_gain,
        )

    def seeker(self) -> SeekerModel:
        return SeekerModel(
            activation_altitude=self.seeker_altitude,
            activation_range=self.seeker_range,
        )


_PRESETS = {
    615_000: RangePreset(
        target_x=615_019.4,
        pullup_start=0.0,
        hold_altitude=35_000.0,
        seeker_altitude=40_000.0,
        seeker_range=100_000.0,
        terminal_gain=240.0,
    ),
    675_000: RangePreset(
        target_x=674_998.2,
        pullup_start=0.0,
        hold_altitude=35_000.0,
        seeker_altitude=26_000.0,
        seeker_range=72_000.0,
        terminal_gain=4800.0,
    ),
    800_000: RangePreset(
        target_x=799_996.9,
        pullup_start=38_200.0,
        hold_altitude=35_000.0,
        seeker_altitude=45_000.0,
        seeker_range=130_000.0,
        terminal_gain=1200.0,
    ),
    950_000: RangePreset(
        target_x=949_996.1,
        pullup_start=39_200.0,
        hold_altitude=36_000.0,
        seeker_altitude=45_000.0,
        seeker_range=145_000.0,
        terminal_gain=600.0,
    ),
    1_000_000: RangePreset(
        target_x=999_993.8,
        pullup_start=39_700.0,
        hold_altitude=36_500.0,
        seeker_altitude=45_000.0,
        seeker_range=155_000.0,
        terminal_gain=320.0,
    ),
    1_100_000: RangePreset(
        target_x=1_099_994.9,
        pullup_start=40_700.0,
        hold_altitude=37_500.0,
        seeker_altitude=45_000.0,
        seeker_range=160_000.0,
        terminal_gain=250.0,
    ),
}

PRESET_RANGES = tuple(sorted(_PRESETS))

# the named presets the command line ships
NAMED_PRESETS = {"x615": 615_000, "x800": 800_000, "x950": 950_000}


def range_preset(range_m: float) -> RangePreset:
    key = int(round(range_m)) if math.isfinite(range_m) else None
    if key not in _PRESETS:
        supported = ", ".join(str(r) for r in PRESET_RANGES)
        raise ConfigError(f"no preset for range {range_m}; supported: {supported}")
    return _PRESETS[key]


def scenario_for_range(range_m: float, base: Scenario | None = None) -> Scenario:
    """Scenario flying the preset trajectory for ``range_m``.

    ``base`` supplies everything that is not trajectory shaping (noise,
    seed, batch size, vehicle, atmosphere, integrator, sites, evasion);
    entry state, target and the shaping configs come from the preset.
    """
    preset = range_preset(range_m)
    shaped = dict(
        entry=ENTRY,
        target=(preset.target_x, 0.0),
        guidance=preset.guidance(),
        seeker=preset.seeker(),
    )
    if base is None:
        return Scenario(**shaped)
    return replace(base, **shaped)


def named_scenario(name: str) -> Scenario:
    if name not in NAMED_PRESETS:
        supported = ", ".join(sorted(NAMED_PRESETS))
        raise ConfigError(f"unknown preset {name!r}; shipped presets: {supported}")
    return scenario_for_range(NAMED_PRESETS[name])


# Terminal-phase engagement geometry for the probability-vs-speed sweep:
# the vehicle starts on a straight collision course with the aim point,
# already inside the acquisition gates, and a single defending site sits
# short of the target so the shot crosses the descent path.  The launch
# plan is built on the nominal track, so the faster the target the less
# the plan tolerates the per-run density spread; probability falls off
# with speed through that window, earlier for the slower interceptor.
_SWEEP_ENTRY_ALTITUDE = 10_000.0
_SWEEP_TARGET_X = 30_000.0
_SWEEP_SITE_X = 21_000.0
_SWEEP_ENTRY_THETA = -0.3217  # atan2(-altitude, target_x), boresight on target
_SWEEP_KILL_RADIUS = 25.0     # m, sized above the synced-intercept miss band


def terminal_engagement_scenario(
    speed: float,
    kind: str,
    base: Scenario | None = None,
    evasion_enabled: bool = False,
) -> Scenario:
    """One-site terminal engagement at the given closing speed.

    Evasion defaults off so batch probabilities estimate the unevaded
    baseline; pass ``evasion_enabled=True`` for the evading variant.
    """
    shaped = dict(
        entry=VehicleState(
            t=0.0, x=0.0, y=_SWEEP_ENTRY_ALTITUDE, z=0.0,
            v=float(speed), theta=_SWEEP_ENTRY_THETA,
        ),
        target=(_SWEEP_TARGET_X, 0.0),
        guidance=GuidanceConfig(pullup_start_altitude=0.0),
        seeker=SeekerModel(
            activation_altitude=12_000.0,
            activation_range=50_000.0,
        ),
        sites=(InterceptorSite(x=_SWEEP_SITE_X, kind=kind),),
        kill_radius=_SWEEP_KILL_RADIUS,
    )
    if base is None:
        scenario = Scenario(**shaped)
    else:
        scenario = replace(base, **shaped)
    return replace(
        scenario, evasion=replace(scenario.evasion, enabled=evasion_enabled)
    )
