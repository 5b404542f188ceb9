import math

import pytest

from reentrysim.atmosphere import AtmosphereModel, DEFAULT_ATMOSPHERE, branch_discontinuities
from reentrysim.errors import ConfigError, DomainError

ATM = DEFAULT_ATMOSPHERE


def test_sea_level_density():
    assert ATM.density(0.0) == 1.225


def test_density_scale_height():
    assert ATM.density(7000.0) == pytest.approx(1.225 / math.e, rel=1e-12)


def test_density_positive_everywhere():
    rho = ATM.density(1e6)
    assert 0.0 < rho < 1e-50


def test_density_strictly_decreasing():
    heights = [1000.0 * k for k in range(201)]
    rhos = [ATM.density(h) for h in heights]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_negative_altitude_clamps_to_sea_level():
    assert ATM.density(-50.0) == ATM.density(0.0)
    assert ATM.speed_of_sound(-50.0) == ATM.speed_of_sound(0.0)


def test_speed_of_sound_spot_values():
    assert ATM.speed_of_sound(0.0) == 340.28
    assert ATM.speed_of_sound(20_000.0) == pytest.approx(295.1)
    assert ATM.speed_of_sound(60_000.0) == pytest.approx(318.8)
    assert ATM.speed_of_sound(90_000.0) == pytest.approx(272.6)


def test_speed_of_sound_bounded():
    for k in range(0, 1001):
        vs = ATM.speed_of_sound(100.0 * k)
        assert 250.0 <= vs <= 345.0


def test_branch_seam_jumps():
    """The profile is deliberately discontinuous at two seams; the audit
    reports every seam with its jump so downstream users can see them."""
    jumps = dict(branch_discontinuities(ATM))
    assert jumps[80.0] == pytest.approx(6.2, abs=0.05)
    assert jumps[45.5] == pytest.approx(1.2, abs=0.05)
    # the audit agrees with direct evaluation a metre either side
    for seam_km, jump in jumps.items():
        h = seam_km * 1000.0
        measured = abs(ATM.speed_of_sound(h + 1.0) - ATM.speed_of_sound(h - 1.0))
        assert measured == pytest.approx(jump, abs=0.05)


def test_seam_ties_take_the_upper_branch():
    assert ATM.speed_of_sound(80_000.0) == ATM.speed_of_sound(80_000.1)


def test_mach_spot_values():
    assert ATM.mach(2951.0, 20_000.0) == pytest.approx(10.0)
    assert ATM.mach(340.28, 0.0) == pytest.approx(1.0)
    assert ATM.mach(0.0, 50_000.0) == 0.0


def test_zero_rho0_is_a_vacuum():
    vac = AtmosphereModel(rho0=0.0, k_decay=ATM.k_decay, vs_branches=ATM.vs_branches)
    assert vac.density(0.0) == 0.0
    assert vac.density(30_000.0) == 0.0


def test_invalid_construction_rejected():
    with pytest.raises(ConfigError):
        AtmosphereModel(rho0=-1.0, k_decay=ATM.k_decay, vs_branches=ATM.vs_branches)
    with pytest.raises(ConfigError):
        AtmosphereModel(rho0=1.225, k_decay=ATM.k_decay, vs_branches=())


def test_non_finite_altitude_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ATM.density(bad)
        with pytest.raises(DomainError):
            ATM.speed_of_sound(bad)
    with pytest.raises(DomainError):
        ATM.mach(-1.0, 0.0)


@pytest.mark.parametrize("branches", [
    ((0.0, math.inf, math.nan, 0.0, 0.0),),
    ((0.0, math.inf, 300.0, math.inf, 0.0),),
    ((0.0, math.inf, 300.0, 0.0, math.inf),),  # 0 * inf: a NaN speed of sound
    ((0.0, math.inf, 300.0, 0.0, math.nan),),
    # non-finite seams other than the last upper bound
    ((0.0, math.nan, 300.0, 0.0, 0.0), (math.nan, math.inf, 300.0, 0.0, 0.0)),
    ((0.0, math.inf, 300.0, 0.0, 0.0), (math.inf, math.inf, 300.0, 0.0, 0.0)),
])
def test_non_finite_tables_rejected(branches):
    with pytest.raises(ConfigError):
        AtmosphereModel(vs_branches=branches)
