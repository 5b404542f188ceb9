import math

import pytest

from reentrysim.aero import (
    DragModel,
    INTERCEPTOR_CX_COEFFS,
    VEHICLE_CX_COEFFS,
    VEHICLE_MACH_CAP,
    interceptor_drag_model,
    vehicle_drag_model,
)
from reentrysim.errors import ConfigError, DomainError


def test_coefficient_tables_frozen():
    assert VEHICLE_CX_COEFFS == ((1.37, 0.2, 0.2), (-6.0, 12.0, -5.0), (0.01416, -0.16993, 0.51679))
    assert INTERCEPTOR_CX_COEFFS == ((2.85, -2.85, 1.31), (-4.31, 8.62, -3.31), (0.0143, -1.184, 2.07))
    assert VEHICLE_MACH_CAP == 13.8


def test_vehicle_spot_values():
    m = vehicle_drag_model()
    assert m.cx(0.0) == 0.2
    assert m.cx(1.0) == 1.0
    assert m.cx(0.5) == pytest.approx(1.37 * 0.25 + 0.2 * 0.5 + 0.2)
    assert m.cx(10.0) == pytest.approx(0.23349, abs=1e-5)


def test_interceptor_spot_values():
    m = interceptor_drag_model()
    assert m.cx(0.0) == pytest.approx(1.31)
    assert m.cx(1.0) == pytest.approx(1.0)
    # supersonic branch dips below the floor and is clamped there
    assert m.cx(2.0) == 0.05


def test_positive_over_the_working_band():
    for model in (vehicle_drag_model(), interceptor_drag_model()):
        m = 0.0
        while m <= 30.0:
            assert model.cx(m) > 0.0
            m += 0.01


def test_matches_direct_polynomial_inside_segments():
    model = vehicle_drag_model()
    for (lo, hi, a, b, c) in model.segments:
        if not math.isfinite(hi):
            hi = min(5.0, VEHICLE_MACH_CAP)
        mid = 0.5 * (lo + hi)
        expect = max(a * mid * mid + b * mid + c, model.cx_floor)
        assert model.cx(mid) == pytest.approx(expect, rel=1e-12)


def test_breakpoint_ties_take_the_upper_segment():
    m = vehicle_drag_model()
    # 0.8 belongs to the transonic quadratic, 1.2 to the supersonic one
    assert m.cx(0.8) == pytest.approx(-6.0 * 0.64 + 12.0 * 0.8 - 5.0)
    assert m.cx(1.2) == pytest.approx(0.01416 * 1.44 - 0.16993 * 1.2 + 0.51679)


def test_mach_cap_freezes_the_coefficient():
    m = vehicle_drag_model()
    capped = m.cx(13.8)
    assert m.cx(20.0) == capped
    assert m.cx(30.0) == capped
    # the interceptor model has no cap
    assert interceptor_drag_model().mach_cap == math.inf


def test_invalid_mach_rejected():
    m = vehicle_drag_model()
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            m.cx(bad)


@pytest.mark.parametrize("segments", [
    ((0.0, math.inf, math.nan, 0.0, 0.0),),
    ((0.0, math.inf, 0.0, math.inf, 0.0),),
    ((0.0, 1.0, 1.0, 0.0, 0.0), (1.0, math.inf, 0.0, 0.0, -math.inf)),
    # non-finite seams other than the last upper bound
    ((0.0, math.nan, 1.0, 0.0, 0.0), (math.nan, math.inf, 1.0, 0.0, 0.0)),
    ((0.0, math.inf, 1.0, 0.0, 0.0), (math.inf, math.inf, 1.0, 0.0, 0.0)),
])
def test_non_finite_tables_rejected(segments):
    with pytest.raises(ConfigError):
        DragModel(segments=segments)
