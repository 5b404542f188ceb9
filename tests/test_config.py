"""Every float field of every config dataclass holds the range it declares.

The config classes are found by scanning the package's frozen dataclasses,
so a new one is covered without editing this file.  Each float field is
tried with NaN and +-inf against the range its ``field`` metadata declares
(finite when it declares none).
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import reentrysim
from reentrysim.dynamics import VehicleSpec
from reentrysim.errors import ConfigError, check_ranges
from reentrysim.interceptor import STOCK_SPECS
from reentrysim.presets import terminal_engagement_scenario

NOT_CONFIGS = {  # frozen dataclasses with float fields that no range governs
    "RunResult": "a result; NaN and inf are its sentinels",
    "BatchStatistics": "a result; NaN and inf are its sentinels",
    "VehicleState": "a state container; Scenario checks the entry state",
    "InterceptorState": "a state container",
    "Trajectory": "a flight's output",
    "FlightProfile": "a flight's output",
    "EngagementZone": "a module constant, not an input",
    "RangePreset": "a module constant; its values land in checked configs",
}

MODULES = [importlib.import_module(f"reentrysim.{m.name}")
           for m in pkgutil.iter_modules(reentrysim.__path__)]


def float_fields(cls) -> list:
    return [f for f in dataclasses.fields(cls) if f.type in ("float", float)]


def declared_range(field) -> tuple:
    """(inside, text) of the field's declared range; finite when it declares none."""
    return field.metadata.get("range", (math.isfinite, "finite"))


CONFIG_CLASSES = sorted(
    {cls for module in MODULES for _, cls in inspect.getmembers(module, inspect.isclass)
     if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
     and cls.__dataclass_params__.frozen and cls.__name__ not in NOT_CONFIGS
     and float_fields(cls)},
    key=lambda cls: cls.__name__,
)


def _collect(obj, found: dict) -> None:
    """Every dataclass reachable from ``obj`` through fields and tuples, one per class."""
    if dataclasses.is_dataclass(obj) and type(obj) not in found:
        found[type(obj)] = obj
        for f in dataclasses.fields(obj):
            _collect(getattr(obj, f.name), found)
    elif isinstance(obj, tuple):
        for item in obj:
            _collect(item, found)


SAMPLES = {}
for root in (terminal_engagement_scenario(1600.0, "type-1"), *STOCK_SPECS.values()):
    _collect(root, SAMPLES)


def test_the_scan_finds_the_configs():
    assert {cls.__name__ for cls in CONFIG_CLASSES} >= {
        "AtmosphereModel", "DragModel", "EvasionConfig", "GuidanceConfig",
        "IntegratorConfig", "InterceptorSite", "InterceptorSpec", "NoiseConfig",
        "Scenario", "SeekerModel", "VehicleSpec",
    }


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_config_runs_the_checker_and_has_a_sample(cls):
    post_init = getattr(cls, "__post_init__", None)
    names = post_init.__code__.co_names if post_init else ()
    assert post_init is check_ranges or "check_ranges" in names, \
        f"{cls.__name__}.__post_init__ does not run check_ranges"
    assert cls in SAMPLES, f"no {cls.__name__} is reachable from the sample roots"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in CONFIG_CLASSES for f in float_fields(cls)],
    ids=lambda arg: getattr(arg, "__name__", arg),
)
def test_each_float_field_holds_its_declared_range(cls, name, value):
    (field,) = [f for f in dataclasses.fields(cls) if f.name == name]
    inside, text = declared_range(field)
    label = field.metadata.get("label", name)
    if inside(value):
        assert getattr(dataclasses.replace(SAMPLES[cls], **{name: value}), name) == value
    else:
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(SAMPLES[cls], **{name: value})
        assert str(err.value) == f"{label} must be {text}, got {value}"


def test_only_the_mach_cap_accepts_a_non_finite_value():
    """The interceptor drag has no Mach cap."""
    accepted = []
    for cls in CONFIG_CLASSES:
        for f in float_fields(cls):
            inside, _text = declared_range(f)
            accepted += [(cls.__name__, f.name, v) for v in (math.nan, math.inf, -math.inf)
                         if inside(v)]
    assert accepted == [("DragModel", "mach_cap", math.inf)]


def test_an_int_value_is_checked_like_a_float():
    """Fields are picked by their declared type, not by the value's."""
    with pytest.raises(ConfigError, match="mass must be finite and > 0, got -1"):
        VehicleSpec(mass=-1)
