import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from reentrysim.cli import _KEYS, _cast, _get_path, dump_scenario, main, parse_scenario
from reentrysim.dynamics import VehicleSpec
from reentrysim.engagement import _nominal_track
from reentrysim.errors import ConfigError
from reentrysim.presets import NAMED_PRESETS, named_scenario


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


_ROW = {row[:2]: row for row in _KEYS}  # (section, key) -> schema row
_BASE = named_scenario("x615")


def _value_text(row):
    """Text of a valid value for one schema row, in any accepted spelling."""
    _section, _key, kind, path = row
    if kind == "float":
        # every bound in the configs is a sign or lies beyond twice the
        # x615 value (dt <= 1 s, field_of_regard <= pi, sample_interval
        # >= dt), so scaling it by 0.5-2 keeps the file valid
        base = _get_path(_BASE, path) or 1.0
        spell = st.sampled_from([repr, "{:.6e}".format, "{:g}".format, " {} ".format])
        return st.tuples(st.floats(0.5, 2.0), spell).map(lambda fs: fs[1](base * fs[0]))
    if kind == "int":
        low = 1 if path == "runs" else 0
        return st.integers(low, 2**64).map(str)
    if kind == "bool":
        spellings = ["1", "true", "yes", "on", "0", "false", "no", "off", "True", " OFF"]
        return st.sampled_from(spellings)
    if kind == "sites":
        entry = st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(["", ":type-1", ": type-2"]),
        ).map(lambda xk: f"{xk[0]!r}{xk[1]}")
        return st.lists(entry, max_size=4).map(", ".join)
    return st.sampled_from(sorted(NAMED_PRESETS))


_ENTRIES = st.lists(st.sampled_from(_KEYS), unique=True).flatmap(
    lambda rows: st.tuples(*(_value_text(row).map(lambda text, row=row: (row, text))
                             for row in rows))
)


def _scenario_text(entries) -> str:
    sections = {}
    for (section, key, _kind, _path), text in entries:
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    return "".join(f"[{section}]\n{''.join(lines)}\n" for section, lines in sections.items())


class TestScenarioFiles:
    def test_empty_file_gives_the_default_preset(self, tmp_path):
        sc = parse_scenario(write(tmp_path / "s.ini", ""))
        assert sc.entry.v == 7873.0
        assert sc.entry.y == 84_109.0
        assert sc.target[0] == pytest.approx(615_019.4)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(entries=_ENTRIES)
    @example(entries=(  # sample_interval below the preset dt: the two go in together
        (_ROW[("batch", "sample_interval")], "0.01"),
        (_ROW[("batch", "dt")], "0.005"),
    ))
    @example(entries=(
        (_ROW[("batch", "preset")], "x800"),
        (_ROW[("batch", "seed")], "9"),
        (_ROW[("batch", "runs")], "12"),
        (_ROW[("guidance", "hold_altitude")], "33000"),
        (_ROW[("guidance", "terminal_gain")], "900"),
        (_ROW[("noise", "turbulence_sigma")], "0.35"),
        (_ROW[("interceptors", "sites")], "21000:type-2, 9000"),
        (_ROW[("interceptors", "kill_radius")], "25"),
    ))
    def test_round_trip_is_identity(self, tmp_path, entries):
        first = parse_scenario(write(tmp_path / "a.ini", _scenario_text(entries)))
        for (section, key, kind, path), text in entries:
            if path is not None:
                assert _get_path(first, path) == _cast(section, key, kind, text, "a.ini")
        dumped = dump_scenario(first)
        second = parse_scenario(write(tmp_path / "b.ini", dumped))
        assert second == first
        assert dump_scenario(second) == dumped

    def test_a_python_built_lift_to_drag_round_trips(self, tmp_path):
        """A NaN lift_to_drag used to be accepted, and its dump then failed
        to parse; it is now rejected where the scenario is built."""
        base = named_scenario("x800")
        with pytest.raises(ConfigError, match="lift_to_drag must be finite, got nan"):
            replace(base, vehicle=VehicleSpec(lift_to_drag=math.nan))
        sc = replace(base, vehicle=VehicleSpec(lift_to_drag=3.25))
        assert parse_scenario(write(tmp_path / "s.ini", dump_scenario(sc))) == sc

    def test_preset_base_with_overrides(self, tmp_path):
        text = "[batch]\npreset = x800\n\n[guidance]\nhold_altitude = 33000\n"
        sc = parse_scenario(write(tmp_path / "s.ini", text))
        assert sc.guidance.hold_altitude == 33_000.0
        # untouched keys keep the preset shaping
        assert sc.guidance.pullup_start_altitude == 38_200.0

    def test_sites_syntax(self, tmp_path):
        text = "[interceptors]\nsites = 21000:type-2, 9000\n"
        sc = parse_scenario(write(tmp_path / "s.ini", text))
        assert [(s.x, s.kind) for s in sc.sites] == [(21_000.0, "type-2"), (9_000.0, "type-1")]

    def test_unknown_key_named_with_location(self, tmp_path):
        path = write(tmp_path / "s.ini", "[guidance]\nholdaltitude = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_scenario(path)
        assert "holdaltitude" in str(err.value)
        assert "guidance" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path / "s.ini", "[weather]\nwind = 5\n")
        with pytest.raises(ConfigError, match="weather"):
            parse_scenario(path)

    def test_unparsable_value_names_the_key(self, tmp_path):
        path = write(tmp_path / "s.ini", "[batch]\nruns = many\n")
        with pytest.raises(ConfigError, match="runs"):
            parse_scenario(path)

    def test_physical_validation_propagates(self, tmp_path):
        path = write(tmp_path / "s.ini", "[batch]\ng = -1\n")
        with pytest.raises(ConfigError, match="g must be"):
            parse_scenario(path)

    def test_bad_site_entry(self, tmp_path):
        path = write(tmp_path / "s.ini", "[interceptors]\nsites = 9000:type-9\n")
        with pytest.raises(ConfigError) as err:
            parse_scenario(path)
        assert "type-9" in str(err.value)
        assert path in str(err.value)
        assert "[interceptors]" in str(err.value)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 3\n",
        "[DEFAULT]\nseed = 3\n\n[batch]\nruns = 2\n",
    ])
    def test_default_section_rejected(self, tmp_path, text):
        path = write(tmp_path / "s.ini", text)
        with pytest.raises(ConfigError) as err:
            parse_scenario(path)
        assert "[DEFAULT]" in str(err.value)
        assert path in str(err.value)

    @pytest.mark.parametrize("raw", ["inf", "nan", "-inf", " Infinity"])
    def test_non_finite_number_names_the_key_and_section(self, tmp_path, raw):
        path = write(tmp_path / "s.ini", f"[vehicle]\nentry_altitude = {raw}\n")
        with pytest.raises(ConfigError) as err:
            parse_scenario(path)
        assert "entry_altitude" in str(err.value)
        assert "[vehicle]" in str(err.value)
        assert "finite" in str(err.value)

    def test_non_finite_site_position_rejected(self, tmp_path):
        path = write(tmp_path / "s.ini", "[interceptors]\nsites = nan:type-2\n")
        with pytest.raises(ConfigError, match="interceptors"):
            parse_scenario(path)


class TestCommands:
    def test_fly_writes_a_trajectory(self, tmp_path, capsys):
        out = tmp_path / "fly"
        assert main(["fly", "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "T,V,theta,X,H,U"
        last = rows[-1].split(",")
        assert float(last[0]) == pytest.approx(93.27, abs=0.5)
        assert float(last[3]) == pytest.approx(615_020.0, abs=50.0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["trajectory.csv"]
        assert manifest["scenario"]["entry"]["v"] == 7873.0
        assert "seed" in manifest and "version" in manifest

    @pytest.mark.parametrize("preset, digest", [
        ("x615", "9fee8f1d1669b22243e07191df99e412781320865479d07255355090b27b124e"),
        ("x800", "9a69ed5e6af145200f9b1db3056b813b027fe957afb64bb4bd41469ae17278cd"),
        ("x950", "a1b18b89b77c9125ad7aed90ceca91fc559fce3c0f41ff422fb05517feb1abb3"),
    ])
    def test_dump_bytes_are_pinned(self, capsys, preset, digest):
        assert main(["dump", "--scenario", preset]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_dump_prints_a_loadable_scenario(self, tmp_path, capsys):
        assert main(["dump", "--scenario", "x950"]) == 0
        text = capsys.readouterr().out
        sc = parse_scenario(write(tmp_path / "d.ini", text))
        assert sc.guidance.hold_altitude == 36_000.0

    def test_engage_without_a_launch_still_reports(self, tmp_path):
        ini = write(
            tmp_path / "s.ini",
            "[interceptors]\nsites = 300000\n",
        )
        out = tmp_path / "engage"
        assert main(["engage", "--scenario", ini, "--out", str(out)]) == 0
        assert (out / "engagement.csv").exists()
        events = (out / "events.csv").read_text()
        assert "touchdown" in events
        assert "launch" not in events

    def test_batch_reruns_are_byte_identical(self, tmp_path):
        args = ["batch", "--scenario", "x615", "--n", "16", "--seed", "4"]
        d1, d2, d3 = (tmp_path / name for name in ("b1", "b2", "b3"))
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        assert main(args + ["--out", str(d3), "--workers", "2"]) == 0
        for name in ("runs.csv", "summary.csv"):
            ref = (d1 / name).read_bytes()
            assert (d2 / name).read_bytes() == ref
            assert (d3 / name).read_bytes() == ref

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_batch_rejects_fewer_than_one_worker(self, tmp_path, capsys, workers):
        with mock.patch("multiprocessing.Pool") as pool:
            assert main(["batch", "--scenario", "x615", "--n", "2", "--workers", workers,
                         "--out", str(tmp_path / "o")]) == 1
        assert f"error: --workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not pool.called
        assert not (tmp_path / "o").exists()

    def test_batch_run_rows_carry_the_substream_label(self, tmp_path):
        out = tmp_path / "b"
        assert main(["batch", "--scenario", "x615", "--n", "3", "--seed", "7", "--out", str(out)]) == 0
        rows = (out / "runs.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "7/0"
        assert rows[3].split(",")[0] == "7/2"

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REENTRYSIM_SEED", "9")
        out = tmp_path / "env"
        assert main(["batch", "--scenario", "x615", "--n", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_calibrate_writes_the_fit(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "type2", "--out", str(out)]) == 0
        rows = (out / "calibration.csv").read_text().splitlines()
        assert rows[0].startswith("thrust,")
        assert len(rows) == 2

    def test_unknown_sweep_kind_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "bogus"])
        assert err.value.code == 2

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["fly", "--scenario", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["inf", "nan"])
    def test_fly_rejects_a_non_finite_entry_altitude(self, tmp_path, capsys, raw):
        ini = write(tmp_path / "s.ini", f"[vehicle]\nentry_altitude = {raw}\n")
        assert main(["fly", "--scenario", ini, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "entry_altitude" in err and "[vehicle]" in err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.parametrize("raw", ["0", "-50"])
    def test_entry_at_or_below_ground_is_a_config_error(self, tmp_path, capsys, raw):
        ini = write(tmp_path / "s.ini", f"[vehicle]\nentry_altitude = {raw}\n")
        assert main(["fly", "--scenario", ini, "--out", str(tmp_path / "o")]) == 1
        assert "error: entry altitude must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_batch_of_aborting_engagements_fails_cleanly(self, tmp_path, capsys):
        ini = write(
            tmp_path / "s.ini",
            "[vehicle]\nentry_speed = 50.0\nentry_theta = 1.5707\n\n"
            "[interceptors]\nsites = 21000.0:type-1\n",
        )
        _nominal_track.cache_clear()
        assert main(["batch", "--scenario", ini, "--n", "5", "--out", str(tmp_path / "o")]) == 1
        assert "error: all 5 runs failed" in capsys.readouterr().err
        # the aborted nominal descent is flown once, not once per run
        info = _nominal_track.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_config_errors_exit_nonzero(self, tmp_path, capsys):
        ini = write(tmp_path / "s.ini", "[batch]\ndt = 0\n")
        assert main(["fly", "--scenario", ini, "--out", str(tmp_path / "o")]) == 1
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", ["out", "trajectory.csv", "manifest.json"])
    def test_unwritable_outputs_are_reported(self, tmp_path, capsys, blocked):
        """An --out that is a file, or an output name taken by a directory,
        used to end in a traceback."""
        out = tmp_path / "o"
        if blocked == "out":
            out.write_text("")
        else:
            (out / blocked).mkdir(parents=True)
        assert main(["fly", "--scenario", "x615", "--out", str(out)]) == 1
        assert "error: cannot write outputs: [Errno" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "file"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, how):
        ini = write(tmp_path / "s.ini", "[batch]\nseed = -5\n")
        args = ["--seed", "-1"] if how == "flag" else ["--scenario", ini]
        assert main(["batch", "--n", "2", "--out", str(tmp_path / "o")] + args) == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err


class TestManifest:
    """One writer writes every command's manifest, from the tables written."""

    @pytest.mark.parametrize("argv, command, outputs", [
        (["fly", "--scenario", "x950", "--seed", "5"], "fly", ["trajectory.csv"]),
        (["engage", "--scenario", "sited.ini", "--seed", "5"], "engage",
         ["engagement.csv", "events.csv"]),
        (["batch", "--n", "2", "--seed", "5"], "batch", ["runs.csv", "summary.csv"]),
        (["sweep", "error", "--n", "1", "--seed", "5"], "sweep error", ["sweep_error.csv"]),
        (["sweep", "speed", "--n", "1", "--seed", "5"], "sweep speed", ["sweep_speed.csv"]),
        (["calibrate", "type2"], "calibrate", ["calibration.csv"]),
    ])
    def test_manifest_lists_exactly_the_tables_written(self, tmp_path, capsys, monkeypatch,
                                                       argv, command, outputs):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "sited.ini", "[interceptors]\nsites = 300000\n")
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["outputs"] == outputs
        assert sorted(p.name for p in out.iterdir() if p.name != "manifest.json") == outputs
        if command != "calibrate":
            assert manifest["seed"] == 5 == manifest["scenario"]["seed"]
            assert "kind" not in manifest
        else:
            assert manifest["seed"] is None and manifest["scenario"] is None
            assert manifest["kind"] == "type2"
            assert capsys.readouterr().out.startswith("type2: fitted ")

    def test_dump_ignores_out(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["dump", "--scenario", "x950", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("[atmosphere]")
        assert not out.exists()

    def test_blocked_calibration_table_prints_no_fit(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "calibration.csv").mkdir(parents=True)
        assert main(["calibrate", "type2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write outputs: [Errno")
        assert not (out / "manifest.json").exists()


class TestColdStart:
    """numpy loads on the first noise draw or pool fork, and the pool
    machinery only to fork; each case runs in a fresh interpreter."""

    NOISE_FREE_ENGAGE = (
        "[batch]\npreset = x800\n\n[guidance]\nhold_altitude = 33000\n\n"
        "[interceptors]\nsites = 776900:type-1, 790000:type-2\nkill_radius = 25\n"
    )
    NOISY_BATCH = (
        "[batch]\npreset = x615\nruns = 2\n\n[noise]\nturbulence_sigma = 0.35\n"
    )

    @staticmethod
    def _loaded_after(tmp_path, code: str) -> list:
        """Run code in a fresh interpreter; the last line it prints, parsed."""
        import reentrysim

        src = os.path.dirname(os.path.dirname(os.path.abspath(reentrysim.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        script = "import json, sys\n" + code + (
            "\nprint(json.dumps(sorted(m for m in ('numpy', 'multiprocessing') if m in sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    @pytest.mark.parametrize("argv", [
        ["fly", "--scenario", "x615"],
        ["engage", "--scenario", "engage.ini"],
        ["calibrate", "type2"],
        ["dump", "--scenario", "x800"],
    ], ids=lambda argv: argv[0])
    def test_commands_without_noise_load_neither_numpy_nor_multiprocessing(self, tmp_path, argv):
        write(tmp_path / "engage.ini", self.NOISE_FREE_ENGAGE)
        code = f"from reentrysim.cli import main\nassert main({argv!r} + ['--out', 'o']) == 0"
        if argv[0] == "dump":
            code = f"from reentrysim.cli import main\nassert main({argv!r}) == 0"
        assert self._loaded_after(tmp_path, code) == []

    def test_a_noisy_batch_loads_numpy(self, tmp_path):
        write(tmp_path / "noisy.ini", self.NOISY_BATCH)
        code = ("from reentrysim.cli import main\n"
                "assert main(['batch', '--scenario', 'noisy.ini', '--out', 'o']) == 0")
        assert self._loaded_after(tmp_path, code) == ["numpy"]

    def test_the_generator_module_is_loaded_before_the_pool_forks(self, tmp_path):
        code = """
import multiprocessing
from dataclasses import replace
from reentrysim.engagement import batch_run_results
from reentrysim.presets import named_scenario

class FakePool:
    \"\"\"Records what is loaded when the pool is made; starts no process.\"\"\"
    seen = []

    def __init__(self, processes):
        FakePool.seen.append('numpy.random' in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize):
        return [fn(job) for job in jobs]

multiprocessing.Pool = FakePool
assert 'numpy' not in sys.modules
batch_run_results(replace(named_scenario('x615'), runs=2), workers=2)  # noise-free: no draw
assert FakePool.seen == [True], FakePool.seen
"""
        assert self._loaded_after(tmp_path, code) == ["multiprocessing", "numpy"]
