#!/usr/bin/env python3
"""Run reentrysim benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload error-sweep --seed 11 --seconds 20 --trace 0

The package measured is the one under ``src/`` beside this directory.
``--workload all`` (the default) runs the four workloads in turn.  Each
metric is printed by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The exit code is 1 when a
correctness, reference or determinism check fails.

A workload runs in child processes of this one, which share a bytecode
cache in the checkout and use one BLAS thread (see bench).  After one
untimed set-up that fills the cache, ``setup_s`` comes from SETUPS fresh
processes that each import the package and build the workload's inputs.
Each times the import against a reference import and the build against
the reference kernel, both run just before and after it, and scales the
two ratios back to seconds at the baseline machine's speed; ``setup_s``
is the median.  The passes run in one more fresh
process, so its CPU time and peak memory belong to the workload alone; it
pauses while each set-up is timed, SETUPS times spread over the run.
It runs passes for ``--seconds``, timing each unit of a pass on its own
with a run of a fixed reference kernel after it; the gated timings are in
units of the kernel's time around each unit (see README.md).  Then come
the untimed checks, and with ``--trace 1`` one more pass with spans at
every layer boundary (see spans.py); the tracing overhead is that pass's
wall time minus the mean untraced pass time.

``--out FILE`` appends the run, with the machine record, to a JSON-lines
file that compare.py reads.  ``--record-reference`` rewrites
reference.json from the current code; do that only for a declared change
of output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
SETUPS = 7
# A fresh interpreter importing standard-library modules the package does
# not use: the reference for import time, as the kernel below is for compute.
REFERENCE_IMPORT = ("import asyncio, email.mime.multipart, sqlite3, unittest, http.client,"
                    " xml.etree.ElementTree, tarfile, logging")
# The references' times on the machine the baseline was measured on
# (2 vCPUs, Python 3.11.7); setup_s is in seconds at that speed.
NOMINAL_IMPORT_S = 0.150
NOMINAL_KERNEL_S = 0.020

# Reference tolerance.  Perturbing exp() by one ulp on 4% of calls (what an
# array exp does) moved no reference value; scaling density by 1 + 1e-4 or
# turbulence by 1.01 moved every continuous value by more than 5e-6.
REL_TOL = 1e-6
ABS_TOL = 1e-9


# -- child phases -------------------------------------------------------------


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import reentrysim

    if Path(reentrysim.__file__).resolve().parent != SRC / "reentrysim":
        raise SystemExit(f"reentrysim imported from {reentrysim.__file__}, not from {SRC}")
    import workloads

    return workloads


@contextlib.contextmanager
def _workdir(name: str):
    path = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reference_kernel(steps: int = 4000) -> tuple:
    """Fixed pure-Python work that shares no code with the package: RK4 on a
    damped pendulum over tuple states, the same mix of float arithmetic,
    tuple building and calls as the package's step loop."""

    def rates(_t, y):
        angle, omega = y
        return (omega, -0.1 * omega - 9.81 * math.sin(angle))

    y, h, t = (1.0, 0.0), 0.01, 0.0
    for _ in range(steps):
        k1 = rates(t, y)
        k2 = rates(t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = rates(t + h / 2, tuple(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = rates(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6 * (b + 2 * (c + d) + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4))
        t += h
    return y


def _kernel_times(_=None) -> tuple:
    """The reference kernel's wall time and CPU time, run once now."""
    start, cpu_start = time.perf_counter(), time.thread_time()
    _reference_kernel()
    return time.perf_counter() - start, time.thread_time() - cpu_start


def _kernel_sampler(parallel: int, stack: contextlib.ExitStack):
    """A function returning the reference kernel's wall and CPU time now.
    For a workload that keeps ``parallel`` cores busy, the kernel runs once
    on each of ``parallel`` processes.  The wall time is the harmonic mean
    of theirs, as work shared out by a pool finishes at the cores' summed
    speed; the CPU time is the mean, as CPU time adds up over the cores."""
    if parallel == 1:
        return _kernel_times
    import multiprocessing

    pool = stack.enter_context(multiprocessing.get_context("fork").Pool(parallel))

    def sample():
        times = pool.map(_kernel_times, range(parallel), 1)
        return (statistics.harmonic_mean(wall for wall, _ in times),
                statistics.fmean(cpu for _, cpu in times))

    return sample


def _differences(got, want, where: str) -> list:
    """Where ``got`` is not within the reference tolerance of ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ from the reference"]
        return [d for k in want for d in _differences(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = (got == want or (math.isnan(got) and math.isnan(want))
              or abs(got - want) <= ABS_TOL + REL_TOL * abs(want))
    else:
        ok = got == want
    return [] if ok else [f"{where}: {got!r}, reference {want!r}"]


def _plain(values):
    """Values as they read back from JSON (lists, string keys)."""
    return json.loads(json.dumps(values))


def _import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], check=True)
    return time.perf_counter() - start


def phase_setup(args) -> None:
    """Prints the times of the import and of the build, with those of the
    reference kernel and the reference import just before and after."""
    import_before, kernel_before = _import_seconds(), _kernel_times()[0]
    start = time.perf_counter()
    workloads = _import_workloads()
    imported = time.perf_counter()
    with _workdir(args.workload) as workdir:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        built = time.perf_counter()
    kernel_after, import_after = _kernel_times()[0], _import_seconds()
    print(json.dumps([imported - start, built - imported,
                      kernel_before, kernel_after, import_before, import_after]))


def phase_measure(args) -> None:
    workloads = _import_workloads()
    import multiprocessing

    import numpy

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][args.workload]
    with _workdir(args.workload) as workdir, contextlib.ExitStack() as stack:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        kernel = _kernel_sampler(getattr(w, "parallel", 1), stack)
        # units: [seconds, cpu seconds, kernel wall and cpu before, the same after]
        units, outcomes = [], []
        # The passes run in SETUPS rounds; between rounds this process waits
        # while the parent times one set-up, so set-up samples the same spell
        # of machine speed as the passes.  Round i ends once the rounds so far
        # have measured i + 1 SETUPS-ths of --seconds, so a pass that runs
        # past one round's share shortens the next.
        measured = 0.0
        for i in range(SETUPS):
            print("ready", flush=True)
            sys.stdin.readline()
            before = kernel()
            start_round = time.perf_counter()
            share = args.seconds * (i + 1) / SETUPS
            while measured + time.perf_counter() - start_round < share:
                done = []
                for unit in w.units():
                    cpu_start = _cpu_seconds()
                    start = time.perf_counter()
                    done.append(unit())
                    seconds = time.perf_counter() - start
                    cpu = _cpu_seconds() - cpu_start
                    after = kernel()
                    units.append([seconds, cpu, *before, *after])
                    before = after
                outcomes.append(w.outcome(done))
            measured += time.perf_counter() - start_round
        stack.close()  # joins the kernel pool, so it is not in the peak below
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

        first = outcomes[0]
        problems = [f"pass {i}: output digest differs from pass 0"
                    for i, o in enumerate(outcomes) if o.digest != first.digest]
        problems += w.check(first)
        values, inconsistent = w.reference()
        problems += inconsistent + _differences(_plain(values), reference, args.workload)

        layers, missing = None, []
        if args.trace:
            tracer = spans.Tracer(workdir)
            tracer.install()
            try:
                start = time.perf_counter()
                done = workloads.run_units(w.units())
                traced_wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
            tracer.collect_workers()
            if w.outcome(done).digest != first.digest:
                problems.append("traced pass: output digest differs from the untraced passes")
            layers = tracer.metrics()
            untraced_wall = sum(u[0] for u in units) / len(outcomes)
            layers["trace.overhead_s"] = traced_wall - untraced_wall
            missing = tracer.missing

    print(json.dumps({
        "units": units,
        "passes": len(outcomes),
        "pass_is_command": getattr(w, "pass_is_command", False),
        "ops_per_pass": first.ops,
        "attempted": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "peak_rss_mb": rss_kb / 1024.0,
        "problems": problems,
        "layers": layers,
        "missing": missing,
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_context().get_start_method(),
    }))


def record_reference() -> None:
    workloads = _import_workloads()
    recorded = {}
    for name, cls in workloads.WORKLOADS.items():
        with _workdir(name) as workdir:
            values, problems = cls(workloads.DEFAULT_SEED, workdir).reference()
        if problems:
            raise SystemExit(f"{name}: {problems}")
        recorded[name] = _plain(values)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "workloads": recorded}, fh, indent=1)
        fh.write("\n")


# -- parent -------------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


@contextlib.contextmanager
def _child(argv, timeout: float, **popen_args):
    """A child in its own process group.  A timer kills the whole group (pool
    workers included) after ``timeout`` seconds.  The caller waits without
    a timeout, which returns as soon as the child exits."""
    with subprocess.Popen(argv, text=True, start_new_session=True, **popen_args) as proc:
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            yield proc
            proc.wait()
        finally:
            timer.cancel()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv)


def bench(name: str, args) -> dict:
    """Run one workload in child processes; returns its record."""
    load_start = os.getloadavg()[0]
    child = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
    setups = []   # see phase_setup
    measure = child + ["--phase", "measure", "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
    # Children read and write bytecode in one cache inside the checkout,
    # whatever PYTHONDONTWRITEBYTECODE says, so imports load bytecode as an
    # installed package does, and nothing is written outside the checkout.
    # The package makes no BLAS calls; one BLAS thread keeps numpy's import
    # from starting a thread pool whose start-up time follows the host's
    # memory, not the package.
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench_tmp" / "pycache"),
               OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one untimed set-up fills the bytecode cache before anything is measured
    with _child(child + ["--phase", "setup"], 60.0, env=env, stdout=subprocess.DEVNULL):
        pass
    # the measuring child runs for --seconds plus its set-ups, checks and
    # traced pass, none of which has taken over a minute
    with _child(measure, args.seconds + 150.0, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE) as measuring:
        for _ in range(SETUPS):
            if measuring.stdout.readline() != "ready\n":  # idle until told to go on
                raise SystemExit(f"{name}: the measuring process stopped")
            with _child(child + ["--phase", "setup"], 60.0, env=env,
                        stdout=subprocess.PIPE) as setup:
                out = setup.stdout.read()
            setups.append(json.loads(out.strip().splitlines()[-1]))
            measuring.stdin.write("go\n")
            measuring.stdin.flush()
        measuring.stdin.close()
        out = measuring.stdout.read()
    m = json.loads(out.strip().splitlines()[-1])

    units, passes = m["units"], m["passes"]
    per_pass = len(units) // passes

    def by_pass(values):
        return [sum(values[i:i + per_pass]) for i in range(0, len(values), per_pass)]

    # each unit in units of the reference kernel's time around it: wall time
    # over the kernel's wall time, CPU time over the kernel's CPU time
    unit_ref = [t / (0.5 * (kb + ka)) for t, _, kb, _, ka, _ in units]
    command_ref = by_pass(unit_ref) if m["pass_is_command"] else unit_ref
    wall_ref = sum(unit_ref) / passes
    end_to_end = {
        "setup_s": statistics.median(
            NOMINAL_IMPORT_S * imp / (0.5 * (ib + ia)) + NOMINAL_KERNEL_S * build / (0.5 * (kb + ka))
            for imp, build, kb, ka, ib, ia in setups),
        "wall_ref": wall_ref,
        "ops_per_ref": m["ops_per_pass"] / wall_ref,
        "cpu_ref": sum(c / (0.5 * (kb + ka)) for _, c, _, kb, _, ka in units) / passes,
        "peak_rss_mb": m["peak_rss_mb"],
        "cmd_p50_ref": spans.percentile(command_ref, 50),
        "cmd_p90_ref": spans.percentile(command_ref, 90),
    }
    walls = by_pass([u[0] for u in units])
    commands = walls if m["pass_is_command"] else [u[0] for u in units]
    seconds = {
        "wall_s": statistics.median(walls),
        "ops_per_s": m["ops_per_pass"] / statistics.median(walls),
        "cpu_s": statistics.median(by_pass([u[1] for u in units])),
        "cmd_p50_ms": spans.percentile(commands, 50) * 1e3,
        "cmd_p90_ms": spans.percentile(commands, 90) * 1e3,
        "ref_s": statistics.fmean(u[4] for u in units),
        "setup_wall_s": statistics.median(imp + build for imp, build, *_ in setups),
    }
    chosen = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    values = m["layers"] if args.trace else end_to_end
    if set(values) != {metric["name"] for metric in chosen}:
        raise SystemExit(f"{name}: metrics differ from BENCHMARK.json")
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in chosen},
        "seconds_as_measured": seconds,
        "passes": passes,
        "setup_samples": setups,
        "ops_per_pass": m["ops_per_pass"],
        "latency_samples": len(command_ref),
        "problems": m["problems"],
        "missing": m["missing"],
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": m["numpy"],
            "git_sha": _git_sha(),
            "start_method": m["start_method"],
            "load1_start": load_start,
            "load1_end": os.getloadavg()[0],
        },
    }
    if args.trace:
        record["end_to_end"] = end_to_end  # from the untraced passes of this run
    return record


def report(record: dict) -> None:
    print(f"== {record['workload']}: seed {record['seed']}, trace {record['trace']}, "
          f"{record['passes']} passes of {record['ops_per_pass']} ops, "
          f"{record['latency_samples']} latency samples")
    for name, metric in record["metrics"].items():
        value = "MISSING" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:42s} {value:>14s} {metric['unit']}")
    units = {"wall_s": "s", "ops_per_s": "1/s", "cpu_s": "s", "cmd_p50_ms": "ms",
             "cmd_p90_ms": "ms", "ref_s": "s", "setup_wall_s": "s"}
    for name, value in record["seconds_as_measured"].items():
        print(f"  {name:42s} {value:>14.6g} {units[name]}  (as measured; not gated)")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4g}")
    for boundary in record["missing"]:
        print(f"  missing boundary: {boundary}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  machine {json.dumps(record['machine'], sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=11)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="append each run's record to this JSON-lines file")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code")
    parser.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "reentrysim" / "__init__.py").is_file():
        print(f"error: no reentrysim package under {SRC}", file=sys.stderr)
        return 2
    if args.phase == "setup":
        phase_setup(args)
        return 0
    if args.phase == "measure":
        phase_measure(args)
        return 0
    if args.record_reference:
        record_reference()
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        records.append(bench(name, args))
        report(records[-1])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(records[-1], sort_keys=True) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
