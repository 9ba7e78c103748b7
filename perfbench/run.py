#!/usr/bin/env python3
"""Host-speed benchmark of the sobelsim simulator.

Runs one workload from ``workloads.py`` against the sources in ``src/`` of
the checkout this file sits in, and prints every metric that
``BENCHMARK.json`` declares, by name and unit.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones from ``tracing.py``.  The end-to-end times (units
``ref_s`` and ``ref_us``, and ``setup_s``) are host times scaled to a nominal
host speed by ``hostspeed.py``, which the host's drift in speed does not move;
the per-layer times are plain wall-clock seconds on this host; cycle counts
are simulated cycles.

    python3 perfbench/run.py --workload compare_256 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke     # every workload at toy sizes, both modes

Exit status: 0 with a result; 2, with nothing printed on standard output,
if the checkout lacks the program or BENCHMARK.json or no pass succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

from hostspeed import HostSpeed
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Compare256, StallCore, Sweep3x3

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
PROGRAM_MODULES = ("cli", "blocks", "stream", "oracle", "image_io", "metrics")
SETUP_REPEATS = 15


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked, or no pass succeeded."""


def load_program() -> SimpleNamespace:
    """Import sobelsim from this checkout afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "sobelsim" or m.startswith("sobelsim.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"sobelsim.{name}") for name in PROGRAM_MODULES}
    if SRC not in Path(sys.modules["sobelsim"].__file__).resolve().parents:
        raise BenchmarkError(f"sobelsim was imported from outside {SRC}")
    return SimpleNamespace(**modules)


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "sobelsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def timed_setup(workload, seed, workdir, speed):
    """Import the program and make the inputs SETUP_REPEATS times; the last
    set is used, and the median of the scaled times is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        program = inputs = None
        gc.collect()
        t0 = time.perf_counter()
        program = load_program()
        inputs = workload.setup(program, seed, workdir)
        seconds = time.perf_counter() - t0
        times.append(seconds * speed.scale())
    return program, inputs, times


def timed_passes(run, deadline, tracer=None, program=None):
    """Run passes until the next would end after `deadline`; at least one.
    Given a tracer, each untraced pass is followed by a traced one, so that
    the host's drift in speed falls on both alike."""
    untraced, traced = [], []
    while True:
        gc.collect()
        untraced.append(run())
        spent = untraced[-1].wall_s
        if tracer is not None:
            gc.collect()
            tracer.install(program)
            try:
                traced.append(run())
            finally:
                tracer.uninstall()
            spent += traced[-1].wall_s
        if time.perf_counter() + spent > deadline:
            return untraced, traced


def p99(samples):
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up, run timed passes for `seconds`, verify; returns (result, notes)."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        speed = HostSpeed()
        program, inputs, setup_times = timed_setup(workload, seed, Path(tmp), speed)
        run = functools.partial(workload.run_pass, program, inputs, speed)
        tracer = Tracer() if trace else None
        untraced, traced = timed_passes(run, time.perf_counter() + seconds, tracer, program)
        workload.verify(program, inputs, untraced + traced)
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run is still using it

    # before the statistics below, whose sorting would set the peak
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = []
    good = [p for p in untraced if not p.failed]
    if not good:
        raise BenchmarkError(f"{workload.name}: no untraced pass succeeded")
    reference = good[0]
    for p in untraced[1:] + traced:
        if not p.failed and (p.sim_cycles, p.outputs) != (reference.sim_cycles, reference.outputs):
            problems.append("a pass changed the simulated cycles or the output bytes")
            p.failed = p.frames
    everything = untraced + traced
    attempted = sum(p.frames for p in everything)
    failed = sum(p.failed for p in everything)

    latencies = array("d")
    for p in good:
        latencies.extend(p.latencies_ref_s)
    notes = {"passes": len(untraced), "traced_passes": len(traced),
             "setup_repeats": len(setup_times), "sim_cycles": reference.sim_cycles,
             "failed_frac": failed / attempted, "latency_samples": len(latencies),
             "frame_ref_us_p99": p99(latencies) * 1e6,
             "calibration_samples": len(speed.samples),
             "host_speed_factor": speed.median_factor()}
    if trace:
        if all(p.failed for p in traced):
            raise BenchmarkError(f"{workload.name}: no traced pass succeeded")
        if tracer.cycles != reference.sim_cycles * len(traced):
            problems.append("traced run_frame cycles differ from the untraced run")
        metrics = layer_metrics(tracer, len(traced),
                                statistics.fmean(p.wall_s for p in traced),
                                statistics.fmean(p.wall_s for p in good))
        metrics["sim_cycles"] = reference.sim_cycles
        metrics["failed_frac"] = notes["failed_frac"]
        metrics["frame_ref_us_p99"] = notes["frame_ref_us_p99"]
        if metrics["trace.unattributed_s"] < 0:
            problems.append("traced spans exceed the traced pass time")
    else:
        pass_ref_s = statistics.median(p.ref_s for p in good)
        notes["timed_passes"] = len(good)
        notes["wall_s"] = statistics.median(p.wall_s for p in good)
        metrics = {
            "pass_ref_s": pass_ref_s,
            "sim_cycles_per_ref_s": reference.sim_cycles / pass_ref_s,
            "frames_per_ref_s": reference.frames / pass_ref_s,
            "frame_ref_us_p50": statistics.median(latencies) * 1e6,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib,
        }
    notes["problems"] = problems
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, notes


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchmarkError(f"{SPEC.name} is missing")
    return json.loads(SPEC.read_text())


def declared(spec: dict, trace: bool) -> dict:
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(spec: dict, trace: bool, metrics: dict) -> dict:
    """The declared metrics with their units, in declaration order."""
    wanted = declared(spec, trace)
    if set(wanted) != set(metrics):
        raise BenchmarkError(
            f"measured metrics differ from {SPEC.name}: "
            f"missing {sorted(set(wanted) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(wanted))}")
    return {name: {"value": metrics[name], "unit": m["unit"]} for name, m in wanted.items()}


def print_report(workload, seed, trace, env, result, notes, spec):
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {workload} seed {seed} trace {int(trace)}: "
          f"{json.dumps(notes, sort_keys=True)}")
    wanted = declared(spec, trace)
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']!r:>24} {entry['unit']:10s} "
              f"({wanted[name]['better']} is better)")
    print(json.dumps(result))


def smoke(spec) -> int:
    """Every workload at toy size, untraced and traced; 0 if the printed
    result names every declared metric with its unit and nothing failed."""
    toys = (Compare256(size=16), Sweep3x3(alphabet=(0, 255)), StallCore(size=16))
    env = environment()
    bad = []
    for workload in toys:
        for trace in (False, True):
            result, notes = measure(workload, seed=1, seconds=0, trace=trace)
            result["metrics"] = with_units(spec, trace, result["metrics"])
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                print_report(workload.name, 1, trace, env, result, notes, spec)
            last = json.loads(printed.getvalue().splitlines()[-1])
            units = {n: m["unit"] for n, m in declared(spec, trace).items()}
            if {n: e["unit"] for n, e in last["metrics"].items()} != units:
                bad.append(f"{workload.name} trace {int(trace)}: metrics or units differ")
            if not last["correct"] or last["failed"] or notes["failed_frac"] != 0:
                bad.append(f"{workload.name} trace {int(trace)}: {notes}")
    for line in bad:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement time per run (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy sizes and check the output")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    try:
        if not (SRC / "sobelsim").is_dir():
            raise BenchmarkError(f"no sobelsim sources under {SRC}")
        spec = load_spec()
        sys.path.insert(0, str(SRC))
        if args.smoke:
            return smoke(spec)
        env = environment()
        workload = WORKLOADS[args.workload]()
        result, notes = measure(workload, args.seed, args.seconds, bool(args.trace))
        result["metrics"] = with_units(spec, bool(args.trace), result["metrics"])
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, args.seed, bool(args.trace), env, result, notes, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
