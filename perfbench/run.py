#!/usr/bin/env python3
"""silkin benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the root of a silkin checkout; the package is imported from
``src/`` and nothing is installed.  Workloads: ``ensemble``,
``stiff_wide`` and ``cli_cold`` (see README.md).

``--trace 0`` prints the end-to-end metrics, in reference-speed seconds
(speed.py: the host's momentary speed is divided out), ``--trace 1`` the per-layer
metrics of a traced run (half the time untraced, half traced, then the
layer rows) and writes its spans to ``.perfbench_out/spans/``.  Human-readable
lines come first; the last line of stdout is the JSON result.  Every run
checks the program's outputs; ``failed`` counts operations with a failed
check, an abort, a nonzero exit code or an oracle mismatch.  ``--smoke``
shrinks the workloads for the self-check (selfcheck.py).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import PROBE_REF_S, SpeedSampler, pin_one_cpu

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ensemble", "stiff_wide", "cli_cold")
# BLAS/OpenMP pools are pinned to one thread: every workload is one serial
# process, and a pool sized to the machine only adds scheduling noise.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_REPS = 2  # the CSV determinism check compares repetitions

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal sizes, for selfcheck.py")
    return ap.parse_args(argv)


def _setup_probes(args, work: Path, count: int, sampler: SpeedSampler):
    """Time fresh interpreters doing import + config load + build.

    Returns the reference-speed seconds of each, its raw wall time, and the
    import time each child measured.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "setup",
           "--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    secs, walls, imports = [], [], []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        t1 = time.perf_counter()
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        secs.append(sampler.seconds(t0, t1))
        walls.append(t1 - t0)
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return secs, walls, imports


def _measure(wl, seconds: float, tracer=None):
    """Repeat the workload for about ``seconds`` (at least MIN_REPS times).

    A repetition starts only if it should end no later than half a
    repetition past ``seconds``, so a run overruns by no more than that.

    Returns the (start, end) window of each repetition and of each run in
    it, and the peak RSS.  Peak RSS is read after the first repetition:
    later ones reuse a heap the earlier ones fragmented, so their peak
    depends on the repetition count, while a user's process runs the work
    once.
    """
    reps, runs = [], []
    start = time.perf_counter()
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        runs += wl.rep(tracer)
        reps.append((t0, time.perf_counter()))
        last = reps[-1][1] - t0
        if len(reps) == 1:
            rss_mb = wl.peak_rss_mb()
    return reps, runs, rss_mb


def _p90(samples) -> float:
    """Nearest-rank 90th percentile: a measured latency, never an interpolation
    across the gap between two kinds of run."""
    return sorted(samples)[math.ceil(0.9 * len(samples)) - 1]


def _raw(windows) -> list:
    return [t1 - t0 for t0, t1 in windows]


def end_to_end(wl, args, setup, sampler: SpeedSampler) -> dict:
    """Reference-speed timings (speed.py) of the measured repetitions.

    Every repetition runs the same inputs in the same order, so the k-th run
    of each repetition is one input.  Each input's latency is the median of
    its runs; a repetition's time is the sum of those medians, and the
    percentiles are taken over the inputs.
    """
    setup_secs, setup_walls = setup
    rep_w, run_w, rss_mb = _measure(wl, args.seconds)
    inputs = len(run_w) // len(rep_w)
    lat = [sampler.seconds(*w) for w in run_w]
    per_input = [statistics.median(lat[k::inputs]) for k in range(inputs)]
    wall = sum(per_input)
    med, fast, slow = sampler.speed()
    print(f"# speed probe: {len(sampler.costs)} probes, median {med * 1e6:.0f} us "
          f"(fastest {fast * 1e6:.0f}, slowest {slow * 1e6:.0f}; reference {PROBE_REF_S * 1e6:.0f})")
    print(f"# raw: setup_s {statistics.median(setup_walls):.4f}, repetition {statistics.median(_raw(rep_w)):.4f} s, "
          f"run median {statistics.median(_raw(run_w)) * 1e3:.2f} ms")
    print(f"# {len(rep_w)} repetitions of {inputs} inputs; reference-speed repetitions (s): "
          f"{' '.join(f'{sampler.seconds(*w):.3f}' for w in rep_w)}")
    return {
        "setup_s": (statistics.median(setup_secs), f"median of {len(setup_secs)} fresh interpreters"),
        "wall_s": (wall, f"sum of {inputs} per-input medians over {len(rep_w)} repetitions"),
        "runs_per_s": (inputs / wall, f"{inputs} runs per {wall:.3f} s"),
        "run_p50_ms": (statistics.median(per_input) * 1e3, f"median of {inputs} per-input medians"),
        "run_p90_ms": (_p90(per_input) * 1e3, f"p90 of {inputs} per-input medians"),
        "peak_rss_mb": (rss_mb, "ru_maxrss after the first repetition"),
    }


def per_layer(wl, args, imports, spans_path: Path) -> dict:
    import layers
    from tracing import Tracer, layer_totals, traced

    plain_w, _, _ = _measure(wl, args.seconds / 2)
    tracer = Tracer()
    with traced(tracer):
        traced_w, _, _ = _measure(wl, args.seconds / 2, tracer)
    plain, traced_reps = _raw(plain_w), _raw(traced_w)
    tracer.write(spans_path)
    totals = layer_totals(tracer.spans)
    reps = len(traced_reps)

    def self_s(*names):
        return sum(totals[n]["self_s"] for n in names if n in totals) / reps

    def calls(*names):
        return sum(totals[n]["calls"] for n in names if n in totals) / reps

    def count(name, key):
        return totals.get(name, {"counts": {}})["counts"].get(key, 0) / reps

    steps = count("integrator.integrate", "steps")
    integrate_s = self_s("integrator.integrate")
    out = {
        "model.build_ms": (self_s("model.realize_coefficients", "model.initial_state", "model.weights") * 1e3, "ms"),
        "integrator.integrate_s": (integrate_s, "s"),
        "integrator.calls": (calls("integrator.integrate"), "count"),
        "integrator.steps": (steps, "count"),
        "integrator.us_per_step": (integrate_s / steps * 1e6 if steps else 0.0, "us"),
        "integrator.dense_ms": (self_s("integrator.dense_matrix") * 1e3, "ms"),
        "integrator.dense_points": (count("integrator.dense_matrix", "points"), "count"),
        "integrator.dense_mb": (count("integrator.dense_matrix", "cells") * 8 / 1e6, "MB"),
        "moments.balance_ms": (self_s("moments.balance") * 1e3, "ms"),
        "moments.identity_ms": (self_s("moments.identity") * 1e3, "ms"),
        "moments.gronwall_ms": (self_s("moments.gronwall") * 1e3, "ms"),
        "moments.calls": (calls("moments.balance", "moments.identity", "moments.gronwall"), "count"),
    }
    for name in ("uniqueness", "invariance", "differential_form", "convergence", "semigroup", "equilibrium"):
        out[f"analysis.{name}_ms"] = (self_s(f"analysis.{name}") * 1e3, "ms")
    out.update({
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.load_config_ms": (self_s("cli.load_config") * 1e3, "ms"),
        "cli.write_s": (self_s("cli.run"), "s"),
        "cli.bytes_written": (wl.bytes_last_rep, "bytes"),
        "trace.overhead_s": (statistics.median(traced_reps) - statistics.median(plain), "s"),
    })
    print(f"# traced {reps} repetitions ({len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}); "
          f"untraced {len(plain)} repetitions; overhead {out['trace.overhead_s'][0]:.4f} s")
    out.update(layers.micro_rows(args.smoke))
    out.update(layers.baseline_rows(args.smoke))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [p for p in ("src/silkin/__init__.py", "configs", "tests/oracles.py") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a silkin checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    os.environ.pop("SILKIN_OUT_DIR", None)  # it would redirect every CLI run's output
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.append(str(ROOT / "tests"))

    import numpy
    import scipy

    import layers
    from workloads import WORKLOADS

    print(f"# env python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
          f"nproc={os.cpu_count()} blas_threads={THREADS} workload={args.workload} seed={args.seed}")
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, work, args.smoke)
    wl.prepare()
    cpu = pin_one_cpu()
    print(f"# pinned to cpu {cpu}")
    if args.trace:
        with SpeedSampler() as sampler:
            _, _, imports = _setup_probes(args, work, 1 if args.smoke else SETUP_PROBES, sampler)
        wl.build()
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        metrics = per_layer(wl, args, imports, spans_path)
    else:
        with SpeedSampler() as sampler:
            secs, walls, _ = _setup_probes(args, work, 1 if args.smoke else SETUP_PROBES, sampler)
            wl.build()
            e2e = end_to_end(wl, args, (secs, walls), sampler)
        metrics = {name: (value, END_TO_END_UNITS[name], note) for name, (value, note) in e2e.items()}
    decay = layers.decay_ladder(args.seed, wl.tally)
    if args.trace:
        metrics.update(decay)

    for name, (value, unit, *note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
    tally = wl.tally
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g}  ({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
