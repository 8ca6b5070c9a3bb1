"""The three benchmark workloads: seeded inputs, one repetition, output checks.

Every workload has the same shape:

``prepare()``  writes the seeded inputs under the work directory (benchmark
               side, never timed);
``build()``    the user-side set-up: parse configs and build systems, states
               and weights.  ``setup_s`` times a fresh interpreter doing the
               import plus this call;
``rep()``      one repetition; returns the (start, end) perf_counter window
               of each verified run or CLI invocation in it, and records each one's problems in the
               tally (a failed check, an abort, a nonzero exit code or an
               oracle mismatch all count as a failed operation).

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import silkin
from silkin import (
    CoefficientFamily,
    IntegratorConfig,
    ModelParams,
    MomentWeights,
    State,
    TruncatedSystem,
    cli,
    realize_coefficients,
)

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
T_END = 5.0
TOL = 1e-6
# Stepping configurations of the acceptance battery (tests/test_acceptance.py).
CFG_A = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-15)
CFG_B = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-14, max_step=0.25)
# Number of summary checks each subcommand must report; a check that silently
# disappears is a failure, not a pass.
EXPECTED_CHECKS = {"simulate": 4, "verify": 12, "converge": 2, "equilibrium": 2, "semigroup": 4}


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def _guarded(fn, *args) -> list:
    """Run one operation; an exception is that operation's failure."""
    try:
        return fn(*args)
    except Exception:  # benchmark boundary: record and keep measuring
        return [traceback.format_exc(limit=4).strip().replace("\n", " | ")]


def acceptance_system(n: int, gamma: float) -> TruncatedSystem:
    """Coefficient families of the acceptance run matrix."""
    rates = realize_coefficients(
        CoefficientFamily.power_law(1.0, gamma),
        CoefficientFamily.constant(0.7),
        CoefficientFamily.power_law(0.5, 1.0),
        n,
    )
    return TruncatedSystem(ModelParams(r=0.4, alpha=0.3), rates)


def stiff_wide_doc(n: int, rng) -> dict:
    """The stiff_wide CLI config on the acceptance families; the seed nudges the initial data."""
    return {
        "schema_version": 1,
        "model": {"r": 0.4, "alpha": 0.3},
        "rates": {
            "k": {"kind": "power_law", "amplitude": 1.0, "exponent": 1.0},
            "p": {"kind": "constant", "amplitude": 0.7},
            "q": {"kind": "power_law", "amplitude": 0.5, "exponent": 1.0},
        },
        "initial": {
            "x0": float(rng.uniform(0.98, 1.02)),
            "decay": {"b": 1.0, "rho": float(rng.uniform(0.49, 0.51))},
        },
        "run": {"n": n, "t_end": T_END},
        "integrator": {"method": "bdf", "rel_tol": 1e-10, "abs_tol": 1e-15},
        "output": {"m_out": 32, "wide_csv": True},
    }


def _write_yaml(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


def _summary_problems(out: Path, command: str) -> list:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    problems = [f"check {c['name']} failed: {c['value']}" for c in summary["checks"] if not c["passed"]]
    if len(summary["checks"]) != EXPECTED_CHECKS[command]:
        problems.append(f"{len(summary['checks'])} checks, expected {EXPECTED_CHECKS[command]}")
    if not summary["passed"] and not problems:
        problems.append("summary not passed")
    return problems


def _bytes_in(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.tally = Tally()
        self.bytes_last_rep = 0

    def prepare(self) -> None:
        pass

    def build(self) -> None:
        raise NotImplementedError

    def rep(self, tracer=None) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ensemble(Workload):
    """A seeded, cell-balanced sample of the acceptance run matrix, full battery per run."""

    name = "ensemble"
    NS = (4, 32, 256)
    GAMMAS = (0.0, 0.5, 1.0)
    RUNS_PER_CELL = 2
    # tests/test_acceptance.py::random_state draws rho ~ U(0.35, 0.6) and
    # x0 ~ U(0, 1.5), and a run's cost roughly triples across those ranges.
    # Every run here takes their means, so the runs of a cell cost the
    # same: a repetition costs about the same for every seed, and a latency
    # percentile reads a cluster of like runs, not one run at a corner of the
    # state space.  The seed draws the per-cohort factors U(0.5, 0.8), narrow
    # enough that a cell's step count moves by about 2 % between seeds.
    RHO, X0 = 0.475, 0.75

    def build(self) -> None:
        ns = (4, 8, 16) if self.smoke else self.NS
        per_cell = 1 if self.smoke else self.RUNS_PER_CELL
        cells = [(n, g) for n in ns for g in self.GAMMAS]
        systems = {cell: acceptance_system(*cell) for cell in cells}
        rng = np.random.default_rng(self.seed)
        self.runs = []
        for _ in range(per_cell):
            for n, gamma in cells:
                M = rng.uniform(0.5, 0.8, n + 1) * self.RHO ** np.arange(n + 1)
                self.runs.append((gamma, systems[(n, gamma)], State(t=0.0, x=self.X0, M=M)))

    def rep(self, tracer=None) -> list:
        windows = []
        for idx, (gamma, sys_, y0) in enumerate(self.runs):
            if tracer is not None:
                tracer.run_id += 1
            t0 = time.perf_counter()
            problems = _guarded(_verified_run, sys_, y0, gamma)
            windows.append((t0, time.perf_counter()))
            self.tally.record(f"run {idx} (n={sys_.n}, gamma={gamma})", problems)
        return windows


def _verified_run(sys_: TruncatedSystem, y0: State, gamma: float) -> list:
    """Integrate one matrix run and evaluate its full battery; return the failures.

    Calls go through the ``silkin`` namespace so the traced run can wrap them.
    """
    traj = silkin.integrate(sys_, y0, T_END, CFG_A, flux_orders=(1,))
    n = sys_.n
    problems = []
    if not (traj.pre_clamp_min >= traj.cfg.floor and float(np.min(traj.phase)) >= 0.0):
        problems.append(f"cone violated ({traj.pre_clamp_min})")
    for fn in (silkin.mass_balance_residual, silkin.quartz_balance_residual, silkin.macrophage_balance_residual):
        worst = max(abs(fn(traj, float(t))) for t in np.linspace(T_END / 10.0, T_END, 10))
        if not worst < TOL:
            problems.append(f"{fn.__name__} {worst:.3e}")
    for label, w in (
        ("flat", MomentWeights.ones(n)),
        ("linear", MomentWeights.linear(n)),
        ("power", MomentWeights.power(n, 1.0 + gamma)),
    ):
        res = abs(silkin.moment_identity_residual(traj, w, 1, 0.0, T_END))
        if not res < TOL:
            problems.append(f"moment identity {label} {res:.3e}")
    gron = silkin.gronwall_check(traj, MomentWeights.power(n, 1.0 + gamma, sys_.rates))
    if not (gron.ok and gron.margin > 0.0):
        problems.append(f"gronwall margin {gron.margin}")
    inv = silkin.invariance_check(traj, gamma)
    if not (inv.ok and inv.margin > 0.0):
        problems.append(f"invariance margin {inv.margin}")
    gap = silkin.uniqueness_probe(sys_, y0, T_END, CFG_A, CFG_B)
    if not gap < TOL:
        problems.append(f"uniqueness gap {gap:.3e}")
    return problems


class StiffWide(Workload):
    """``silkin simulate`` at n = 4096, gamma = 1, BDF, with the wide CSV, in-process.

    Both CSVs must be byte-identical across the repetitions of a run.
    """

    name = "stiff_wide"
    command = "simulate"
    csvs = ("trajectory.csv", "trajectory_wide.csv")
    N = 4096

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        super().__init__(seed, work, smoke)
        self.config = work / "inputs" / f"{self.name}.yaml"
        self.out = work / "out"
        self.hashes = None

    def prepare(self) -> None:
        n = 64 if self.smoke else self.N
        _write_yaml(self.config, stiff_wide_doc(n, np.random.default_rng(self.seed)))

    def build(self) -> None:
        cli.load_config(str(self.config))

    def rep(self, tracer=None) -> list:
        if tracer is not None:
            tracer.run_id += 1
        argv = [self.command, "--config", str(self.config), "--out", str(self.out)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            result = _guarded(cli.main, argv)
        window = (t0, time.perf_counter())
        if isinstance(result, list):
            problems = result
        elif result != cli.EXIT_OK:
            problems = [f"exit code {result}"]
        else:
            problems = _guarded(self.check)
        self.tally.record(f"{self.command} {self.name}", problems)
        return [window]

    def check(self) -> list:
        problems = _summary_problems(self.out, self.command)
        self.bytes_last_rep = _bytes_in(self.out)
        hashes = {name: _sha256(self.out / name) for name in self.csvs}
        if self.hashes is None:
            self.hashes = hashes
        problems += [f"{name} bytes differ from the first repetition" for name in self.csvs if hashes[name] != self.hashes[name]]
        return problems + self.oracle()

    def oracle(self) -> list:
        """Recompute the last row's total matter from the wide CSV, independently of the CLI."""
        narrow = (self.out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        wide = (self.out / "trajectory_wide.csv").read_text(encoding="utf-8").splitlines()
        samples = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))["metadata"]["num_samples"]
        problems = []
        if not len(narrow) == len(wide) == samples + 1:
            problems.append(f"rows: narrow {len(narrow)}, wide {len(wide)}, expected {samples + 1}")
        head = narrow[0].split(",")
        last_n = dict(zip(head, narrow[-1].split(",")))
        last_w = np.array(wide[-1].split(","), dtype=float)
        x, M = last_w[1], last_w[2:]
        u_total = x + float(np.sum((np.arange(len(M)) + 1.0) * M))
        if not math.isclose(u_total, float(last_n["U_total"]), rel_tol=1e-12):
            problems.append(f"U_total {last_n['U_total']} vs recomputed {u_total!r}")
        if [float(last_n["t"]), float(last_n["x"])] != list(last_w[:2]):
            problems.append("narrow and wide CSV disagree on (t, x)")
        return problems


# Shipped configs and the subcommand each is written for (README, "Command line").
CLI_CONFIGS = (
    ("decay_oracle", "simulate"),
    ("equilibrium_chain", "equilibrium"),
    ("ladder", "converge"),
    ("semigroup", "semigroup"),
    ("verify_power_law", "verify"),
)


class CliCold(Workload):
    """Each shipped config run by its subcommand as a fresh ``python -m silkin.cli`` process."""

    name = "cli_cold"

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        super().__init__(seed, work, smoke)
        self.jobs = [(stem, command, work / "inputs" / f"{stem}.yaml", work / "out" / stem) for stem, command in CLI_CONFIGS]
        self.max_child_rss_kb = 0

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        for stem, _, path, _ in self.jobs:
            doc = yaml.safe_load((ROOT / "configs" / f"{stem}.yaml").read_text(encoding="utf-8"))
            init = doc["initial"]
            init["x0"] = float(init.get("x0", 0.0) + rng.uniform(0.0, 0.02))
            if "decay" in init:
                init["decay"]["rho"] = float(init["decay"]["rho"] + rng.uniform(-0.01, 0.01))
            else:
                init["M"] = [float(v * rng.uniform(0.9, 1.1)) for v in init["M"]]
            _write_yaml(path, doc)

    def build(self) -> None:
        for _, _, path, _ in self.jobs:
            config = cli.load_config(str(path))
            for n in config.n_ladder or (config.n,):
                realize_coefficients(*config.families, n)
                config.initial.state(n)

    def rep(self, tracer=None) -> list:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        windows = []
        self.bytes_last_rep = 0
        for stem, command, path, out in self.jobs:
            out.mkdir(parents=True, exist_ok=True)
            argv = [command, "--config", str(path), "--out", str(out)]
            if tracer is None:
                cmd = [sys.executable, "-m", "silkin.cli", *argv]
            else:
                spans = logs / f"{stem}.spans.jsonl"
                child = str(Path(__file__).with_name("child.py"))
                tracer.run_id += 1
                cmd = [sys.executable, child, "cli", "--spans", str(spans), "--run-id", str(tracer.run_id), "--", *argv]
            with open(logs / f"{stem}.stdout", "wb") as so, open(logs / f"{stem}.stderr", "wb") as se:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
                _, status, usage = os.wait4(proc.pid, 0)
                windows.append((t0, time.perf_counter()))
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
            if tracer is not None and spans.exists():
                tracer.extend(Tracer.read(spans))
                spans.unlink()
            if code != 0:
                err = (logs / f"{stem}.stderr").read_text(encoding="utf-8", errors="replace").strip()
                problems = [f"exit code {code}: {err[-300:]}"]
            else:
                problems = _guarded(self.check, stem, command, path, out)
                self.bytes_last_rep += _bytes_in(out)
            self.tally.record(f"{command} {stem}", problems)
        return windows

    def check(self, stem: str, command: str, path: Path, out: Path) -> list:
        problems = _summary_problems(out, command)
        oracle = getattr(self, f"_oracle_{stem}", None)
        return problems + (oracle(path, out) if oracle else [])

    def _oracle_decay_oracle(self, path: Path, out: Path) -> list:
        """No ingestion: every column follows the closed form of tests/oracles.py."""
        from oracles import decoupled_solution

        config = cli.load_config(str(path))
        rates = realize_coefficients(*config.families, config.n)
        if np.any(rates.k != 0.0):
            return ["decay oracle config has ingestion; the closed form does not apply"]
        M0 = config.initial.realize(config.n)
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        worst = 0.0
        for row in data:
            x_ref, M_ref = decoupled_solution(
                config.initial.x0, M0, rates.p, rates.q, config.params.r, config.params.alpha, row[0]
            )
            ref = np.concatenate(([x_ref], M_ref))
            got = np.concatenate(([row[1]], row[7 : 7 + len(M_ref)]))
            worst = max(worst, float(np.max(np.abs(got - ref))))
        return [] if worst <= 1e-7 else [f"closed-form error {worst:.3e} > 1e-7"]

    def _oracle_equilibrium_chain(self, path: Path, out: Path) -> list:
        """Unit-rate chain: x* = 1 and the cohort recursion of tests/oracles.py."""
        from oracles import chain_equilibrium

        x_star = json.loads((out / "summary.json").read_text(encoding="utf-8"))["metadata"]["x_star"]
        M = np.loadtxt(out / "equilibrium.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        err = float(np.max(np.abs(M - chain_equilibrium(len(M) - 1, 1.0))))
        problems = []
        if not abs(x_star - 1.0) <= 1e-8:
            problems.append(f"x* = {x_star}, expected 1")
        if not err <= 1e-8:
            problems.append(f"cohort error {err:.3e} > 1e-8")
        return problems

    def _oracle_semigroup(self, path: Path, out: Path) -> list:
        """Degenerate legs (t = 0 or s = 0) skip integration, so their residual is exactly 0."""
        pairs = json.loads((out / "summary.json").read_text(encoding="utf-8"))["metadata"]["pairs"]
        return [
            f"degenerate pair ({p['t']}, {p['s']}) residual {p['residual']}"
            for p in pairs
            if (p["t"] == 0.0 or p["s"] == 0.0) and p["residual"] != 0.0
        ]

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kb / 1024.0


WORKLOADS = {cls.name: cls for cls in (Ensemble, StiffWide, CliCold)}
