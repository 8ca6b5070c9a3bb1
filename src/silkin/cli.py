"""Command line interface: YAML experiment configs in, CSV and JSON artifacts out.

Subcommands
-----------
``simulate``     integrate one truncation and dump the trajectory
``verify``       integrate and evaluate the full residual/envelope battery
``converge``     run a truncation ladder and report sup-norm gaps
``equilibrium``  locate a steady state of the truncated system
``semigroup``    restart-consistency residuals for configured (t, s) pairs

Every summary check names the residual operation that produced it, so a
failing line is traceable to one function.  The pipeline is deterministic:
identical configs produce byte-identical CSV output.  ``--seed`` is accepted
and recorded but reserved; no core path draws random numbers.

The output directory is ``--out``, overridden by the ``SILKIN_OUT_DIR``
environment variable when set.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .analysis import (
    DegenerateDenominator,
    NoBracket,
    convergence_study,
    differential_form_check,
    find_equilibrium,
    invariance_check,
    semigroup_residual,
)
from .integrator import IntegrationError, IntegratorConfig, Trajectory, integrate
from .model import (
    CoefficientFamily,
    InitialData,
    ModelParams,
    MomentWeights,
    State,
    realize_coefficients,
    weighted_norm,
)
from .moments import (
    compute_moments,
    gronwall_check,
    macrophage_balance_residual,
    mass_balance_residual,
    moment_identity_residual,
    quartz_balance_residual,
)
from .truncation import TruncatedSystem

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "main"]

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SILKIN_OUT_DIR"
COMMANDS = ("simulate", "converge", "equilibrium", "verify", "semigroup")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Configuration problem, tagged with the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _get(node: dict, key: str, path: str, required: bool = True, default: Any = None) -> Any:
    if not isinstance(node, dict):
        raise ConfigError(path or key, "expected a mapping")
    if key not in node:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    return node[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _positive_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"expected a positive integer, got {value!r}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _pair(value: Any, path: str, shape: str) -> Tuple[float, float]:
    """A two-element list of finite numbers >= 0; ``shape`` names it in the error."""
    pair = tuple(_number(v, path) for v in value) if isinstance(value, list) else ()
    if len(pair) != 2 or not all(0.0 <= v < math.inf for v in pair):
        raise ConfigError(path, f"expected {shape} with two finite numbers >= 0, got {value!r}")
    return pair


def _family(node: Any, path: str) -> CoefficientFamily:
    kind = _get(node, "kind", path)
    try:
        if kind == "power_law":
            return CoefficientFamily.power_law(
                _number(_get(node, "amplitude", path), f"{path}.amplitude"),
                _number(_get(node, "exponent", path, required=False, default=0.0), f"{path}.exponent"),
            )
        if kind == "constant":
            return CoefficientFamily.constant(
                _number(_get(node, "amplitude", path), f"{path}.amplitude")
            )
        if kind == "table":
            values = _get(node, "values", path)
            if not isinstance(values, list):
                raise ConfigError(f"{path}.values", "expected a list of numbers")
            tail = _get(node, "tail", path, required=False, default="constant")
            return CoefficientFamily.table(
                [_number(v, f"{path}.values[{i}]") for i, v in enumerate(values)], tail=tail
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown family kind {kind!r}")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated experiment: everything is realized before integration starts."""

    command: Optional[str]
    params: ModelParams
    family_k: CoefficientFamily
    family_p: CoefficientFamily
    family_q: CoefficientFamily
    initial: InitialData
    n: Optional[int]
    n_ladder: Optional[Tuple[int, ...]]
    t_end: float
    integrator: IntegratorConfig
    m_out: int = 32
    wide_csv: bool = False
    residual_tol: float = 1e-6
    sample_times: int = 10
    differential_tol: float = 1e-5
    semigroup_pairs: Tuple[Tuple[float, float], ...] = ((0.5, 0.5), (1.0, 2.0), (0.0, 3.0), (3.0, 0.0))
    semigroup_tol: float = 1e-7
    equilibrium_bracket: Optional[Tuple[float, float]] = None
    equilibrium_tol: float = 1e-12
    final_gap_tol: Optional[float] = None
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def families(self):
        return (self.family_k, self.family_p, self.family_q)


def load_config(path: str) -> RunConfig:
    """Parse and validate a YAML experiment file into a :class:`RunConfig`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be a mapping")

    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version!r} (expected {SCHEMA_VERSION})")
    command = doc.get("command")
    if command is not None and command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")

    model_node = _get(doc, "model", "")
    try:
        params = ModelParams(
            r=_number(_get(model_node, "r", "model"), "model.r"),
            alpha=_number(_get(model_node, "alpha", "model"), "model.alpha"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("model", str(exc)) from exc

    rates_node = _get(doc, "rates", "")
    fk = _family(_get(rates_node, "k", "rates"), "rates.k")
    fp = _family(_get(rates_node, "p", "rates"), "rates.p")
    fq = _family(_get(rates_node, "q", "rates"), "rates.q")

    init_node = _get(doc, "initial", "")
    x0 = _number(_get(init_node, "x0", "initial", required=False, default=0.0), "initial.x0")
    explicit = _get(init_node, "M", "initial", required=False)
    decay = _get(init_node, "decay", "initial", required=False)
    try:
        if explicit is not None and decay is not None:
            raise ConfigError("initial", "give either M or decay, not both")
        if explicit is not None:
            if not isinstance(explicit, list):
                raise ConfigError("initial.M", "expected a list of numbers")
            initial = InitialData(
                x0=x0, M=tuple(_number(v, f"initial.M[{i}]") for i, v in enumerate(explicit))
            )
        elif decay is not None:
            initial = InitialData(
                x0=x0,
                b=_number(_get(decay, "b", "initial.decay"), "initial.decay.b"),
                rho=_number(_get(decay, "rho", "initial.decay"), "initial.decay.rho"),
            )
        else:
            raise ConfigError("initial", "missing cohort data (M or decay)")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("initial", str(exc)) from exc

    run_node = _get(doc, "run", "")
    n_value = _get(run_node, "n", "run", required=False)
    ladder_value = _get(run_node, "n_ladder", "run", required=False)
    if (n_value is None) == (ladder_value is None):
        raise ConfigError("run", "give exactly one of n or n_ladder")
    n = None
    ladder = None
    if n_value is not None:
        if not isinstance(n_value, int) or n_value < 2:
            raise ConfigError("run.n", f"expected an integer >= 2, got {n_value!r}")
        n = n_value
    else:
        if (
            not isinstance(ladder_value, list)
            or len(ladder_value) < 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in ladder_value)
            or ladder_value[0] < 2
            or any(b <= a for a, b in zip(ladder_value, ladder_value[1:]))
        ):
            raise ConfigError(
                "run.n_ladder",
                f"expected a strictly increasing list of at least two integers >= 2, got {ladder_value!r}",
            )
        ladder = tuple(ladder_value)
    t_end = _number(_get(run_node, "t_end", "run"), "run.t_end")
    if t_end <= 0.0:
        raise ConfigError("run.t_end", f"must be positive, got {t_end}")

    integ_node = doc.get("integrator") or {}
    max_step = _get(integ_node, "max_step", "integrator", required=False)
    try:
        integ = IntegratorConfig(
            rel_tol=_number(_get(integ_node, "rel_tol", "integrator", required=False, default=1e-9), "integrator.rel_tol"),
            abs_tol=_number(_get(integ_node, "abs_tol", "integrator", required=False, default=1e-12), "integrator.abs_tol"),
            max_step=math.inf if max_step is None else _number(max_step, "integrator.max_step"),
            negativity_floor=(
                None
                if _get(integ_node, "negativity_floor", "integrator", required=False) is None
                else _number(integ_node["negativity_floor"], "integrator.negativity_floor")
            ),
            method=_get(integ_node, "method", "integrator", required=False, default="rk45"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("integrator", str(exc)) from exc

    out_node = doc.get("output") or {}
    verify_node = doc.get("verify") or {}
    semi_node = doc.get("semigroup") or {}
    eq_node = doc.get("equilibrium") or {}
    conv_node = doc.get("converge") or {}

    pairs_value = _get(semi_node, "pairs", "semigroup", required=False)
    if pairs_value is None:
        pairs = RunConfig.__dataclass_fields__["semigroup_pairs"].default
    else:
        if not isinstance(pairs_value, list):
            raise ConfigError("semigroup.pairs", "expected a list of [t, s] pairs")
        pairs = tuple(_pair(pair, f"semigroup.pairs[{i}]", "[t, s]") for i, pair in enumerate(pairs_value))

    bracket_value = _get(eq_node, "x_bracket", "equilibrium", required=False)
    bracket = None if bracket_value is None else _pair(bracket_value, "equilibrium.x_bracket", "[lo, hi]")
    if bracket is not None and not bracket[0] < bracket[1]:
        raise ConfigError("equilibrium.x_bracket", f"expected lo < hi, got {bracket_value!r}")

    final_gap = _get(conv_node, "final_gap_tol", "converge", required=False)

    return RunConfig(
        command=command,
        params=params,
        family_k=fk,
        family_p=fp,
        family_q=fq,
        initial=initial,
        n=n,
        n_ladder=ladder,
        t_end=t_end,
        integrator=integ,
        m_out=_positive_int(_get(out_node, "m_out", "output", required=False, default=32), "output.m_out"),
        wide_csv=_boolean(_get(out_node, "wide_csv", "output", required=False, default=False), "output.wide_csv"),
        residual_tol=_number(_get(verify_node, "residual_tol", "verify", required=False, default=1e-6), "verify.residual_tol"),
        sample_times=_positive_int(_get(verify_node, "sample_times", "verify", required=False, default=10), "verify.sample_times"),
        differential_tol=_number(_get(verify_node, "differential_tol", "verify", required=False, default=1e-5), "verify.differential_tol"),
        semigroup_pairs=pairs,
        semigroup_tol=_number(_get(semi_node, "tol", "semigroup", required=False, default=1e-7), "semigroup.tol"),
        equilibrium_bracket=bracket,
        equilibrium_tol=_number(_get(eq_node, "tol", "equilibrium", required=False, default=1e-12), "equilibrium.tol"),
        final_gap_tol=None if final_gap is None else _number(final_gap, "converge.final_gap_tol"),
        raw=doc,
    )


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Rows hold Python ints and floats (``ndarray.tolist()`` gives them): ``repr`` is exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _check(name: str, operation: str, value, threshold, passed: bool, comparison: str = "<=") -> dict:
    return {
        "name": name,
        "operation": operation,
        "value": value,
        "threshold": threshold,
        "comparison": comparison,
        "passed": bool(passed),
    }


def _bound_check(name: str, operation: str, value: float, threshold: float) -> dict:
    return _check(name, operation, float(value), float(threshold), value <= threshold)


def _build_system(config: RunConfig, n: int) -> Tuple[TruncatedSystem, State]:
    rates = realize_coefficients(config.family_k, config.family_p, config.family_q, n)
    return TruncatedSystem(config.params, rates), config.initial.state(n)


def _write_trajectory(config: RunConfig, traj: Trajectory, out: Path) -> dict:
    rates = traj.sys.rates
    cohorts = min(config.m_out, rates.n + 1)
    header = ["t", "x", "M_total", "X_total", "U_total", "Q", "P"] + [f"M_{i}" for i in range(cohorts)]

    def rows():
        for i in range(traj.num_samples):
            s = traj.state(i)
            snap = compute_moments(s, rates)
            yield [s.t, s.x, snap.m_total, snap.x_total, snap.u_total, snap.Q, snap.P] + s.M[:cohorts].tolist()

    _write_csv(out / "trajectory.csv", header, rows())
    artifacts = {"trajectory_csv": "trajectory.csv"}
    if config.wide_csv:
        wide_header = ["t", "x"] + [f"M_{i}" for i in range(rates.n + 1)]
        _write_csv(
            out / "trajectory_wide.csv",
            wide_header,
            ([t] + traj.phase[i].tolist() for i, t in enumerate(traj.t.tolist())),
        )
        artifacts["trajectory_wide_csv"] = "trajectory_wide.csv"
    return artifacts


def _norm_bound_checks(traj: Trajectory, slack: float = 1e-6) -> List[dict]:
    params = traj.sys.params
    n = traj.sys.n
    w1 = np.arange(n + 1) + 1.0
    norms = traj.phase[:, 0] + traj.phase[:, 1:] @ w1
    budget = norms[0] + (params.r + params.alpha) * (traj.t - traj.t_start)
    cohort_peaks = np.max(traj.phase[:, 1:] * w1, axis=1)
    return [
        _check(
            "cone_nonnegative",
            "integrate",
            float(traj.pre_clamp_min),
            float(traj.cfg.floor),
            traj.pre_clamp_min >= traj.cfg.floor and float(np.min(traj.phase)) >= 0.0,
            comparison=">=",
        ),
        _bound_check("norm_growth_bound", "norm_mu", float(np.max(norms - budget)), slack),
        _bound_check("cohort_bound", "norm_mu", float(np.max(cohort_peaks - budget)), slack),
    ]


def _cmd_simulate(config: RunConfig, out: Path):
    sys_, y0 = _build_system(config, config.n)
    traj = integrate(sys_, y0, config.t_end, config.integrator, flux_orders=(1,))
    artifacts = _write_trajectory(config, traj, out)
    checks = _norm_bound_checks(traj)
    times = np.linspace(traj.t_start, traj.t_end, config.sample_times + 1)[1:]
    worst = max(abs(mass_balance_residual(traj, t)) for t in times)
    checks.append(_bound_check("mass_balance", "mass_balance_residual", worst, config.residual_tol))
    meta = {
        "n": sys_.n,
        "t_end": config.t_end,
        "num_samples": traj.num_samples,
        "integrator": asdict(traj.stats),
    }
    return checks, artifacts, meta


def _cmd_verify(config: RunConfig, out: Path):
    sys_, y0 = _build_system(config, config.n)
    traj = integrate(sys_, y0, config.t_end, config.integrator, flux_orders=(1,))
    artifacts = _write_trajectory(config, traj, out)
    rates = sys_.rates
    tol = config.residual_tol
    checks = _norm_bound_checks(traj)

    times = np.linspace(traj.t_start, traj.t_end, config.sample_times + 1)[1:]
    for name, fn in (
        ("mass_balance", mass_balance_residual),
        ("quartz_balance", quartz_balance_residual),
        ("macrophage_balance", macrophage_balance_residual),
    ):
        worst = max(abs(fn(traj, t)) for t in times)
        checks.append(_bound_check(name, f"{fn.__name__}", worst, tol))

    weight_sets = [
        ("flat", MomentWeights.ones(rates.n)),
        ("linear", MomentWeights.linear(rates.n, rates)),
        ("power", MomentWeights.power(rates.n, 1.0 + rates.gamma, rates)),
    ]
    for label, w in weight_sets:
        value = abs(moment_identity_residual(traj, w, 1, traj.t_start, traj.t_end))
        checks.append(_bound_check(f"moment_identity_{label}", "moment_identity_residual", value, tol))

    gron = gronwall_check(traj, MomentWeights.power(rates.n, 1.0 + rates.gamma, rates))
    checks.append(
        _check("gronwall_envelope", "gronwall_check", gron.margin, 0.0, gron.ok and gron.margin >= 0.0, comparison=">=")
    )
    inv = invariance_check(traj, rates.gamma)
    checks.append(
        _check("invariance_envelope", "invariance_check", inv.margin, 0.0, inv.ok and inv.margin >= 0.0, comparison=">=")
    )

    h = 1e-4
    span = traj.duration
    grid = traj.t_start + span * np.linspace(0.1, 0.9, 9)
    defect = differential_form_check(traj, grid, h=h)
    checks.append(_bound_check("differential_form", "differential_form_check", defect, config.differential_tol))

    meta = {
        "n": sys_.n,
        "t_end": config.t_end,
        "num_samples": traj.num_samples,
        "integrator": asdict(traj.stats),
        "gronwall": {
            "c1_used": gron.c1_used,
            "c1_apriori": gron.c1_apriori,
            "c1_fitted": gron.c1_fitted,
            "c2": gron.c2,
            "growth_constant": gron.growth_constant,
        },
        "invariance_max_norm": inv.max_norm,
    }
    return checks, artifacts, meta


def _cmd_converge(config: RunConfig, out: Path):
    report = convergence_study(
        config.params,
        config.families,
        config.initial,
        config.n_ladder,
        config.t_end,
        config.integrator,
    )
    rows = [
        [n_lo, n_hi, float(gap), float(xg)]
        for n_lo, n_hi, gap, xg in zip(report.n_ladder, report.n_ladder[1:], report.gaps, report.x_gaps)
    ]
    _write_csv(out / "gaps.csv", ["n_low", "n_high", "gap", "x_gap"], rows)
    checks = [
        _check("gaps_decreasing", "convergence_study", bool(report.decreasing), True, report.decreasing, comparison="==")
    ]
    if config.final_gap_tol is not None:
        checks.append(
            _bound_check("final_gap", "convergence_study", float(report.gaps[-1]), config.final_gap_tol)
        )
    meta = {"n_ladder": list(report.n_ladder), "gaps": [float(g) for g in report.gaps]}
    return checks, {"gaps_csv": "gaps.csv"}, meta


def _cmd_equilibrium(config: RunConfig, out: Path):
    sys_, _ = _build_system(config, config.n)
    result = find_equilibrium(sys_, config.equilibrium_bracket, tol=config.equilibrium_tol)
    _write_csv(
        out / "equilibrium.csv",
        ["i", "M_i"],
        ([i, v] for i, v in enumerate(result.M_star.tolist())),
    )
    checks = [
        _bound_check("equilibrium_residual", "find_equilibrium", result.residual, config.equilibrium_tol)
    ]
    eq_state = State(t=0.0, x=result.x_star, M=result.M_star)
    drifted = integrate(sys_, eq_state, 1.0, config.integrator).final_state
    drift = weighted_norm(drifted.x - eq_state.x, drifted.M - eq_state.M, 1.0)
    drift_tol = max(10.0 * config.equilibrium_tol, 1e-8)
    checks.append(_bound_check("equilibrium_fixed_point", "integrate", drift, drift_tol))
    meta = {
        "x_star": result.x_star,
        "residual": result.residual,
        "tail_mass": result.tail_mass,
        "n": sys_.n,
    }
    return checks, {"equilibrium_csv": "equilibrium.csv"}, meta


def _cmd_semigroup(config: RunConfig, out: Path):
    sys_, y0 = _build_system(config, config.n)
    checks = []
    values = []
    for t, s in config.semigroup_pairs:
        value = semigroup_residual(sys_, y0, t, s, config.integrator)
        values.append({"t": t, "s": s, "residual": value})
        checks.append(
            _bound_check(f"semigroup_t{t}_s{s}", "semigroup_residual", value, config.semigroup_tol)
        )
    meta = {"pairs": values, "n": sys_.n}
    return checks, {}, meta


_DISPATCH = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "equilibrium": _cmd_equilibrium,
    "semigroup": _cmd_semigroup,
}


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def run(command: str, config_path: str, out_dir: str, seed: Optional[int] = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")
    config = load_config(config_path)
    if config.command is not None and config.command != command:
        raise ConfigError("command", f"config is for {config.command!r}, invoked as {command!r}")
    needs_ladder = command == "converge"
    if needs_ladder and config.n_ladder is None:
        raise ConfigError("run.n_ladder", "converge needs a truncation ladder")
    if not needs_ladder and config.n is None:
        raise ConfigError("run.n", f"{command} needs a single truncation order n")

    out = Path(os.environ.get(OUT_DIR_ENV) or out_dir)
    out.mkdir(parents=True, exist_ok=True)

    checks, artifacts, meta = _DISPATCH[command](config, out)
    passed = all(c["passed"] for c in checks)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "config": _jsonable(config.raw),
        "checks": _jsonable(checks),
        "passed": passed,
        "artifacts": artifacts,
        "metadata": _jsonable(meta),
    }
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: value={c['value']} {c['comparison']} {c['threshold']} ({c['operation']})")
    print(f"summary: {summary_path}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="silkin",
        description="Solver and verification battery for the truncated quartz/macrophage cohort model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--out", default="out", help=f"output directory (env {OUT_DIR_ENV} overrides)")
        p.add_argument("--seed", type=int, default=None, help="reserved; core paths are deterministic")
    args = parser.parse_args(argv)
    try:
        return run(args.command, args.config, args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, NoBracket, DegenerateDenominator) as exc:
        print(f"numerical abort: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
