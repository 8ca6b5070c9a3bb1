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
identical configs produce byte-identical CSV output.  Every CSV field is the
``repr`` of its value, made by :mod:`silkin.csvtext` from row blocks of the
result arrays.  The output directory is ``--out``.

Configs are read by one declarative schema, ``_SCHEMA``: each YAML key has
one :class:`Row` naming its reader and whether it is required.  A key is
given or left out; ``null`` is no key's value, and the subcommand is named
only on the command line.  Unknown keys, ``null``, non-finite numbers and
negative tolerances raise :class:`ConfigError` with the field path, and so
does a coefficient family whose table is not finite, or cannot be allocated,
at the run's own truncation order (the largest rung for ``converge``).  That
table is realized once, as :attr:`RunConfig.rates`, and a run at that order
reuses it.  An absent key takes the default of the dataclass that receives
the value (:class:`RunConfig`, ``IntegratorConfig``, ``CoefficientFamily``,
``InitialData``); the loader states none.  ``simulate`` and ``verify`` share
one body that integrates, writes the trajectory and checks the balances.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import yaml

from .analysis import (
    DegenerateDenominator,
    NoBracket,
    convergence_study,
    differential_form_check,
    find_equilibrium,
    semigroup_residual,
)
from .integrator import IntegrationError, IntegratorConfig, Trajectory, integrate
from .model import (
    CoefficientFamily,
    InitialData,
    ModelParams,
    MomentWeights,
    RateTable,
    State,
    realize_coefficients,
    weighted_norm,
)
from .moments import (
    compute_moments,
    gronwall_check,
    invariance_check,
    macrophage_balance_residual,
    mass_balance_residual,
    moment_identity_residual,
    quartz_balance_residual,
)
from .truncation import TruncatedSystem

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "main"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

NORM_SLACK = 1e-6
"""How far the total-matter norm and each weighted cohort may exceed their linear budget."""

DRIFT_TOL_FLOOR = 1e-14
"""Tolerance the equilibrium drift run keeps when ``equilibrium.tol`` is below it (0 included)."""


class ConfigError(ValueError):
    """Configuration problem, tagged with the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


Reader = Callable[[Any, str], Any]


class Row(NamedTuple):
    """How one YAML key is read: its reader and whether it must be given."""

    read: Reader
    required: bool = False


def _fields(node: Any, path: str, rows: Dict[Any, Row]) -> Dict[Any, Any]:
    """Read a mapping row by row; unknown keys are errors, absent keys are left out."""
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {node!r}")
    values = {}
    for key, value in node.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in rows:
            raise ConfigError(where, "unknown field")
        values[key] = rows[key].read(value, where)
    for key, row in rows.items():
        if row.required and key not in values:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return values


def _build(build: Callable[..., Any], path: str, values: Dict[str, Any]) -> Any:
    """Construct from read values; the constructor's own ``ValueError`` names ``path``."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _section(rows: Dict[str, Row], build: Callable[..., Any]) -> Reader:
    """A mapping read by ``rows`` whose values are passed to ``build`` as keywords."""
    return lambda node, path: _build(build, path, _fields(node, path, rows))


def _lands_on(name: str, read: Reader) -> Reader:
    """A top-level entry whose value is the one :class:`RunConfig` field ``name``."""
    return lambda value, path: {name: read(value, path)}


def _flat(rows: Dict[str, Row]) -> Reader:
    """A section whose keys land on the :class:`RunConfig` fields ``<section>_<key>``."""
    return lambda node, path: {f"{path}_{key}": v for key, v in _fields(node, path, rows).items()}


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _list(item: Reader) -> Reader:
    def read(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


def _checked(read: Reader, holds: Callable[[Any], bool], expected: str) -> Reader:
    """Read with ``read``, then require ``holds`` of the result."""

    def checked(value: Any, path: str) -> Any:
        result = read(value, path)
        if not holds(result):
            raise ConfigError(path, f"expected {expected}, got {value!r}")
        return result

    return checked


def _as_is(value: Any, path: str) -> Any:
    return value


_boolean = _checked(_as_is, lambda v: isinstance(v, bool), "true or false")
_text = _checked(_as_is, lambda v: isinstance(v, str), "a string")
_integer = _checked(_as_is, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_count = _checked(_integer, lambda v: v >= 1, "a positive integer")
_order = _checked(_integer, lambda v: v >= 2, "an integer >= 2")
_tolerance = _checked(_number, lambda v: v >= 0.0, "a finite number >= 0")
_positive = _checked(_number, lambda v: v > 0.0, "a finite number > 0")
_pair = _checked(_list(_tolerance), lambda v: len(v) == 2, "a list of two finite numbers >= 0")
_bracket = _checked(_pair, lambda v: v[0] < v[1], "[lo, hi] with lo < hi")
_ladder = _checked(
    _list(_order),
    lambda v: len(v) >= 2 and all(a < b for a, b in zip(v, v[1:])),
    "a strictly increasing list of at least two integers",
)


def _version(value: Any, path: str) -> dict:
    if value != SCHEMA_VERSION:
        raise ConfigError(path, f"unsupported version {value!r} (expected {SCHEMA_VERSION})")
    return {}


_KIND = Row(_text, required=True)
_FAMILY_ROWS = {
    "power_law": {"kind": _KIND, "amplitude": Row(_number, required=True), "exponent": Row(_number)},
    "constant": {"kind": _KIND, "amplitude": Row(_number, required=True)},
    "table": {"kind": _KIND, "values": Row(_list(_number), required=True)},
}


def _family(node: Any, path: str) -> CoefficientFamily:
    """A coefficient family; its ``kind`` selects the rows of the other keys."""
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {node!r}")
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in _FAMILY_ROWS:
        raise ConfigError(f"{path}.kind", f"expected one of {', '.join(_FAMILY_ROWS)}, got {kind!r}")
    return _build(CoefficientFamily, path, _fields(node, path, _FAMILY_ROWS[kind]))


def _initial(decay: Optional[dict] = None, **values: Any) -> InitialData:
    """``initial.decay`` holds the ``b`` and ``rho`` fields of :class:`InitialData`."""
    return InitialData(**values, **(decay or {}))


def _run(**values: Any) -> dict:
    if ("n" in values) == ("n_ladder" in values):
        raise ValueError("give exactly one of n or n_ladder")
    return values


_MODEL = {"r": Row(_number, required=True), "alpha": Row(_number, required=True)}
_RATES = {"k": Row(_family, required=True), "p": Row(_family, required=True), "q": Row(_family, required=True)}
_INITIAL = {
    "x0": Row(_number),
    "M": Row(_list(_number)),
    "decay": Row(_section({"b": Row(_number, required=True), "rho": Row(_number, required=True)}, dict)),
}
_RUN = {
    "n": Row(_order),
    "n_ladder": Row(_ladder),
    "t_end": Row(_positive, required=True),
}
_INTEGRATOR = {
    "method": Row(_text),
    "rel_tol": Row(_number),
    "abs_tol": Row(_number),
    "max_step": Row(_number),
    "negativity_floor": Row(_number),
}
_SCHEMA = {
    "schema_version": Row(_version),
    "model": Row(_lands_on("params", _section(_MODEL, ModelParams)), required=True),
    "rates": Row(_lands_on("families", _section(_RATES, lambda k, p, q: (k, p, q))), required=True),
    "initial": Row(_lands_on("initial", _section(_INITIAL, _initial)), required=True),
    "run": Row(_section(_RUN, _run), required=True),
    "integrator": Row(_lands_on("integrator", _section(_INTEGRATOR, IntegratorConfig))),
    "output": Row(_flat({"m_out": Row(_count), "wide_csv": Row(_boolean)})),
    "verify": Row(
        _flat({"residual_tol": Row(_tolerance), "sample_times": Row(_count), "differential_tol": Row(_tolerance)})
    ),
    "semigroup": Row(_flat({"pairs": Row(_list(_pair)), "tol": Row(_tolerance)})),
    "equilibrium": Row(_flat({"x_bracket": Row(_bracket), "tol": Row(_tolerance)})),
    "converge": Row(_flat({"final_gap_tol": Row(_tolerance)})),
}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated experiment: everything is realized before integration starts.

    Each default here is the one a config gets when it leaves the key out;
    section keys land on the fields named ``<section>_<key>``.
    """

    params: ModelParams
    families: Tuple[CoefficientFamily, CoefficientFamily, CoefficientFamily]
    initial: InitialData
    t_end: float
    n: Optional[int] = None
    n_ladder: Optional[Tuple[int, ...]] = None
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    output_m_out: int = 32
    output_wide_csv: bool = False
    verify_residual_tol: float = 1e-6
    verify_sample_times: int = 10
    verify_differential_tol: float = 1e-5
    semigroup_pairs: Tuple[Tuple[float, float], ...] = ((0.5, 0.5), (1.0, 2.0), (0.0, 3.0), (3.0, 0.0))
    semigroup_tol: float = 1e-7
    equilibrium_x_bracket: Optional[Tuple[float, float]] = None
    equilibrium_tol: float = 1e-12
    converge_final_gap_tol: Optional[float] = None
    raw: dict = field(default_factory=dict, repr=False)

    @cached_property
    def rates(self) -> RateTable:
        """The families realized once, at the run's largest order (a ladder's top rung).

        A failure names what failed: an order too large to allocate names
        ``run.n`` or ``run.n_ladder``, a table that is not finite
        ``rates.<k|p|q>``, a family that breaks its role ``rates``.
        """
        n, order = (self.n, "run.n") if self.n else (self.n_ladder[-1], "run.n_ladder")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return realize_coefficients(*self.families, n)
        except (MemoryError, ValueError) as exc:
            error = exc
        for name, family in zip("kpq", self.families):  # find the failure; a run that loads never comes here
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    finite = bool(np.all(np.isfinite(family.realize(n))))
            except (MemoryError, ValueError) as exc:  # numpy's answers to an array it cannot allocate
                raise ConfigError(order, f"truncation order {n} is too large: {exc}") from exc
            if not finite:
                raise ConfigError(f"rates.{name}", f"not finite at truncation order n = {n}")
        raise ConfigError("rates", str(error)) from error


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
    values = {}
    for fields in _fields(doc, "", _SCHEMA).values():
        values.update(fields)
    config = RunConfig(**values, raw=doc)
    config.rates  # realizes and checks the families now, so a bad table is a config error
    return config


def _write_csv(path: Path, header: Sequence[str], *columns: np.ndarray) -> None:
    """Write ``header`` and one line per row of ``columns`` side by side (1-D columns or 2-D blocks).

    Each field is the ``repr`` of its value: an integer column's digits, a
    float column's shortest round-trip decimal.  :mod:`silkin.csvtext` makes
    the text from row blocks of the arrays, never from Python numbers.
    """
    from . import csvtext  # imported here: a run that writes no CSV does not compile it

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        fh.writelines(csvtext.chunks(*columns))


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


def _build_system(config: RunConfig) -> Tuple[TruncatedSystem, State]:
    return TruncatedSystem(config.params, config.rates), config.initial.state(config.n)


def _write_trajectory(config: RunConfig, traj: Trajectory, out: Path) -> dict:
    rates = traj.sys.rates
    cohorts = min(config.output_m_out, rates.n + 1)
    header = ["t", "x", "M_total", "X_total", "U_total", "Q", "P"] + [f"M_{i}" for i in range(cohorts)]

    moments = np.array([compute_moments(row[0], row[1:], rates) for row in traj.phase])
    _write_csv(out / "trajectory.csv", header, traj.t, traj.phase[:, 0], moments, traj.phase[:, 1:cohorts + 1])
    artifacts = {"trajectory_csv": "trajectory.csv"}
    if config.output_wide_csv:
        wide_header = ["t", "x"] + [f"M_{i}" for i in range(rates.n + 1)]
        _write_csv(out / "trajectory_wide.csv", wide_header, traj.t, traj.phase)
        artifacts["trajectory_wide_csv"] = "trajectory_wide.csv"
    return artifacts


def _norm_bound_checks(traj: Trajectory) -> List[dict]:
    params = traj.sys.params
    norms = weighted_norm(traj.phase[:, 0], traj.phase[:, 1:].T)
    budget = norms[0] + (params.r + params.alpha) * (traj.t - traj.t_start)
    weights = np.arange(traj.sys.n + 1) + 1.0
    rows = max(1, 2 ** 14 // len(weights))  # a row block at a time, so the weighted copy stays small
    cohort_peaks = np.concatenate(  # largest term of each norm
        [np.max(traj.phase[a:a + rows, 1:] * weights, axis=1) for a in range(0, len(traj.phase), rows)]
    )
    floor = float(traj.cfg.floor)
    cone_ok = traj.pre_clamp_min >= floor and float(np.min(traj.phase)) >= 0.0
    return [
        _check("cone_nonnegative", "integrate", float(traj.pre_clamp_min), floor, cone_ok, comparison=">="),
        _bound_check("norm_growth_bound", "weighted_norm", float(np.max(norms - budget)), NORM_SLACK),
        _bound_check("cohort_bound", "weighted_norm", float(np.max(cohort_peaks - budget)), NORM_SLACK),
    ]


def _integrated_run(config: RunConfig, out: Path, balances: Sequence[Callable], flux_orders: Tuple[int, ...]):
    """Integrate ``run.n`` with the fluxes ``flux_orders``; write the trajectory; check the norms and ``balances``."""
    sys_, y0 = _build_system(config)
    traj = integrate(sys_, y0, config.t_end, config.integrator, flux_orders=flux_orders)
    artifacts = _write_trajectory(config, traj, out)
    checks = _norm_bound_checks(traj)
    times = np.linspace(traj.t_start, traj.t_end, config.verify_sample_times + 1)[1:]
    for fn in balances:
        worst = max(abs(fn(traj, t)) for t in times)
        checks.append(_bound_check(fn.__name__.removesuffix("_residual"), fn.__name__, worst, config.verify_residual_tol))
    meta = {
        "n": sys_.n,
        "t_end": config.t_end,
        "num_samples": traj.num_samples,
        "integrator": asdict(traj.stats),
    }
    return traj, checks, artifacts, meta


def _cmd_simulate(config: RunConfig, out: Path):
    _, checks, artifacts, meta = _integrated_run(config, out, [mass_balance_residual], ())
    return checks, artifacts, meta


def _cmd_verify(config: RunConfig, out: Path):
    balances = [mass_balance_residual, quartz_balance_residual, macrophage_balance_residual]
    traj, checks, artifacts, meta = _integrated_run(config, out, balances, (1,))  # F_1 for the tail identity
    rates = traj.sys.rates
    tol = config.verify_residual_tol

    power = MomentWeights.power(rates.n, 1.0 + rates.gamma)
    weight_sets = [("flat", MomentWeights.ones(rates.n)), ("linear", MomentWeights.linear(rates.n)), ("power", power)]
    for label, w in weight_sets:
        value = abs(moment_identity_residual(traj, w, 1, traj.t_start, traj.t_end))
        checks.append(_bound_check(f"moment_identity_{label}", "moment_identity_residual", value, tol))

    gron = gronwall_check(traj, power)
    checks.append(
        _check("gronwall_envelope", "gronwall_check", gron.margin, 0.0, gron.ok and gron.margin >= 0.0, comparison=">=")
    )
    inv = invariance_check(traj, rates.gamma)
    checks.append(
        _check("invariance_envelope", "invariance_check", inv.margin, 0.0, inv.ok and inv.margin >= 0.0, comparison=">=")
    )

    grid = traj.t_start + traj.duration * np.linspace(0.1, 0.9, 9)
    defect = differential_form_check(traj, grid)
    checks.append(_bound_check("differential_form", "differential_form_check", defect, config.verify_differential_tol))

    meta["gronwall"] = {
        "c1_used": gron.c1_used,
        "c1_apriori": gron.c1_apriori,
        "c1_fitted": gron.c1_fitted,
        "c2": gron.c2,
        "growth_constant": gron.growth_constant,
    }
    meta["invariance_max_norm"] = inv.max_norm
    return checks, artifacts, meta


def _cmd_converge(config: RunConfig, out: Path):
    report = convergence_study(
        config.params,
        config.families,
        config.initial,
        config.n_ladder,
        config.t_end,
        config.integrator,
        rates=config.rates,
    )
    ladder = np.array(report.n_ladder)
    header = ["n_low", "n_high", "gap", "x_gap"]
    _write_csv(out / "gaps.csv", header, ladder[:-1], ladder[1:], report.gaps, report.x_gaps)
    checks = [
        _check("gaps_decreasing", "convergence_study", bool(report.decreasing), True, report.decreasing, comparison="==")
    ]
    if config.converge_final_gap_tol is not None:
        checks.append(
            _bound_check("final_gap", "convergence_study", float(report.gaps[-1]), config.converge_final_gap_tol)
        )
    meta = {
        "n_ladder": list(report.n_ladder),
        "gaps": [float(g) for g in report.gaps],
        "integrator": [asdict(s) for s in report.stats],
    }
    return checks, {"gaps_csv": "gaps.csv"}, meta


def _cmd_equilibrium(config: RunConfig, out: Path):
    sys_, _ = _build_system(config)
    result = find_equilibrium(sys_, config.equilibrium_x_bracket, tol=config.equilibrium_tol)
    _write_csv(out / "equilibrium.csv", ["i", "M_i"], np.arange(len(result.M_star)), result.M_star)
    checks = [
        _bound_check("equilibrium_residual", "find_equilibrium", result.residual, config.equilibrium_tol)
    ]
    eq_state = State(t=0.0, x=result.x_star, M=result.M_star)
    # The drift's error scales with the run's tolerances, so they are no looser than equilibrium.tol.
    tol, cfg = max(config.equilibrium_tol, DRIFT_TOL_FLOOR), config.integrator
    cfg = replace(cfg, rel_tol=min(cfg.rel_tol, tol), abs_tol=min(cfg.abs_tol, tol))
    drifted = integrate(sys_, eq_state, 1.0, cfg).final_state
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
    sys_, y0 = _build_system(config)
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
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def run(command: str, config_path: str, out_dir: str) -> int:
    """Execute one subcommand; returns the process exit code."""
    if command not in _DISPATCH:
        raise ConfigError("command", f"unknown command {command!r}")
    config = load_config(config_path)
    needs_ladder = command == "converge"
    if needs_ladder and config.n_ladder is None:
        raise ConfigError("run.n_ladder", "converge needs a truncation ladder")
    if not needs_ladder and config.n is None:
        raise ConfigError("run.n", f"{command} needs a single truncation order n")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    checks, artifacts, meta = _DISPATCH[command](config, out)
    passed = all(c["passed"] for c in checks)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
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
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    try:
        # A value that leaves double precision (inputs near 1e308) aborts the run instead of
        # printing numpy warnings and carrying inf or nan on; scoped errstate calls still ignore it.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run(args.command, args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, NoBracket, DegenerateDenominator, FloatingPointError, MemoryError) as exc:
        print(f"numerical abort: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
