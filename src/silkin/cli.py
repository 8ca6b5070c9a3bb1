"""Command line interface: YAML experiment configs in, CSV and JSON artifacts out.

Subcommands
-----------
``simulate``     integrate one truncation and dump the trajectory
``verify``       integrate and evaluate the full residual/envelope battery
``converge``     run a truncation ladder and report sup-norm gaps
``equilibrium``  locate a steady state of the truncated system
``semigroup``    restart-consistency residuals at fixed (t, s) pairs

Every summary check names the residual operation that produced it, so a
failing line is traceable to one function.  Each command reports a fixed set
of checks, and each threshold is a module constant (``RESIDUAL_TOL`` and its
neighbours), never a config key: a threshold is a bug detector, so no run
loosens one or drops a check.  The pipeline is deterministic:
identical configs produce byte-identical CSV output.  Every CSV field is the
``repr`` of its value, made by :mod:`silkin.csvtext` from row blocks of the
result arrays.  The output directory is ``--out``; one that cannot be made,
or an artifact in it that cannot be written, is a :class:`ConfigError` on
``--out``.

Configs are read by one declarative schema, ``_SCHEMA``: each YAML key has
one :class:`Row` naming its reader and whether it is required.  A key is
given or left out; ``null`` is no key's value, and the subcommand is named
only on the command line.  Unknown keys, ``null`` and non-finite numbers
raise :class:`ConfigError` with the field path, and so does a coefficient
family whose table is not finite, or cannot be allocated, at the run's own
truncation order (the largest rung for ``converge``).  That table is
realized once, as :attr:`RunConfig.rates`.  A run at one order
reuses it; ``converge`` realizes the table of each rung.  An absent key takes
the default of the dataclass that receives the value (:class:`RunConfig`,
``IntegratorConfig``, ``CoefficientFamily``, ``InitialData``); the loader
states none.  ``simulate`` and ``verify`` share one body that integrates,
writes the trajectory and checks the balances.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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

BALANCE_TIMES = 10
"""How many evenly spaced times after the start each balance is checked at (the last is ``t_end``)."""

RESIDUAL_TOL = 1e-6
"""How far each balance and each moment identity may miss zero."""

DIFFERENTIAL_TOL = 1e-5
"""How far the dense output's time derivative may stray from the vector field."""

SEMIGROUP_PAIRS = ((0.5, 0.5), (1.0, 2.0), (0.0, 3.0), (3.0, 0.0))
"""The ``(t, s)`` splits whose restart consistency ``semigroup`` checks."""

SEMIGROUP_TOL = 1e-7
"""How far ``phi_s(phi_t(y0))`` may stray from ``phi_{t+s}(y0)``."""

EQUILIBRIUM_TOL = 1e-12
"""The root search's stop, the equilibrium residual's threshold and the cap on the drift run's tolerances."""

DRIFT_TOL = 1e-8
"""How far the equilibrium may drift, in the total-matter norm, over one time unit."""

FINAL_GAP_TOL = 1e-6
"""How large the gap between the top two rungs of a ladder may be."""


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
_nonnegative = _checked(_number, lambda v: v >= 0.0, "a finite number >= 0")
_positive = _checked(_number, lambda v: v > 0.0, "a finite number > 0")
_bracket = _checked(_list(_nonnegative), lambda v: len(v) == 2 and v[0] < v[1], "[lo, hi] with lo < hi")
_ladder = _checked(
    _list(_order),
    lambda v: len(v) >= 2 and all(a < b for a, b in zip(v, v[1:])),
    "a strictly increasing list of at least two integers",
)


def _version(value: Any, path: str) -> dict:
    if value != SCHEMA_VERSION:
        raise ConfigError(path, f"unsupported version {value!r} (expected {SCHEMA_VERSION})")
    return {}


def _kind(kind: str) -> Row:
    """A family's ``kind`` row: ``_family`` has checked the key already, so the row only names the kind built."""
    return Row(lambda value, path: kind)


_FAMILY_ROWS = {
    "power_law": {"kind": _kind("power_law"), "amplitude": Row(_number, required=True), "exponent": Row(_number)},
    # the power law of exponent 0, which takes no exponent key
    "constant": {"kind": _kind("power_law"), "amplitude": Row(_number, required=True)},
    "table": {"kind": _kind("table"), "values": Row(_list(_number), required=True)},
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
    "equilibrium": Row(_flat({"x_bracket": Row(_bracket)})),
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
    equilibrium_x_bracket: Optional[Tuple[float, float]] = None
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:  # its message spans lines; stderr gets one
        raise ConfigError(str(path), f"invalid YAML: {' '.join(str(exc).split())}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top level must be a mapping")
    values = {}
    for fields in _fields(doc, "", _SCHEMA).values():
        values.update(fields)
    config = RunConfig(**values, raw=doc)
    config.rates  # realizes and checks the families now, so a bad table is a config error
    return config


def _write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the artifact ``path`` from ``chunks``; one that cannot be written is an ``--out`` error."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {path.name}: {exc}") from exc


def _write_csv(path: Path, header: Sequence[str], *columns: np.ndarray) -> Dict[str, str]:
    """Write ``header`` and one line per row of ``columns`` side by side (1-D columns or 2-D blocks).

    Each field is the ``repr`` of its value: an integer column's digits, a
    float column's shortest round-trip decimal.  :mod:`silkin.csvtext` makes
    the text from row blocks of the arrays, never from Python numbers.
    Returns the file's ``artifacts`` entry: its name with ``.`` as ``_``,
    mapped to the name.
    """
    from . import csvtext  # imported here: a run that writes no CSV does not compile it

    _write(path, chain([(",".join(header) + "\n").encode("ascii")], csvtext.chunks(*columns)))
    return {path.name.replace(".", "_"): path.name}


def _report(result: Any, *omitted: str) -> dict:
    """A library result's ``metadata`` block: the dataclass ``result``'s own fields, less ``omitted``."""
    return {key: value for key, value in asdict(result).items() if key not in omitted}


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

    moments = compute_moments(traj.phase, rates)
    artifacts = _write_csv(out / "trajectory.csv", header, traj.t, traj.phase[:, 0], moments, traj.phase[:, 1:cohorts + 1])
    if config.output_wide_csv:
        wide_header = ["t", "x"] + [f"M_{i}" for i in range(rates.n + 1)]
        artifacts.update(_write_csv(out / "trajectory_wide.csv", wide_header, traj.t, traj.phase))
    return artifacts


def _norm_bound_checks(traj: Trajectory) -> List[dict]:
    params = traj.sys.params
    norms = weighted_norm(traj.phase[:, 0], traj.phase[:, 1:].T)
    budget = norms[0] + (params.r + params.alpha) * (traj.t - traj.t_start)
    cohort_peaks = np.max(traj.phase[:, 1:] * (np.arange(traj.sys.n + 1) + 1.0), axis=1)  # largest term of each norm
    floor = float(traj.cfg.floor)
    cone_ok = traj.pre_clamp_min >= floor and float(np.min(traj.phase)) >= 0.0
    return [
        _check("cone_nonnegative", "integrate", float(traj.pre_clamp_min), floor, cone_ok, comparison=">="),
        _bound_check("norm_growth_bound", "weighted_norm", float(np.max(norms - budget)), NORM_SLACK),
        _bound_check("cohort_bound", "weighted_norm", float(np.max(cohort_peaks - budget)), NORM_SLACK),
    ]


def _integrated_run(config: RunConfig, out: Path, balances: Sequence[Callable]):
    """Integrate ``run.n``; write the trajectory; check the norms and ``balances``."""
    sys_, y0 = _build_system(config)
    traj = integrate(sys_, y0, config.t_end, config.integrator)
    artifacts = _write_trajectory(config, traj, out)
    checks = _norm_bound_checks(traj)
    times = np.linspace(traj.t_start, traj.t_end, BALANCE_TIMES + 1)[1:]
    for fn in balances:
        worst = max(abs(fn(traj, t)) for t in times)
        checks.append(_bound_check(fn.__name__.removesuffix("_residual"), fn.__name__, worst, RESIDUAL_TOL))
    meta = {
        "n": sys_.n,
        "t_end": config.t_end,
        "num_samples": traj.num_samples,
        "integrator": asdict(traj.stats),
    }
    return traj, checks, artifacts, meta


def _cmd_simulate(config: RunConfig, out: Path):
    _, checks, artifacts, meta = _integrated_run(config, out, [mass_balance_residual])
    return checks, artifacts, meta


def _cmd_verify(config: RunConfig, out: Path):
    balances = [mass_balance_residual, quartz_balance_residual, macrophage_balance_residual]
    traj, checks, artifacts, meta = _integrated_run(config, out, balances)
    rates = traj.sys.rates

    power = MomentWeights.power(rates.n, 1.0 + rates.gamma)
    weight_sets = [("flat", MomentWeights.ones(rates.n)), ("linear", MomentWeights.linear(rates.n)), ("power", power)]
    for label, w in weight_sets:
        value = abs(moment_identity_residual(traj, w, 1, traj.t_start, traj.t_end))
        checks.append(_bound_check(f"moment_identity_{label}", "moment_identity_residual", value, RESIDUAL_TOL))

    gron = gronwall_check(traj, power)
    checks.append(_check("gronwall_envelope", "gronwall_check", gron.margin, 0.0, gron.ok, comparison=">="))
    inv = invariance_check(traj, rates.gamma)
    checks.append(_check("invariance_envelope", "invariance_check", inv.margin, 0.0, inv.ok, comparison=">="))

    grid = traj.t_start + traj.duration * np.linspace(0.1, 0.9, 9)
    defect = differential_form_check(traj, grid)
    checks.append(_bound_check("differential_form", "differential_form_check", defect, DIFFERENTIAL_TOL))

    meta["gronwall"] = _report(gron, "ok", "margin")  # the gronwall_envelope check reports those two
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
    )
    ladder = np.array(config.n_ladder)
    header = ["n_low", "n_high", "gap", "x_gap"]
    artifacts = _write_csv(out / "gaps.csv", header, ladder[:-1], ladder[1:], report.gaps, report.x_gaps)
    checks = [
        _check("gaps_decreasing", "convergence_study", bool(report.decreasing), True, report.decreasing, comparison="=="),
        _bound_check("final_gap", "convergence_study", float(report.gaps[-1]), FINAL_GAP_TOL),
    ]
    meta = {
        "n_ladder": list(config.n_ladder),
        "gaps": [float(g) for g in report.gaps],
        "integrator": [asdict(s) for s in report.stats],
    }
    return checks, artifacts, meta


def _cmd_equilibrium(config: RunConfig, out: Path):
    sys_, _ = _build_system(config)
    result = find_equilibrium(sys_, config.equilibrium_x_bracket, tol=EQUILIBRIUM_TOL)
    artifacts = _write_csv(out / "equilibrium.csv", ["i", "M_i"], np.arange(len(result.M_star)), result.M_star)
    eq_state = State(t=0.0, x=result.x_star, M=result.M_star)
    # The drift's error scales with the run's tolerances, so they are no looser than EQUILIBRIUM_TOL.
    cfg = config.integrator
    cfg = replace(cfg, rel_tol=min(cfg.rel_tol, EQUILIBRIUM_TOL), abs_tol=min(cfg.abs_tol, EQUILIBRIUM_TOL))
    drifted = integrate(sys_, eq_state, 1.0, cfg).final_state
    drift = weighted_norm(drifted.x - eq_state.x, drifted.M - eq_state.M, 1.0)
    checks = [
        _bound_check("equilibrium_residual", "find_equilibrium", result.residual, EQUILIBRIUM_TOL),
        _bound_check("equilibrium_fixed_point", "integrate", drift, DRIFT_TOL),
    ]
    meta = {**_report(result, "M_star"), "n": sys_.n}  # equilibrium.csv holds M_star
    return checks, artifacts, meta


def _cmd_semigroup(config: RunConfig, out: Path):
    sys_, y0 = _build_system(config)
    checks = []
    values = []
    for t, s in SEMIGROUP_PAIRS:
        value = semigroup_residual(sys_, y0, t, s, config.integrator)
        values.append({"t": t, "s": s, "residual": value})
        checks.append(_bound_check(f"semigroup_t{t}_s{s}", "semigroup_residual", value, SEMIGROUP_TOL))
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
    config = load_config(config_path)
    needs_ladder = command == "converge"
    if needs_ladder and config.n_ladder is None:
        raise ConfigError("run.n_ladder", "converge needs a truncation ladder")
    if not needs_ladder and config.n is None:
        raise ConfigError("run.n", f"{command} needs a single truncation order n")

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        raise ConfigError("--out", f"cannot make the output directory: {exc}") from exc

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
    _write(summary_path, [(json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8")])

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
