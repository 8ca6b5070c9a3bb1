import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from silkin import CoefficientFamily, InitialData, IntegratorConfig, cli, integrator

ROOT = Path(__file__).resolve().parent.parent


def write_config(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def decay_doc():
    return {
        "model": {"r": 0.0, "alpha": 0.0},
        "rates": {
            "k": {"kind": "constant", "amplitude": 0.0},
            "p": {"kind": "constant", "amplitude": 0.6},
            "q": {"kind": "constant", "amplitude": 0.4},
        },
        "initial": {"x0": 0.0, "M": [1.0, 0.0, 0.0, 0.0, 0.0]},
        "run": {"n": 4, "t_end": 1.0},
    }


def coupled_doc(n=12, t_end=3.0):
    return {
        "model": {"r": 0.4, "alpha": 0.3},
        "rates": {
            "k": {"kind": "power_law", "amplitude": 1.0, "exponent": 0.5},
            "p": {"kind": "constant", "amplitude": 0.7},
            "q": {"kind": "power_law", "amplitude": 0.5, "exponent": 1.0},
        },
        "initial": {"x0": 1.0, "decay": {"b": 1.0, "rho": 0.5}},
        "run": {"n": n, "t_end": t_end},
    }


def read_summary(out_dir):
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_simulate_decay_matches_exponential(tmp_path):
    cfg = write_config(tmp_path / "decay.yaml", decay_doc())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["t", "x", "M_total", "X_total", "U_total", "Q", "P"]
    i_t = header.index("t")
    i_m0 = header.index("M_0")
    for line in lines[1:]:
        cells = line.split(",")
        t = float(cells[i_t])
        assert float(cells[i_m0]) == pytest.approx(math.exp(-t), rel=1e-7, abs=1e-10)
    summary = read_summary(out)
    assert summary["passed"] is True
    assert summary["schema_version"] == 1


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", coupled_doc())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


def test_verify_zero_model(tmp_path):
    doc = decay_doc()
    doc["rates"]["p"]["amplitude"] = 0.0
    doc["rates"]["q"]["amplitude"] = 0.0
    doc["initial"]["M"] = [0.0, 0.0, 0.0, 0.0, 0.0]
    cfg = write_config(tmp_path / "zero.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["passed"] is True
    residual_checks = [
        c for c in summary["checks"] if c["operation"].endswith("_residual")
    ]
    assert residual_checks
    assert all(c["value"] == 0.0 for c in residual_checks)


def test_verify_coupled_model_all_checks_named(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", coupled_doc())
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    names = {c["name"] for c in summary["checks"]}
    assert {
        "mass_balance",
        "quartz_balance",
        "macrophage_balance",
        "moment_identity_flat",
        "moment_identity_linear",
        "moment_identity_power",
        "gronwall_envelope",
        "invariance_envelope",
        "differential_form",
        "norm_growth_bound",
        "cohort_bound",
        "cone_nonnegative",
    } <= names
    # every check names the operation that produced it
    assert all(c["operation"] for c in summary["checks"])
    assert "gronwall" in summary["metadata"]


def test_converge_command(tmp_path):
    doc = {
        "model": {"r": 0.0, "alpha": 0.0},
        "rates": {
            "k": {"kind": "constant", "amplitude": 1.0},
            "p": {"kind": "constant", "amplitude": 1.0},
            "q": {"kind": "constant", "amplitude": 0.0},
        },
        "initial": {"x0": 1.0, "M": [1.0]},
        "run": {"n_ladder": [4, 6, 8, 10], "t_end": 1.0},
        "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-15},
    }
    cfg = write_config(tmp_path / "ladder.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "gaps.csv").read_text().splitlines()
    assert lines[0] == "n_low,n_high,gap,x_gap"
    assert len(lines) == 4
    gaps = [float(line.split(",")[2]) for line in lines[1:]]
    assert gaps == sorted(gaps, reverse=True)


def test_equilibrium_command(tmp_path):
    doc = {
        "model": {"r": 1.0, "alpha": 1.0},
        "rates": {
            "k": {"kind": "constant", "amplitude": 1.0},
            "p": {"kind": "constant", "amplitude": 1.0},
            "q": {"kind": "constant", "amplitude": 0.0},
        },
        "initial": {"x0": 0.0, "M": [0.0]},
        "run": {"n": 64, "t_end": 1.0},
    }
    cfg = write_config(tmp_path / "eq.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["metadata"]["x_star"] == pytest.approx(1.0, abs=1e-8)
    rows = (out / "equilibrium.csv").read_text().splitlines()
    assert rows[0] == "i,M_i"
    assert float(rows[1].split(",")[1]) == pytest.approx(0.5, abs=1e-9)


def test_semigroup_command(tmp_path):
    doc = coupled_doc(n=8, t_end=3.0)
    doc["integrator"] = {"rel_tol": 1e-11, "abs_tol": 1e-14}
    doc["semigroup"] = {"pairs": [[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]], "tol": 1e-8}
    cfg = write_config(tmp_path / "semi.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    by_pair = {(p["t"], p["s"]): p["residual"] for p in summary["metadata"]["pairs"]}
    assert by_pair[(0.0, 1.0)] == 0.0
    assert by_pair[(1.0, 0.0)] == 0.0


def test_config_error_missing_field(tmp_path, capsys):
    doc = decay_doc()
    del doc["model"]["r"]
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "model.r" in capsys.readouterr().err


def test_config_error_unknown_kind(tmp_path, capsys):
    doc = decay_doc()
    doc["rates"]["k"]["kind"] = "quadratic"
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "rates.k" in capsys.readouterr().err


def test_config_error_command_mismatch(tmp_path):
    doc = decay_doc()
    doc["command"] = "verify"
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_config_error_needs_single_n_or_ladder(tmp_path):
    doc = decay_doc()
    doc["run"] = {"n": 4, "n_ladder": [4, 8], "t_end": 1.0}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    doc["run"] = {"n": 4, "t_end": 1.0}
    cfg = write_config(tmp_path / "bad2.yaml", doc)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command,section,field,value",
    [("simulate", "output", "m_out", "abc"), ("verify", "verify", "sample_times", 0)],
)
def test_config_error_positive_integers(tmp_path, capsys, command, section, field, value):
    doc = decay_doc()
    doc[section] = {field: value}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{field}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("ladder", [[16, 8], [8, 8, 16], [1, 4], [8], []])
def test_config_error_bad_ladder(tmp_path, capsys, ladder):
    # a decreasing, repeated, too-small or too-short ladder is a config error, not a traceback
    doc = decay_doc()
    doc["run"] = {"n_ladder": ladder, "t_end": 1.0}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "run.n_ladder" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["no", "yes", 1, 0, None])
def test_config_error_wide_csv_must_be_boolean(tmp_path, capsys, value):
    doc = decay_doc()
    doc["output"] = {"wide_csv": value}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "output.wide_csv" in capsys.readouterr().err
    assert not (out / "trajectory_wide.csv").exists()


@pytest.mark.parametrize("pairs", [[1, "a"], [[1.0]], [[-1.0, 2.0]], [[1, 2, 3]]])
def test_config_error_bad_semigroup_pairs(tmp_path, capsys, pairs):
    # a non-list, short, negative or long pair is a config error, not a traceback or a truncation
    doc = coupled_doc(n=4, t_end=1.0)
    doc["semigroup"] = {"pairs": pairs}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["semigroup", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "semigroup.pairs[" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bracket", [[2.0, 1.0], [-1.0, 2.0], [1.0], "abc"])
def test_config_error_bad_equilibrium_bracket(tmp_path, capsys, bracket):
    # a reversed, negative, short or non-list bracket is a config error, not a traceback
    doc = decay_doc()
    doc["equilibrium"] = {"x_bracket": bracket}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "equilibrium.x_bracket" in err
    assert len(err.strip().splitlines()) == 1


def _with(doc, path, value):
    """``doc`` with ``value`` at the dotted ``path``, sections created on the way."""
    *sections, key = path.split(".")
    node = doc
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


@pytest.mark.parametrize(
    "command,path,value",
    [
        ("simulate", "run.t_end", math.nan),
        ("simulate", "run.t_end", math.inf),
        pytest.param("simulate", "initial.x0", 10**400, id="simulate-initial.x0-10**400"),
        ("simulate", "integrator.max_step", math.inf),
        ("simulate", "integrator.negativity_floor", math.nan),
        ("verify", "verify.residual_tol", -1e-6),
        ("verify", "verify.differential_tol", -1e-5),
        ("semigroup", "semigroup.tol", math.nan),
        ("equilibrium", "equilibrium.tol", -1.0),
        ("converge", "converge.final_gap_tol", -1.0),
        ("simulate", "output", 0),
        ("verify", "verify", []),
        ("simulate", "integrator", None),
        ("semigroup", "semigroup.pairs", None),
        ("simulate", "verfy", {}),
        ("verify", "verify.residual_tl", 1e-30),
        ("simulate", "model.gamma", 0.5),
        ("simulate", "rates.k.exponent", 0.5),
        # finite at n = 2, infinite at the run's n = 4 or at the ladder's top rung 8
        ("simulate", "rates.k", {"kind": "power_law", "amplitude": 5.0e307, "exponent": 1.0}),
        ("converge", "rates.q", {"kind": "power_law", "amplitude": 3.0e307, "exponent": 1.0}),
    ],
)
def test_config_error_rejected_fields(tmp_path, capsys, command, path, value):
    # non-finite numbers, negative tolerances, non-mapping or null sections and unknown keys
    # (a constant family takes no exponent) are config errors naming the field
    doc = decay_doc()
    if command == "converge":
        doc["run"] = {"n_ladder": [4, 8], "t_end": 1.0}
    cfg = write_config(tmp_path / "bad.yaml", _with(doc, path, value))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("family,exponent", [("k", 2.0), ("p", 1.0)])
def test_config_error_role_constraints(tmp_path, capsys, family, exponent):
    # k may grow at most linearly and p must stay bounded: caught on load, not as a traceback
    doc = coupled_doc(n=4, t_end=1.0)
    doc["rates"][family] = {"kind": "power_law", "amplitude": 1.0, "exponent": exponent}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rates: ")
    assert len(err.strip().splitlines()) == 1


def test_config_defaults_live_on_dataclasses(tmp_path):
    doc = {
        "model": {"r": 0.4, "alpha": 0.3},
        "rates": {
            "k": {"kind": "power_law", "amplitude": 1.0},
            "p": {"kind": "constant", "amplitude": 0.7},
            "q": {"kind": "table", "values": [0.5]},
        },
        "initial": {"M": [1.0]},
        "run": {"n": 4, "t_end": 1.0},
    }
    config = cli.load_config(write_config(tmp_path / "min.yaml", doc))
    assert config.integrator == IntegratorConfig()
    assert config.families == (
        CoefficientFamily(kind="power_law", amplitude=1.0),
        CoefficientFamily(kind="constant", amplitude=0.7),
        CoefficientFamily(kind="table", values=(0.5,)),
    )
    assert config.initial == InitialData(M=(1.0,))
    given = {"params", "families", "initial", "t_end", "n", "raw"}
    for f in dataclasses.fields(cli.RunConfig):
        if f.name not in given:
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            assert getattr(config, f.name) == default, f.name

    # null stands for an absent key wherever it is accepted
    nulls = copy.deepcopy(doc)
    nulls.update(
        command=None,
        integrator={"max_step": None, "negativity_floor": None},
        equilibrium={"x_bracket": None},
        converge={"final_gap_tol": None},
    )
    nulls["initial"]["decay"] = None
    nulls["run"]["n_ladder"] = None
    with_nulls = cli.load_config(write_config(tmp_path / "nulls.yaml", nulls))
    assert dataclasses.replace(with_nulls, raw={}) == dataclasses.replace(config, raw={})
    decay = _with(_with(copy.deepcopy(doc), "initial", {"decay": {"b": 1.0, "rho": 0.5}}), "initial.M", None)
    assert cli.load_config(write_config(tmp_path / "decay.yaml", decay)).initial == InitialData(b=1.0, rho=0.5)


def test_write_csv_fields_are_exact_reprs(tmp_path):
    subnormal = 2.5e-310
    floats = np.array([0.0, -0.0, 5e-324, subnormal, 1e-5, 1e16, 1.0 / 3.0])
    row = [3, -7, 0.1] + floats.tolist()
    path = tmp_path / "row.csv"
    cli._write_csv(path, ["c"] * len(row), [row])
    fields = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert fields == [str(3), str(-7), repr(0.1)] + [repr(float(v)) for v in floats]
    # every field parses back to the value written
    assert [float(f) for f in fields[2:]] == [0.1] + list(floats)


def test_integrator_stats_in_summary(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", coupled_doc(n=6, t_end=1.0))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    stats = summary["metadata"]["integrator"]
    assert set(stats) == {"steps", "nfev", "njev", "nlu"}
    assert stats["steps"] == summary["metadata"]["num_samples"] - 1


def test_check_failure_exit_code(tmp_path):
    # an absurdly tight residual tolerance turns a healthy run into a failure
    doc = coupled_doc()
    doc["verify"] = {"residual_tol": 1e-18}
    cfg = write_config(tmp_path / "strict.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1
    summary = read_summary(out)
    assert summary["passed"] is False
    assert any(not c["passed"] for c in summary["checks"])


def test_converge_final_gap_threshold(tmp_path):
    doc = {
        "model": {"r": 0.0, "alpha": 0.0},
        "rates": {
            "k": {"kind": "constant", "amplitude": 1.0},
            "p": {"kind": "constant", "amplitude": 1.0},
            "q": {"kind": "constant", "amplitude": 0.0},
        },
        "initial": {"x0": 1.0, "M": [1.0]},
        "run": {"n_ladder": [4, 6, 8, 10], "t_end": 1.0},
        "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-15},
        "converge": {"final_gap_tol": 1e-30},
    }
    cfg = write_config(tmp_path / "ladder.yaml", doc)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_numerical_abort_exit_code(tmp_path, capsys):
    doc = {
        "model": {"r": 1.0, "alpha": 1.0},
        "rates": {
            "k": {"kind": "constant", "amplitude": 1.0},
            "p": {"kind": "constant", "amplitude": 0.0},
            "q": {"kind": "constant", "amplitude": 1.0},
        },
        "initial": {"x0": 0.0, "M": [0.0]},
        "run": {"n": 8, "t_end": 1.0},
    }
    cfg = write_config(tmp_path / "nb.yaml", doc)
    assert cli.main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "NoBracket" in capsys.readouterr().err


def test_equilibrium_no_convergence_exit_code(tmp_path, capsys):
    doc = {
        "model": {"r": 1.0, "alpha": 1.0},
        "rates": {
            "k": {"kind": "constant", "amplitude": 1.0},
            "p": {"kind": "constant", "amplitude": 1.0},
            "q": {"kind": "constant", "amplitude": 0.3},
        },
        "initial": {"x0": 0.0, "M": [0.0]},
        "run": {"n": 64, "t_end": 1.0},
        "equilibrium": {"tol": 0.0},
    }
    cfg = write_config(tmp_path / "nc.yaml", doc)
    assert cli.main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "NoConvergence" in err
    assert len(err.strip().splitlines()) == 1


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "run.yaml", decay_doc())
    override = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(override))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "ignored")]) == 0
    assert (override / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_recorded(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", decay_doc())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert read_summary(out)["seed"] == 7


def test_wide_csv_on_request(tmp_path):
    doc = coupled_doc(n=6, t_end=1.0)
    doc["output"] = {"m_out": 3, "wide_csv": True}
    cfg = write_config(tmp_path / "run.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    narrow_header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
    assert narrow_header[-1] == "M_2"
    wide_header = (out / "trajectory_wide.csv").read_text().splitlines()[0].split(",")
    assert wide_header == ["t", "x"] + [f"M_{i}" for i in range(7)]


def test_step_budget_ends_a_huge_t_end(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 1000)
    doc = yaml.safe_load((ROOT / "configs" / "decay_oracle.yaml").read_text(encoding="utf-8"))
    doc["run"]["t_end"] = 1.0e308
    cfg = write_config(tmp_path / "huge.yaml", doc)
    start = time.monotonic()
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert time.monotonic() - start < 20.0
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: StepBudgetExceeded: 1000 accepted steps reached t=")
    assert len(err.strip().splitlines()) == 1


SCIPY_PROBE = """
import sys
from silkin import cli
code = cli.main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.startswith("scipy"))[:3])
"""


@pytest.mark.parametrize(
    "command,config,scipy_used",
    [("simulate", "decay_oracle", False), ("equilibrium", "equilibrium_chain", False), ("simulate", "bdf", True)],
)
def test_scipy_imported_only_for_bdf(tmp_path, command, config, scipy_used):
    # RK45, the equilibrium solve and config loading run without scipy; BDF imports it on use
    path = ROOT / "configs" / f"{config}.yaml"
    if config == "bdf":
        doc = coupled_doc(n=8, t_end=1.0)
        doc["integrator"] = {"method": "bdf"}
        path = write_config(tmp_path / "bdf.yaml", doc)
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, command, "--config", str(path), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    code, modules = done.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0", done.stderr
    assert (modules != "[]") == scipy_used
