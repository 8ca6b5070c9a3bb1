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

from silkin import (
    CoefficientFamily,
    EquilibriumResult,
    GronwallReport,
    InitialData,
    IntegratorConfig,
    State,
    analysis,
    cli,
    integrator,
)

from oracles import repr_lines, row_moments

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


@pytest.mark.parametrize("t_end", [1e-4, 1e-9, 1e-12, 1e-300])
def test_verify_on_a_very_short_run_writes_every_check(tmp_path, capsys, t_end):
    for method in ("rk45", "bdf"):
        doc = coupled_doc(n=8, t_end=t_end)
        doc["integrator"] = {"method": method}
        cfg = write_config(tmp_path / f"short_{method}.yaml", doc)
        out = tmp_path / method
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        assert "Traceback" not in "".join(capsys.readouterr())
        assert len(read_summary(out)["checks"]) == 12


@pytest.mark.parametrize("t_end", [5e-324, 1e-300])
@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_verify_power_law_at_a_subnormal_or_tiny_t_end_ends_with_its_checks(tmp_path, capsys, method, t_end):
    # the BDF dense derivative takes no reciprocal of the step, so a 5e-324 step no longer overflows.
    # At that step the difference array holds f * h rounded to multiples of 5e-324, so the BDF
    # polynomial's derivative is not the field's: only differential_form fails, and says so (exit 1).
    doc = yaml.safe_load((ROOT / "configs" / "verify_power_law.yaml").read_text(encoding="utf-8"))
    doc["run"]["t_end"] = t_end
    doc["integrator"] = dict(doc.get("integrator") or {}, method=method)
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", write_config(tmp_path / "tiny.yaml", doc), "--out", str(out)])
    assert "Traceback" not in "".join(capsys.readouterr())
    failed = [c["name"] for c in read_summary(out)["checks"] if not c["passed"]]
    if method == "bdf" and t_end == 5e-324:
        assert (code, failed) == (cli.EXIT_CHECK_FAILED, ["differential_form"])
    else:
        assert (code, failed) == (cli.EXIT_OK, [])


def test_verify_with_a_tiny_growth_constant_reports_an_infinite_apriori_constant(tmp_path):
    doc = coupled_doc(n=8, t_end=1.0)
    doc["rates"]["k"]["amplitude"] = 1e-300
    cfg = write_config(tmp_path / "tiny_k.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert read_summary(out)["metadata"]["gronwall"]["c1_apriori"] == "inf"


def test_verify_builds_only_the_initial_state(tmp_path, monkeypatch):
    # the battery reads phase rows; the initial data is the one State of the run
    built = []
    post_init = State.__post_init__

    def counting(self):
        built.append(self.t)
        post_init(self)

    monkeypatch.setattr(State, "__post_init__", counting)
    config = str(ROOT / "configs" / "verify_power_law.yaml")
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert built == [0.0]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_each_command_integrates_the_phase_and_two_balance_integrals(tmp_path, monkeypatch, command):
    # the state carries only what a check reads: the phase, A1 and A2; verify's tail identity reads
    # its boundary flux from the step integrals
    widths = []

    def recording(sys_, y0, t_end, cfg=None):
        traj = integrator.integrate(sys_, y0, t_end, cfg)
        widths.append(traj.accumulators.shape[1])
        return traj

    monkeypatch.setattr(cli, "integrate", recording)
    cfg = write_config(tmp_path / "run.yaml", coupled_doc())
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert widths == [2]


@pytest.mark.parametrize(
    "command,config",
    [
        ("simulate", "decay_oracle"),
        ("verify", "verify_power_law"),
        ("semigroup", "semigroup"),
        ("equilibrium", "equilibrium_chain"),
        ("converge", "ladder"),
    ],
)
def test_each_family_is_realized_once_per_load(tmp_path, monkeypatch, command, config):
    # the load keeps the rate table it checked, and a run at one order reuses it; converge
    # realizes the families again at each rung, so ladder.yaml makes 3 x (1 + 5) calls
    orders = []
    realize = CoefficientFamily.realize

    def counting(self, n):
        orders.append(n)
        return realize(self, n)

    path = str(ROOT / "configs" / f"{config}.yaml")
    rungs = len(cli.load_config(path).n_ladder or ())
    monkeypatch.setattr(CoefficientFamily, "realize", counting)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(orders) == 3 * (1 + rungs)


def test_jsonable_writes_numpy_and_python_non_finite_values_alike():
    values = {"np_inf": np.float64("inf"), "inf": math.inf, "np_ninf": np.float64("-inf"), "np_nan": np.float64("nan")}
    assert cli._jsonable(values) == {"np_inf": "inf", "inf": "inf", "np_ninf": "-inf", "np_nan": "nan"}


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


def test_equilibrium_command_meets_its_residual_check(tmp_path):
    # a system on which the solver once reported success with a residual above tol
    doc = {
        "model": {"r": 303.55755334918825, "alpha": 611.3947958507456},
        "rates": {
            "k": {"kind": "power_law", "amplitude": 1.4947213869479823, "exponent": 0.13061735709416966},
            "p": {"kind": "constant", "amplitude": 1.9828272674597607},
            "q": {"kind": "power_law", "amplitude": 0.483262605976266, "exponent": 1.1576635301662654},
        },
        "initial": {"x0": 0.0, "M": [0.0]},
        "run": {"n": 32, "t_end": 1.0},
        "integrator": {"rel_tol": 1.0e-12, "abs_tol": 1.0e-14},
    }
    cfg = write_config(tmp_path / "eq.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
    checks = {c["name"]: c for c in read_summary(out)["checks"]}
    assert checks["equilibrium_residual"]["value"] <= 1e-12


def test_summary_names_are_the_report_fields_and_the_written_file_names(tmp_path):
    # a metadata block that reports a library result is that result's own fields;
    # each artifact key is its file's name with "." as "_"
    verify = coupled_doc(n=6, t_end=1.0)
    verify["output"] = {"wide_csv": True}
    constant = {"kind": "constant", "amplitude": 1.0}
    equilibrium = {
        "model": {"r": 1.0, "alpha": 1.0},
        "rates": {"k": constant, "p": constant, "q": {"kind": "constant", "amplitude": 0.0}},
        "initial": {"x0": 0.0, "M": [0.0]},
        "run": {"n": 16, "t_end": 1.0},
    }
    converge = copy.deepcopy(equilibrium)
    converge["model"] = {"r": 0.0, "alpha": 0.0}
    converge["initial"] = {"x0": 1.0, "M": [1.0]}
    converge["run"] = {"n_ladder": [8, 10], "t_end": 1.0}
    converge["integrator"] = {"rel_tol": 1e-12, "abs_tol": 1e-15}
    metadata, artifacts = {}, {}
    for command, doc in (("verify", verify), ("equilibrium", equilibrium), ("converge", converge)):
        out = tmp_path / command
        assert cli.main([command, "--config", write_config(tmp_path / f"{command}.yaml", doc), "--out", str(out)]) == 0
        summary = read_summary(out)
        metadata[command], artifacts[command] = summary["metadata"], summary["artifacts"]
        for key, name in summary["artifacts"].items():
            stem = key.removesuffix("_csv")
            assert key == f"{stem}_csv" and name == f"{stem}.csv" and (out / name).is_file()
    assert artifacts == {
        "verify": {"trajectory_csv": "trajectory.csv", "trajectory_wide_csv": "trajectory_wide.csv"},
        "equilibrium": {"equilibrium_csv": "equilibrium.csv"},
        "converge": {"gaps_csv": "gaps.csv"},
    }
    gronwall = {f.name for f in dataclasses.fields(GronwallReport)} - {"ok", "margin"}
    assert set(metadata["verify"]["gronwall"]) == gronwall
    assert set(metadata["equilibrium"]) == {f.name for f in dataclasses.fields(EquilibriumResult)} - {"M_star"} | {"n"}


def test_semigroup_command(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SEMIGROUP_PAIRS", ((0.5, 0.5), (0.0, 1.0), (1.0, 0.0)))
    monkeypatch.setattr(cli, "SEMIGROUP_TOL", 1e-8)
    doc = coupled_doc(n=8, t_end=3.0)
    doc["integrator"] = {"rel_tol": 1e-11, "abs_tol": 1e-14}
    cfg = write_config(tmp_path / "semi.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    by_pair = {(p["t"], p["s"]): p["residual"] for p in summary["metadata"]["pairs"]}
    assert by_pair[(0.0, 1.0)] == 0.0
    assert by_pair[(1.0, 0.0)] == 0.0


def test_semigroup_pair_with_a_leg_that_rounds_away(tmp_path, monkeypatch):
    # 1e-17 + 0.5 == 0.5: the restart leg has no length and the residual is exactly zero
    monkeypatch.setattr(cli, "SEMIGROUP_PAIRS", ((1e-17, 0.5),))
    cfg = write_config(tmp_path / "semi.yaml", coupled_doc(n=8, t_end=1.0))
    out = tmp_path / "out"
    assert cli.main(["semigroup", "--config", cfg, "--out", str(out)]) == 0
    assert read_summary(out)["metadata"]["pairs"] == [{"t": 1e-17, "s": 0.5, "residual": 0.0}]


def test_semigroup_config_integrates_only_the_pairs_with_two_legs(tmp_path, monkeypatch):
    # (0.5, 0.5) and (1, 2) make three runs each; (0, 3) and (3, 0) have a zero-length leg and make none
    runs = []

    def recording(sys_, y0, t_end, cfg=None):
        runs.append((y0.t, t_end))
        return integrator.integrate(sys_, y0, t_end, cfg)

    monkeypatch.setattr(analysis, "integrate", recording)
    config = str(ROOT / "configs" / "semigroup.yaml")
    assert cli.main(["semigroup", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert sorted(runs) == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.5, 1.0), (2.0, 3.0)]


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


def test_config_error_needs_single_n_or_ladder(tmp_path):
    doc = decay_doc()
    doc["run"] = {"n": 4, "n_ladder": [4, 8], "t_end": 1.0}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    doc["run"] = {"n": 4, "t_end": 1.0}
    cfg = write_config(tmp_path / "bad2.yaml", doc)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "content",
    [
        None,
        b"model: [1",
        b"model: {r: 0.4}\n# \xff\xfe\n",
        b"- model\n- rates\n",
        b"",
        yaml.safe_dump({**decay_doc(), "run": {"n_ladder": [4, 8], "t_end": 1.0}}).encode(),
    ],
    ids=["missing_file", "yaml_syntax", "not_utf8", "top_level_list", "empty_file", "ladder_for_simulate"],
)
def test_every_bad_config_file_exits_2_with_one_stderr_line(tmp_path, capsys, content):
    path = tmp_path / "bad.yaml"
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err


@pytest.mark.parametrize(
    "command,section,field,value,expected",
    [
        ("simulate", "output", "m_out", "abc", "expected an integer"),
        ("simulate", "output", "m_out", 0, "expected a positive integer"),
    ],
    ids=["simulate-output-m_out-abc", "simulate-output-m_out-0"],
)
def test_config_error_positive_integers(tmp_path, capsys, command, section, field, value, expected):
    doc = decay_doc()
    doc[section] = {field: value}
    cfg = write_config(tmp_path / "bad.yaml", doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{field}: {expected}, got {value!r}" in err
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
        # a check's threshold and the semigroup pairs are constants of cli: their old keys are unknown
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
        # a second spelling of what the command line or an absent key already says
        ("verify", "command", "verify"),
        ("simulate", "command", "verify"),
        ("simulate", "rates.q.tail", "zero"),
        ("simulate", "initial.M", None),
        ("simulate", "initial.decay", None),
        ("converge", "run.n", None),
        ("simulate", "run.n_ladder", None),
        ("simulate", "integrator.max_step", None),
        ("simulate", "integrator.negativity_floor", None),
        ("equilibrium", "equilibrium.x_bracket", None),
        ("converge", "converge.final_gap_tol", None),
        # each removed key at its old default, and each removed section empty: no config restates one
        ("verify", "verify.residual_tol", 1e-6),
        ("verify", "verify.differential_tol", 1e-5),
        ("semigroup", "semigroup.pairs", [[0.5, 0.5], [1.0, 2.0], [0.0, 3.0], [3.0, 0.0]]),
        ("semigroup", "semigroup.tol", 1e-7),
        ("equilibrium", "equilibrium.tol", 1e-12),
        ("converge", "converge.final_gap_tol", 1e-6),
        ("verify", "verify", {}),
        ("semigroup", "semigroup", {}),
        ("converge", "converge", {}),
        ("equilibrium", "equilibrium.x_braket", [0.5, 2.0]),
    ],
)
def test_config_error_rejected_fields(tmp_path, capsys, command, path, value):
    # non-finite numbers, null values, non-mapping sections and unknown keys (a constant family takes
    # no exponent, a table no tail rule) are config errors naming the field; under a section the
    # schema does not know, the error names the section
    doc = decay_doc()
    if command == "converge":
        doc["run"] = {"n_ladder": [4, 8], "t_end": 1.0}
    if path.startswith("rates.q."):
        doc["rates"]["q"] = {"kind": "table", "values": [0.4]}
    cfg = write_config(tmp_path / "bad.yaml", _with(doc, path, value))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    section = path.split(".")[0]
    assert err.startswith(f"config error: {path if section in cli._SCHEMA else section}: ")
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
        CoefficientFamily.constant(0.7),
        CoefficientFamily(kind="table", values=(0.5,)),
    )
    assert config.initial == InitialData(M=(1.0,))
    given = {"params", "families", "initial", "t_end", "n", "raw"}
    for f in dataclasses.fields(cli.RunConfig):
        if f.name not in given:
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            assert getattr(config, f.name) == default, f.name

    decay = _with(copy.deepcopy(doc), "initial", {"decay": {"b": 1.0, "rho": 0.5}})
    assert cli.load_config(write_config(tmp_path / "decay.yaml", decay)).initial == InitialData(b=1.0, rho=0.5)


def test_readme_config_reference_loads(tmp_path):
    # the reference block in the README is a config the schema accepts, so the docs cannot drift from it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config reference (YAML)", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    config = cli.load_config(write_config(tmp_path / "reference.yaml", yaml.safe_load(block)))
    assert config.n == 64 and config.rates.n == 64


def test_readme_library_sketch_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    mass, identity, ok, x_star = capsys.readouterr().out.split()
    assert abs(float(mass)) < 1e-9
    assert abs(float(identity)) < 1e-6
    assert ok == "True"
    assert float(x_star) > 0.0


def test_write_csv_fields_are_exact_reprs(tmp_path):
    subnormal = 2.5e-310
    floats = np.array([0.0, -0.0, 5e-324, subnormal, 1e-5, 1e16, 1.0 / 3.0])
    row = [3, -7, 0.1] + floats.tolist()
    path = tmp_path / "row.csv"
    cli._write_csv(path, ["c"] * len(row), np.array([[3, -7]]), np.array([0.1]), floats[None, :])
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
    assert set(stats) == {"steps", "nfev", "njev", "nlu", "rejected", "h_min", "h_max"}
    assert stats["steps"] == summary["metadata"]["num_samples"] - 1
    assert 0.0 < stats["h_min"] <= stats["h_max"] <= 1.0


def test_check_failure_exit_code(tmp_path, monkeypatch):
    # an absurdly tight residual tolerance turns a healthy run into a failure
    monkeypatch.setattr(cli, "RESIDUAL_TOL", 1e-18)
    cfg = write_config(tmp_path / "strict.yaml", coupled_doc())
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 1
    summary = read_summary(out)
    assert summary["passed"] is False
    assert any(not c["passed"] for c in summary["checks"])


def test_converge_final_gap_threshold(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FINAL_GAP_TOL", 1e-30)
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


def test_equilibrium_no_convergence_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "EQUILIBRIUM_TOL", 0.0)
    doc = {
        "model": {"r": 1.0, "alpha": 1.0},
        "rates": {
            "k": {"kind": "constant", "amplitude": 1.0},
            "p": {"kind": "constant", "amplitude": 1.0},
            "q": {"kind": "constant", "amplitude": 0.3},
        },
        "initial": {"x0": 0.0, "M": [0.0]},
        "run": {"n": 64, "t_end": 1.0},
    }
    cfg = write_config(tmp_path / "nc.yaml", doc)
    assert cli.main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "NoConvergence" in err
    assert len(err.strip().splitlines()) == 1


def test_seed_is_not_an_option(tmp_path, capsys):
    # no path draws random numbers, so there is no seed to set
    cfg = write_config(tmp_path / "run.yaml", decay_doc())
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "7"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_bdf_wide_csvs_equal_a_repr_rebuild_from_the_trajectory(tmp_path, monkeypatch):
    # both CSVs of a BDF run, rebuilt from its Trajectory one Python number at a time
    runs = []

    def keep(*args, **kwargs):
        runs.append(integrator.integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "integrate", keep)
    doc = coupled_doc(n=128, t_end=2.0)
    doc["initial"]["decay"]["rho"] = 0.1
    doc["integrator"] = {"method": "bdf", "rel_tol": 1e-10, "abs_tol": 1e-15}
    doc["output"] = {"m_out": 5, "wide_csv": True}
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", write_config(tmp_path / "run.yaml", doc), "--out", str(out)]) == 0
    (traj,) = runs
    rates = traj.sys.rates
    narrow, wide = [], []
    for t, row in zip(traj.t.tolist(), traj.phase):
        moments = row_moments(row[0], row[1:], rates.p, rates.q)
        narrow.append([t, float(row[0])] + moments + row[1:6].tolist())
        wide.append([t] + row.tolist())
    assert any(0.0 < v < 1e-100 for row in wide for v in row)  # the tail reaches far below 1e-50
    body = lambda name: (out / name).read_bytes().split(b"\n", 1)[1]  # the lines after the header
    assert body("trajectory.csv") == repr_lines(narrow)
    assert body("trajectory_wide.csv") == repr_lines(wide)


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


@pytest.mark.parametrize("t_end", [710.0, 5000.0])
def test_verify_envelopes_hold_where_their_exponential_overflows(tmp_path, t_end):
    # k_0 = 0 and no cohort above 0 filled at the start make the envelope constant c1 zero,
    # and past c2 t = 709 its exponential overflows: the bound term is zero, not 0 * inf
    doc = yaml.safe_load((ROOT / "configs" / "decay_oracle.yaml").read_text(encoding="utf-8"))
    doc["run"]["t_end"] = t_end
    cfg = write_config(tmp_path / "long.yaml", doc)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    checks = {c["name"]: c for c in read_summary(out)["checks"]}
    assert len(checks) == 12 and all(c["passed"] for c in checks.values())
    assert checks["gronwall_envelope"]["value"] == 1.0
    assert checks["invariance_envelope"]["value"] == 0.5


@pytest.mark.parametrize("under", ["", "sub"], ids=["existing_file", "path_under_a_file"])
def test_unusable_out_exits_2_with_one_stderr_line(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory", encoding="utf-8")
    out = str(blocker / under) if under else str(blocker)
    cfg = str(ROOT / "configs" / "decay_oracle.yaml")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --out: cannot make the output directory: "), err
    assert blocker.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("command,artifact", [("simulate", "trajectory.csv"), ("semigroup", "summary.json")])
def test_unwritable_artifact_exits_2_with_one_stderr_line(tmp_path, capsys, monkeypatch, command, artifact):
    # the artifact's name is taken by a directory: the run ends with its exit code, not a traceback
    monkeypatch.setattr(cli, "SEMIGROUP_PAIRS", ((0.5, 0.5),))  # one pair: the semigroup run integrates three times, not six
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    cfg = write_config(tmp_path / "cfg.yaml", decay_doc())
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: --out: cannot write {artifact}: "), err
    assert (out / artifact).is_dir()


@pytest.mark.parametrize("n", [2 ** 63 - 1, 2 ** 63 - 2])
def test_order_whose_length_arange_cannot_count_blames_run_n(tmp_path, capsys, n):
    # numpy's arange returns no entries for n + 1 near 2**63; realize raises instead of handing back 0 of them
    doc = coupled_doc(n=n)
    cfg = write_config(tmp_path / "big.yaml", doc)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: run.n: truncation order {n} is too large: "), err


def test_cli_import_does_not_import_numpy_polynomial():
    # the quadrature nodes are literals: a cold start pays for no numpy.polynomial import
    probe = "import sys, silkin.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


SCIPY_PROBE = """
import sys
from silkin import cli
code = cli.main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.startswith("scipy"))[:3])
"""


@pytest.mark.parametrize(
    "command,config",
    [("simulate", "decay_oracle"), ("equilibrium", "equilibrium_chain"), ("simulate", "bdf"), ("verify", "bdf")],
)
def test_no_subcommand_imports_scipy(tmp_path, command, config):
    # both steppers, the battery, the equilibrium solve and config loading run without scipy
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
    assert modules == "[]"
