#!/usr/bin/env python3
"""Print the sha256 of every output of the shipped configs, one ``sha256  <config>/<file>`` line each.

Each config in ``configs/`` runs under its own subcommand, in-process, into
a temporary directory; every CSV and ``summary.json`` it writes is hashed.
A run whose summary records integrator statistics also gets a line
``steps=.. nfev=.. njev=.. nlu=..  <config>/integrator`` (``converge``: one
line ``<config>/integrator/n=<rung>`` per rung), so a diff shows a changed
step sequence, not only changed hashes.  ``semigroup`` gets one line
``runs=.. steps=..  semigroup/integrator``: how many integrations its pairs
made and their accepted steps in total.
``verify_power_law`` runs a second time with ``integrator.method: bdf``
(lines ``verify_power_law_bdf/...``), so the stiff path is covered too, and
a third time under ``equilibrium`` (lines ``verify_power_law_equilibrium/...``):
its root is not exact in floating point, so a changed root finder shows.
``stiff_wide_4096`` is a BDF ``simulate`` at n = 4096 with ``wide_csv: true``
on a config built here, so the wide CSV, whose values reach down to
subnormals, is hashed too.
Every trajectory a command integrates (through ``analysis`` or the CLI's own
``integrate``) gets a line ``dense=.. derivative=..  <config>/dense``: the
sha256 of its ``dense_matrix`` and ``dense_derivative`` at 201 evenly spaced
times and its sample times, so a change to the dense output shows even
where no written byte reads it.
Run it from two checkouts and ``diff`` the outputs to show that a change
keeps every output byte:

    python3 scripts/output_digests.py > digests.txt

The package is imported from this checkout's ``src/``, and the subcommand
of each shipped config from ``perfbench/workloads.py``.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

from silkin import analysis, cli  # noqa: E402
from workloads import CLI_CONFIGS  # noqa: E402  (each shipped config and its subcommand)

# The acceptance families k = i + 1, p = 0.7, q = 0.5 (i + 1) at n = 4096, under BDF.
STIFF_WIDE = {
    "model": {"r": 0.4, "alpha": 0.3},
    "rates": {
        "k": {"kind": "power_law", "amplitude": 1.0, "exponent": 1.0},
        "p": {"kind": "constant", "amplitude": 0.7},
        "q": {"kind": "power_law", "amplitude": 0.5, "exponent": 1.0},
    },
    "initial": {"x0": 1.0, "decay": {"b": 1.0, "rho": 0.5}},
    "run": {"n": 4096, "t_end": 5.0},
    "integrator": {"method": "bdf", "rel_tol": 1.0e-10, "abs_tol": 1.0e-15},
    "output": {"wide_csv": True},
}


def dense_line(traj) -> str:
    """The hashes of ``traj``'s dense values and derivatives at 201 evenly spaced times and its sample times."""
    times = np.sort(np.concatenate((np.linspace(traj.t_start, traj.t_end, 201), traj.t)))
    values = hashlib.sha256(traj.dense_matrix(times).tobytes()).hexdigest()
    derivatives = hashlib.sha256(traj.dense_derivative(times).tobytes()).hexdigest()
    return f"dense={values} derivative={derivatives}"


def digest(name: str, command: str, config: Path) -> int:
    """Run one config into a temporary directory and print the hash of each output."""
    steps = []  # accepted steps of each integration, which the semigroup probe reports
    dense = []  # a dense_line for each integration
    integrate = analysis.integrate

    def recording(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        steps.append(traj.stats.steps)
        dense.append(dense_line(traj))
        return traj

    with tempfile.TemporaryDirectory() as tmp:
        with (
            contextlib.redirect_stdout(io.StringIO()),
            mock.patch.object(analysis, "integrate", recording),
            mock.patch.object(cli, "integrate", recording),
        ):
            code = cli.main([command, "--config", str(config), "--out", tmp])
        if code != cli.EXIT_OK:
            print(f"{name}: {command} exited {code}", file=sys.stderr)
            return code
        for path in sorted(Path(tmp).iterdir()):
            if path.suffix == ".csv" or path.name == "summary.json":
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
        meta = json.loads((Path(tmp) / "summary.json").read_text(encoding="utf-8"))["metadata"]
        stats = meta.get("integrator")
        runs = [(f"{name}/integrator", stats)] if isinstance(stats, dict) else []
        if isinstance(stats, list):  # converge: one entry per rung
            runs = [(f"{name}/integrator/n={n}", entry) for n, entry in zip(meta["n_ladder"], stats)]
        for label, entry in runs:
            print(" ".join(f"{key}={entry[key]}" for key in ("steps", "nfev", "njev", "nlu")) + f"  {label}")
        if command == "semigroup":
            print(f"runs={len(steps)} steps={sum(steps)}  {name}/integrator")
        for line in dense:
            print(f"{line}  {name}/dense")
    return 0


def digest_doc(name: str, command: str, doc: dict) -> int:
    """:func:`digest` of a config document built here."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / f"{name}.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return digest(name, command, config)


def main() -> int:
    for name, command in CLI_CONFIGS:
        code = digest(name, command, ROOT / "configs" / f"{name}.yaml")
        if code:
            return code
    doc = yaml.safe_load((ROOT / "configs" / "verify_power_law.yaml").read_text(encoding="utf-8"))
    doc["integrator"]["method"] = "bdf"
    return (
        digest_doc("verify_power_law_bdf", "verify", doc)
        or digest("verify_power_law_equilibrium", "equilibrium", ROOT / "configs" / "verify_power_law.yaml")
        or digest_doc("stiff_wide_4096", "simulate", STIFF_WIDE)
    )


if __name__ == "__main__":
    raise SystemExit(main())
