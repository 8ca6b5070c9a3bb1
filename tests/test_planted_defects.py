"""Planted field defects: the checks of ``silkin verify`` that each one fails.

Each defect wraps :func:`silkin.truncation.augmented_field` where both
:func:`silkin.integrate` and ``TruncatedSystem.rhs`` read it, so the
stepper, the dense output and the differential-form check all see the same
broken field, while the balances and identities keep the true rates.  The
run has a top cohort that holds mass (n = 8, rho = 0.9, T = 1), so a defect
that only touches the tail still shows.  A change that blunts a check turns
one of these sets smaller and fails here.
"""
import json

import numpy as np
import pytest
import yaml

from silkin import cli, integrator, truncation

BALANCES = {"mass_balance", "quartz_balance", "macrophage_balance"}
IDENTITIES = {"moment_identity_flat", "moment_identity_linear", "moment_identity_power"}


def _release(sys, z, dz):
    i = np.arange(sys.n + 1)
    dz[0] += 0.01 * (i * sys.rates.q) @ z[1:sys.dimension]


def _alpha(sys, z, dz):
    dz[0] += 0.01 * sys.params.alpha


def _r(sys, z, dz):
    dz[1] += 0.01 * sys.params.r


def _extra_transfer(sys, z, dz):
    M = z[1:sys.dimension]
    dz[2:sys.dimension] += 1e-4 * sys.k_masked[:-1] * z[0] * M[:-1]


def _loss(sys, z, dz):
    dz[1:sys.dimension] -= 0.01 * sys.loss * z[1:sys.dimension]


# defect -> checks of verify that fail, under RK45 and under BDF alike
DEFECTS = {
    "release_x1.01": (_release, {"mass_balance", "quartz_balance"}),
    "alpha_x1.01": (_alpha, {"mass_balance", "quartz_balance"}),
    "r_x1.01": (_r, {"mass_balance", "macrophage_balance"}),
    "extra_transfer_1e-4": (_extra_transfer, BALANCES | IDENTITIES),
    "loss_x1.01": (_loss, BALANCES | IDENTITIES),
}


def _doc(method):
    return {
        "model": {"r": 0.4, "alpha": 0.3},
        "rates": {
            "k": {"kind": "power_law", "amplitude": 1.0, "exponent": 0.5},
            "p": {"kind": "constant", "amplitude": 0.7},
            "q": {"kind": "power_law", "amplitude": 0.5, "exponent": 1.0},
        },
        "initial": {"x0": 1.0, "decay": {"b": 1.0, "rho": 0.9}},
        "run": {"n": 8, "t_end": 1.0},
        "integrator": {"method": method, "rel_tol": 1e-9, "abs_tol": 1e-12},
    }


def _failing_checks(tmp_path, method):
    cfg = tmp_path / "verify.yaml"
    cfg.write_text(yaml.safe_dump(_doc(method)), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    failing = {check["name"] for check in summary["checks"] if not check["passed"]}
    assert code == (cli.EXIT_CHECK_FAILED if failing else cli.EXIT_OK)
    return failing


def _plant(monkeypatch, defect):
    true_field = truncation.augmented_field

    def planted_field(sys, *args, **kwargs):
        rhs, jac = true_field(sys, *args, **kwargs)

        def planted_rhs(t, z, out=None):
            dz = rhs(t, z, out)
            defect(sys, z, dz)
            return dz

        return planted_rhs, jac

    monkeypatch.setattr(truncation, "augmented_field", planted_field)
    monkeypatch.setattr(integrator, "augmented_field", planted_field)


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_unplanted_run_passes_every_check(tmp_path, method):
    assert _failing_checks(tmp_path, method) == set()


@pytest.mark.parametrize("method", ["rk45", "bdf"])
@pytest.mark.parametrize("name", DEFECTS)
def test_planted_defect_fails_its_checks(tmp_path, monkeypatch, name, method):
    defect, expected = DEFECTS[name]
    _plant(monkeypatch, defect)
    assert _failing_checks(tmp_path, method) == expected
