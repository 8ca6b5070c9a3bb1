"""Planted defects: the checks of ``silkin verify`` that each one fails.

A field defect wraps :func:`silkin.truncation.augmented_field` where both
:func:`silkin.integrate` and ``TruncatedSystem.rhs`` read it, so the
stepper, the dense output and the differential-form check all see the same
broken field (or the accumulators A1 and A2, or BDF's Jacobian), while the
balances and identities keep the true rates.  Two defects sit in the
integrator instead: the dense output scaled by 1 + 1e-6, and the first
Dormand-Prince weight moved by 1e-6.  The run has a top cohort that holds
mass (n = 8, rho = 0.9, T = 1), so a defect that only touches the tail still
shows.  A change that blunts a check turns one of these sets smaller and
fails here; the empty set of the Jacobian row is what a check of the
derivative in the initial data would change.
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


def _accumulator(slot):
    """The accumulator ``slot`` x 1.01; the phase-only calls of ``TruncatedSystem.rhs`` have none."""

    def defect(sys, z, dz):
        if len(dz) > sys.dimension:
            dz[sys.dimension + slot] *= 1.01

    return defect


def _in_field(defect=None, sub_factor=1.0):
    """Plant ``defect(sys, z, dz)`` after every field call, and scale the ``jac`` sub-diagonal by ``sub_factor``."""

    def plant(monkeypatch):
        true_field = truncation.augmented_field

        def planted_field(sys, *args, **kwargs):
            rhs, jac = true_field(sys, *args, **kwargs)

            def planted_rhs(t, z, out=None):
                dz = rhs(t, z, out)
                if defect is not None:
                    defect(sys, z, dz)
                return dz

            def planted_jac(t, z):
                blocks = jac(t, z)
                return blocks._replace(sub=sub_factor * blocks.sub)

            return planted_rhs, planted_jac

        monkeypatch.setattr(truncation, "augmented_field", planted_field)
        monkeypatch.setattr(integrator, "augmented_field", planted_field)

    return plant


def _dense_output(monkeypatch):
    true_call = integrator._DenseOutput.__call__
    monkeypatch.setattr(integrator._DenseOutput, "__call__", lambda self, *a, **kw: true_call(self, *a, **kw) * (1 + 1e-6))


def _rk45_weight(monkeypatch):
    weights = integrator._DP_B.copy()
    weights[0] += 1e-6
    monkeypatch.setattr(integrator, "_DP_B", weights)


MASS_QUARTZ = {"mass_balance", "quartz_balance"}
MASS_MACROPHAGE = {"mass_balance", "macrophage_balance"}
EVERY_INTEGRAL = BALANCES | IDENTITIES

# defect -> (plant, checks of verify that fail under RK45, under BDF)
DEFECTS = {
    "release_x1.01": (_in_field(_release), MASS_QUARTZ, MASS_QUARTZ),
    "alpha_x1.01": (_in_field(_alpha), MASS_QUARTZ, MASS_QUARTZ),
    "r_x1.01": (_in_field(_r), MASS_MACROPHAGE, MASS_MACROPHAGE),
    "extra_transfer_1e-4": (_in_field(_extra_transfer), EVERY_INTEGRAL, EVERY_INTEGRAL),
    "loss_x1.01": (_in_field(_loss), EVERY_INTEGRAL, EVERY_INTEGRAL),
    "A1_x1.01": (_in_field(_accumulator(truncation.ACC_TOTAL_LOSS)), MASS_MACROPHAGE, MASS_MACROPHAGE),
    "A2_x1.01": (_in_field(_accumulator(truncation.ACC_QUARTZ_REMOVED)), MASS_QUARTZ, MASS_QUARTZ),
    "dense_output_x(1+1e-6)": (_dense_output, EVERY_INTEGRAL, EVERY_INTEGRAL),
    # the Dormand-Prince tableau is RK45's alone
    "rk45_weight_b0+1e-6": (_rk45_weight, IDENTITIES, set()),
    # no check of verify reads BDF's Jacobian, which only steers the Newton iteration
    "bdf_jac_sub_x1.01": (_in_field(sub_factor=1.01), set(), set()),
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


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_unplanted_run_passes_every_check(tmp_path, method):
    assert _failing_checks(tmp_path, method) == set()


@pytest.mark.parametrize("method", ["rk45", "bdf"])
@pytest.mark.parametrize("name", DEFECTS)
def test_planted_defect_fails_its_checks(tmp_path, monkeypatch, name, method):
    plant, *expected = DEFECTS[name]
    plant(monkeypatch)
    assert _failing_checks(tmp_path, method) == expected[method == "bdf"]
