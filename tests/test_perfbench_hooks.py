"""The benchmark wraps silkin's public names and calls them with fixed arguments; a refactor must keep both."""
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    return tracing, layers


def test_traced_call_sites_exist(perfbench):
    tracing, _ = perfbench
    targets = tracing._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    with tracing.traced(tracing.Tracer()):
        pass
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before


def test_micro_rows_entry_points_exist(perfbench):
    _, layers = perfbench
    rows = layers.micro_rows(True)
    assert sorted(rows) == sorted(f"truncation.{kind}.n{n}" for kind in ("rhs_us", "jacobian_ms") for n in layers.MICRO_NS)
    assert all(value > 0.0 for value, _ in rows.values())


def test_benchmark_calls_run_at_smoke_size(perfbench):
    # the calls the ensemble run and the decay rows make, with their arguments: a dropped parameter fails here, not in the benchmark
    import numpy as np
    import workloads
    from silkin import State

    _, layers = perfbench
    n, gamma = 4, 0.5
    y0 = State(t=0.0, x=workloads.Ensemble.X0, M=0.65 * workloads.Ensemble.RHO ** np.arange(n + 1))
    assert workloads._verified_run(workloads.acceptance_system(n, gamma), y0, gamma) == []
    tally = workloads.Tally()
    assert len(layers.decay_ladder(1, tally)) == 2 * len(layers.DECAY_RUNGS)
    assert (tally.attempted, tally.failed) == (len(layers.DECAY_RUNGS), 0), tally.problems


def test_each_shipped_config_passes_with_the_benchmarks_check_count(perfbench, tmp_path):
    # cli_cold judges every summary by workloads.EXPECTED_CHECKS: a changed count fails here, not in every operation
    import workloads
    from silkin import cli

    assert sorted(stem for stem, _ in workloads.CLI_CONFIGS) == sorted(p.stem for p in (ROOT / "configs").glob("*.yaml"))
    for stem, command in workloads.CLI_CONFIGS:
        out = tmp_path / stem
        assert cli.main([command, "--config", str(ROOT / "configs" / f"{stem}.yaml"), "--out", str(out)]) == cli.EXIT_OK
        assert workloads._summary_problems(out, command) == [], stem


@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_flux_orders_keyword_is_inert(method):
    # the benchmark still passes flux_orders=(1,); the run it gets is the run without it, to the bit
    from silkin import IntegratorConfig, integrate

    from conftest import decaying_state, power_law_system

    sys_, y0, cfg = power_law_system(8, gamma=1.0), decaying_state(8, rho=0.9), IntegratorConfig(method=method)
    plain = integrate(sys_, y0, 1.0, cfg)
    passed = integrate(sys_, y0, 1.0, cfg, flux_orders=(1,))
    assert passed.t.tobytes() == plain.t.tobytes()
    assert passed.phase.tobytes() == plain.phase.tobytes()


@pytest.mark.parametrize("rates_n", [8, 4], ids=["same_order", "other_order"])
def test_power_rates_keyword_is_inert(rates_n):
    # the benchmark still passes power's rates; it gets the weights without them, also from a table of another order
    from silkin import MomentWeights

    from conftest import power_law_system

    passed = MomentWeights.power(8, 1.5, power_law_system(rates_n, gamma=0.5).rates)
    assert passed.g.tobytes() == MomentWeights.power(8, 1.5).g.tobytes()
