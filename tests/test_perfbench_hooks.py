"""The benchmark wraps silkin's public names and calls them with fixed arguments; a refactor must keep both."""
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
