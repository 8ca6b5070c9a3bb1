"""The benchmark's traced run wraps silkin's public names; a refactor must keep them."""
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
    # perfbench/layers.micro_rows times exactly these two calls
    from silkin import InitialData, eval_jacobian

    _, layers = perfbench
    n = 4
    sys_ = layers.acceptance_system(n, 0.5)
    s = InitialData(x0=1.0, b=1.0, rho=0.5).state(n)
    assert sys_.rhs(s.vector()).shape == (n + 2,)
    assert eval_jacobian(sys_, s).to_sparse().shape == (n + 2, n + 2)
