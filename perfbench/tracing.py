"""Spans around calls into silkin's public functions, kept in memory.

The package itself carries no instrumentation, so the traced run wraps each
public function at the name its *caller* looks up at call time:
``silkin.cli.integrate`` and ``silkin.analysis.integrate`` are patched
separately, methods are patched on their class (``Trajectory.dense_matrix``,
``MomentWeights.power``), and the ensemble workload calls through the
``silkin`` package namespace, which is patched as well.  Patches are undone
when the ``traced`` context exits, so untraced repetitions in the same
process run the original functions.

A span is ``[name, start_ns, end_ns, parent_index, run_id, counts]``; spans
of one verified run or CLI invocation share ``run_id``.  Counts (steps,
dense-output points) are read from the call's result at the boundary where
the work happens.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.run_id = 0
        self._open: list = []

    def wrap(self, name, fn, counter=None):
        spans = self.spans
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return traced

    def extend(self, spans: list) -> None:
        """Append spans recorded by a child process, re-basing parent links."""
        base = len(self.spans)
        for s in spans:
            self.spans.append([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, counts in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "run": run}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")

    @staticmethod
    def read(path: Path) -> list:
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        return [[r["name"], r["start_ns"], r["end_ns"], r["parent"], r["run"], r.get("counts")] for r in rows]


def _steps(traj):
    return {"steps": traj.num_samples - 1}


def _dense(Z):
    return {"points": Z.shape[1], "cells": Z.shape[0] * Z.shape[1]}


def _targets():
    """(owner, attribute, span name, counter) for every wrapped call site."""
    import silkin
    from silkin import InitialData, MomentWeights, Trajectory, analysis, cli

    out = []
    for owner in (silkin, cli, analysis):
        out.append((owner, "realize_coefficients", "model.realize_coefficients", None))
        out.append((owner, "integrate", "integrator.integrate", _steps))
    out += [
        (InitialData, "state", "model.initial_state", None),
        (MomentWeights, "ones", "model.weights", None),
        (MomentWeights, "linear", "model.weights", None),
        (MomentWeights, "power", "model.weights", None),
        (Trajectory, "dense_matrix", "integrator.dense_matrix", _dense),
    ]
    for owner in (silkin, cli):
        for fn in ("mass_balance_residual", "quartz_balance_residual", "macrophage_balance_residual"):
            out.append((owner, fn, "moments.balance", None))
        out.append((owner, "moment_identity_residual", "moments.identity", None))
        out.append((owner, "gronwall_check", "moments.gronwall", None))
        out.append((owner, "invariance_check", "analysis.invariance", None))
    out += [
        (silkin, "uniqueness_probe", "analysis.uniqueness", None),
        (cli, "differential_form_check", "analysis.differential_form", None),
        (cli, "convergence_study", "analysis.convergence", None),
        (cli, "semigroup_residual", "analysis.semigroup", None),
        (cli, "find_equilibrium", "analysis.equilibrium", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "run", "cli.run", None),
    ]
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, counter in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(tracer.wrap(name, raw.__func__, counter))
            else:
                patched = tracer.wrap(name, raw, counter)
            saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: list) -> list:
    """Span duration minus the time covered by its direct children, in ns."""
    covered = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def layer_totals(spans: list) -> dict:
    """Per span name: call count, total self time (s) and summed counts."""
    totals: dict = {}
    for span, self_ns in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["self_s"] += self_ns * 1e-9
        for key, value in (span[5] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals
