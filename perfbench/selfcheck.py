#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload at minimal size, both modes.

    python3 perfbench/selfcheck.py

Each workload runs once untraced and once traced with ``--smoke``.  Every
run must exit 0 with no failed operation and emit exactly the metrics
``BENCHMARK.json`` names for its mode, each with the unit named there.  The
benchmark must also refuse to run (nonzero exit, no result line) in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(n for n in set(got) & set(wanted[trace]) if got[n] != wanted[trace][n])
                errors.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            bad = [n for n, m in result["metrics"].items()
                   if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                errors.append(f"{where}: non-numeric values for {bad}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} operations, {result['failed']} failed")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(bare, spec["workloads"][0]["name"], 0, smoke=False)
    if done.returncode == 0 or done.stdout.strip():
        errors.append(f"outside a checkout: exit {done.returncode}, stdout {done.stdout.strip()[-200:]!r}")
    shutil.rmtree(bare)

    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck passed" if not errors else f"selfcheck failed ({len(errors)} problems)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
