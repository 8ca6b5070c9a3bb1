#!/usr/bin/env python3
"""Print the statements of ``src/silkin`` that the benchmark's own calls never execute.

Traces ``src/silkin`` with ``sys.settrace`` in one process while it runs

- one repetition each of perfbench's ``Ensemble`` and ``StiffWide``
  workloads at smoke size,
- the five shipped configs through ``cli.main``, each with the subcommand
  the ``cli_cold`` workload gives it (that workload runs them as
  subprocesses, so here they run in-process),
- the layer rows ``micro_rows``, ``baseline_rows`` (both at smoke size) and
  ``decay_ladder``.

The modules are imported under the trace, so their top-level statements
count as reached.  For each module it prints the statement count (docstrings
excluded) and how many statements were not reached, then each unreached
statement as ``file:line: source``.  A compound statement counts as reached
when its header or its first statement ran.  perfbench is imported and
called, never edited.  A name whose every statement is listed here, and that
no code outside ``tests/`` reads, is a candidate for deletion:

    python3 scripts/unreached_lines.py
"""
import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from code_lines import SRC, is_docstring

ROOT = SRC.parent.parent


def _reached(node: ast.stmt, ran: set) -> bool:
    """Whether a line of the statement's header ran, or, for a compound statement, its first statement did."""
    body = getattr(node, "body", None)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    last = max(first, body[0].lineno - 1) if body else node.end_lineno
    if any(line in ran for line in range(first, last + 1)):
        return True
    stmts = [s for s in body or () if not is_docstring(s)]
    return bool(stmts) and _reached(stmts[0], ran)


def unreached(path: Path, ran: set):
    """The module's statement count and its statements not reached, as ``(line, source)``."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    stmts = [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt) and not is_docstring(node)]
    missed = sorted(node.lineno for node in stmts if not _reached(node, ran))
    return len(stmts), [(line, source[line - 1].strip()) for line in missed]


def _run_benchmark_calls(work: Path) -> list:
    """The workload, CLI and layer calls named in the module docstring; returns the problems they recorded."""
    import layers
    import workloads
    from silkin import cli

    problems = []
    for cls in (workloads.Ensemble, workloads.StiffWide):
        wl = cls(1, work / cls.name, smoke=True)
        wl.prepare()
        wl.build()
        wl.rep()
        problems += wl.tally.problems
    for stem, command in workloads.CLI_CONFIGS:
        argv = [command, "--config", str(ROOT / "configs" / f"{stem}.yaml"), "--out", str(work / "cli" / stem)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            problems.append(f"{command} {stem}: exit code {code}")
    layers.micro_rows(True)
    layers.baseline_rows(True)
    tally = workloads.Tally()
    layers.decay_ladder(1, tally)
    return problems + tally.problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "perfbench"))
    sys.path.append(str(ROOT / "tests"))
    prefix = str(SRC) + os.sep
    ran: dict = {}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return on_line

    with tempfile.TemporaryDirectory() as work:
        sys.settrace(on_call)
        try:
            problems = _run_benchmark_calls(Path(work))
        finally:
            sys.settrace(None)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    total = total_missed = 0
    listing = []
    print(f"{'statements':>10}  {'unreached':>9}  module")
    for path in sorted(SRC.glob("*.py")):
        count, missed = unreached(path, ran.get(str(path), set()))
        total += count
        total_missed += len(missed)
        print(f"{count:10d}  {len(missed):9d}  {path.name}")
        listing += [f"{path.relative_to(ROOT)}:{line}: {text}" for line, text in missed]
    print(f"{total:10d}  {total_missed:9d}  total")
    print()
    print("\n".join(listing))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
