"""Fresh-interpreter helpers started by run.py; not a user entry point.

``child.py setup --workload W --seed S --work DIR``
    Imports ``silkin.cli`` (timed), then does the workload's user-side
    set-up (config load, system and weight build) and prints
    ``{"import_s": ...}``.  run.py times the whole process as one
    ``setup_s`` sample.

``child.py cli --spans FILE --run-id K -- <silkin cli arguments>``
    The traced form of one ``python -m silkin.cli`` invocation: installs the
    span wrappers, runs ``silkin.cli.main`` and writes the spans to FILE at
    exit.  Exits with the CLI's exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--work", required=True)
    setup.add_argument("--smoke", action="store_true")
    traced_cli = sub.add_parser("cli")
    traced_cli.add_argument("--spans", required=True)
    traced_cli.add_argument("--run-id", type=int, required=True)
    traced_cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import silkin.cli

    import_s = time.perf_counter() - t0

    if args.mode == "setup":
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, Path(args.work), args.smoke)
        wl.build()
        print(json.dumps({"import_s": import_s}))
        return 0

    from tracing import Tracer, traced

    tracer = Tracer()
    tracer.run_id = args.run_id
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    try:
        with traced(tracer):
            return silkin.cli.main(argv)
    finally:
        tracer.write(Path(args.spans))


if __name__ == "__main__":
    sys.exit(main())
