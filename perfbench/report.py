#!/usr/bin/env python3
"""Run every workload in BENCHMARK.json, each in a fresh process, and print its metrics.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` prints the end-to-end metrics of each workload; ``--trace 1``
prints the per-layer metrics, the self-time share of each layer and the
tracing overhead.  Exits with the worst exit status of the runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    status = 0
    for workload in bench["workloads"]:
        cmd = [*bench["command"], "--workload", workload["name"], "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(f"== {workload['name']} (exit {proc.returncode})")
        print("\n".join(proc.stdout.splitlines()[:-1]))
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
        status = max(status, proc.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
