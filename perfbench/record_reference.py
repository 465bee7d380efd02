"""Record the reference digest of every workload for every program seed.

Usage (from the repository root):
    python3 perfbench/record_reference.py [--workload NAME ...]

Runs one checked repeat per (workload, program seed) and writes the digests
of their per-epoch records to ``perfbench/reference.json``. A repeat that
fails its checks aborts the recording. Re-record only when a change to the
arithmetic is intended: the benchmark counts any other digest change as a
failed run.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from run import BENCH, DEADLINE_S, spawn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    path = BENCH / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or list(workloads.WORKLOADS):
        digests = {}
        for seed in range(workloads.SEED_CLASSES):
            result = spawn(workload, seed, 0, DEADLINE_S)
            if not result["ok"]:
                print(f"{workload} seed {seed} failed:", *result["errors"],
                      sep="\n", file=sys.stderr)
                return 1
            digests[str(seed)] = result["digest"]
            print(f"{workload} seed {seed} {result['digest']}", flush=True)
        table[workload] = digests
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
