"""splitsim benchmark: one workload, closed loop, one fresh process per repeat.

Usage (from the repository root):
    python3 perfbench/run.py --workload small-sglr --seed 0 --seconds 30 --trace 0

Repeats run back to back, each in its own single-threaded interpreter
(``perfbench/worker.py``), until ``--seconds`` have passed and at least
``MIN_REPEATS`` repeats are done. Every repeat is checked: the worker checks
each run's outputs, and here every repeat's digest of the per-epoch records
must equal the one recorded for its seed in ``reference.json``. The first
failing repeat stops the loop and the command exits 1.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json, as medians over the repeats. Times are seconds at the
reference machine speed (see ``calibrate.py``); the report lines above it
also give the uncorrected wall-clock medians. With ``--trace 1`` untraced and
traced repeats alternate, and the last line reports the per-layer metrics:
span and count metrics are medians over the traced repeats,
``harness.run_s.<kind>`` over the untraced ones, and
``trace.overhead_share`` compares the two.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
MIN_REPEATS = 3
# Stop starting repeats, and kill a running one, this long after the start,
# so the command ends within its 180 s limit.
DEADLINE_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SPLITSIM_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, trace: int, timeout: float) -> dict:
    """Run one repeat in a fresh interpreter and return its parsed result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"repeat killed after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "errors": [f"worker exited {proc.returncode}: "
                                        f"{proc.stderr.strip()[-2000:]}"]}
    if proc.returncode != 0:
        result["ok"] = False
    return result


def load_reference(workload: str, seed: int) -> str | None:
    table = json.loads((BENCH / "reference.json").read_text())
    return table.get(workload, {}).get(str(workloads.program_seed(seed)))


def run_repeats(args, reference: str) -> tuple[list[dict], list[str]]:
    """Closed loop of repeats; returns (results, errors of the failing one)."""
    modes = (0, 1) if args.trace else (0,)
    needed = MIN_REPEATS * len(modes) if args.trace else MIN_REPEATS
    results: list[dict] = []
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0
        if len(results) >= needed and elapsed >= args.seconds:
            return results, []
        if elapsed >= DEADLINE_S:
            return results, [f"deadline reached after {len(results)} repeats"]
        trace = modes[len(results) % len(modes)]
        r = spawn(args.workload, args.seed, trace, DEADLINE_S - elapsed)
        r["trace"] = trace
        results.append(r)
        if r.get("digest") not in (None, reference):
            r["ok"] = False
            r.setdefault("errors", []).append(
                f"digest {r['digest']} differs from reference {reference}")
        if not r["ok"]:
            return results, r.get("errors") or ["repeat failed"]


def median_of(results: list[dict], key) -> float:
    return statistics.median(key(r) for r in results)


def failed_share(results: list[dict]) -> float:
    return sum(not r["ok"] for r in results) / len(results)


def end_to_end(spec: dict, results: list[dict]) -> dict:
    passed = 1.0 - failed_share(results)
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        value = passed if name == "passed_share" else median_of(results, lambda r: r[name])
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def per_layer(spec: dict, results: list[dict]) -> dict:
    plain = [r for r in results if r["trace"] == 0]
    traced = [r for r in results if r["trace"] == 1]
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_share":
            value = (median_of(traced, lambda r: r["run_s"])
                     / median_of(plain, lambda r: r["run_s"]) - 1.0)
        elif name.startswith("harness.run_s."):
            kind = name.rsplit(".", 1)[1]
            value = median_of(plain, lambda r: r["run_s_by_kind"].get(kind, 0.0))
        else:
            value = median_of(traced, lambda r: r["layers"][name])
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def print_report(args, results: list[dict], metrics: dict) -> None:
    env = results[0].get("env", {})
    cpus = len(os.sched_getaffinity(0))
    print(f"env: python {env.get('python')} numpy {env.get('numpy')} "
          f"blas {env.get('blas')} nproc {os.cpu_count()} usable-cpus {cpus} "
          + " ".join(f"{k}={env.get(k)}" for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "SPLITSIM_THREADS")))
    print(f"workload {args.workload} seed {args.seed} (program seed "
          f"{workloads.program_seed(args.seed)}) trace {args.trace}: "
          f"{len(results)} repeats")
    print(f"  failed_share {failed_share(results):g} ratio")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    plain = [r for r in results if r["trace"] == 0]
    print(f"uncorrected wall-clock medians: run_s "
          f"{median_of(plain, lambda r: r['wall']['run_s']):.6g} s, setup_s "
          f"{median_of(plain, lambda r: r['wall']['setup_s']):.6g} s; "
          f"speed factor {median_of(plain, lambda r: r['speed']):.4g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "splitsim" / "__init__.py").is_file():
        print(f"error: no splitsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference(args.workload, args.seed)
    if reference is None:
        print(f"error: reference.json has no digest for {args.workload} seed "
              f"{args.seed}; run perfbench/record_reference.py", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    results, errors = run_repeats(args, reference)
    failed = sum(not r["ok"] for r in results)
    if failed:
        for line in errors:
            print(line, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(results),
                          "failed": failed, "metrics": {}}))
        return 1
    metrics = per_layer(spec, results) if args.trace else end_to_end(spec, results)
    print_report(args, results, metrics)
    print(json.dumps({"correct": True, "attempted": len(results), "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
