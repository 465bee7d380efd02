"""A/B comparison of two checkouts on one perfbench workload.

Usage (any working directory):
    python3 tools/ab.py PARENT CHANGE --workload protocol-sweep --pairs 10 --seconds 15

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with the
same benchmark seed (the pair's number), and the side that runs first
alternates from pair to pair, so a drift in machine speed falls on both
sides alike. The table gives, for every end-to-end metric of
``BENCHMARK.json``, the median of each side over the pairs, their ratio
CHANGE / PARENT, the pairs in which CHANGE is better, and the spread of the
parent's runs (third minus first quartile, as a share of its median).

Exit status: 0 after the table; 1 if any run reports ``"correct": false``
(or prints no result); 2 if the two paths differ in length. The length of
a checkout's path moves where a run's large arrays land in the heap, and
that alone has moved wide-sglr's ``peak_rss_mb`` and speed between two
checkouts of the same code; so checkouts are compared only from paths of
one length (``/scratch/parent`` against ``/scratch/change``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` command in ``checkout``: its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def table(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: side medians, ratio, pairs won by CHANGE, parent spread."""
    lines = [f"{'metric':<14} {'parent':>14} {'change':>14} {'ratio':>8} {'won':>6} "
             f"{'spread':>7}"]
    for metric in metrics:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        lines.append(f"{name:<14} {ma:>14.6g} {mb:>14.6g} {ratio:>8.4f} "
                     f"{won:>3}/{len(a):<2} {quartile_spread(a):>7.2%}")
    return lines


def main(argv=None, runner=perfbench_run) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    sides = [args.parent.resolve(), args.change.resolve()]
    if len(str(sides[0])) != len(str(sides[1])):
        print(f"error: paths differ in length ({len(str(sides[0]))} vs {len(str(sides[1]))}); "
              "timings would differ by heap placement alone", file=sys.stderr)
        return 2
    spec = json.loads((sides[1] / "BENCHMARK.json").read_text())

    first = spec["end_to_end"][0]["name"]
    results: list[list[dict]] = [[], []]
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            r = runner(sides[side], args.workload, pair, args.seconds)
            if not r.get("correct"):
                print(f"error: pair {pair} {('parent', 'change')[side]} run is not correct: "
                      f"{json.dumps(r)[:2000]}", file=sys.stderr)
                return 1
            results[side].append(r)
        print(f"pair {pair}: {first} " + " -> ".join(
            f"{results[s][-1]['metrics'][first]['value']:.6g}" for s in (0, 1)), flush=True)

    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs")
    for line in table(spec["end_to_end"], *results):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
