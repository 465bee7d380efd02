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

The last line is one JSON record, as ``perfbench/run.py`` ends with its
result: the workload, ``pairs``, ``seconds``, every pair's two results
under "parent" and "change" in the order they ran, and the table's numbers
per metric under "summary" (see ``summary``). A ``BENCH_<n>.json`` record holds
one such record per workload under "workloads".

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

SIDES = ("parent", "change")


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


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method: numpy's linear
    percentiles); all three equal for a single value."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(metrics: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Per metric: each side's quartiles over the pairs, the pairs CHANGE won
    and tied, the relative change of the medians, the parent's interquartile
    range as a share of its median, and the bound from ``BENCHMARK.json``.
    A ratio to a zero parent median is None."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = 1 if metric["better"] == "higher" else -1
        pa, pb = quartiles(a), quartiles(b)
        ma = pa["median"]
        out[name] = {"parent": pa, "change": pb,
                     "change_wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
                     "ties": sum(x == y for x, y in zip(a, b)),
                     "median_change_rel": pb["median"] / ma - 1 if ma else None,
                     "parent_iqr_share": (pa["q3"] - pa["q1"]) / ma if ma else None,
                     "bound": metric["bound"]}
    return out


def table(stats: dict, pairs: int) -> list[str]:
    """One line per metric of ``summary``: side medians, ratio, pairs won by
    CHANGE, parent spread."""
    lines = [f"{'metric':<14} {'parent':>14} {'change':>14} {'ratio':>8} {'won':>6} "
             f"{'spread':>7}"]
    for name, s in stats.items():
        ratio = float("nan") if s["median_change_rel"] is None else 1 + s["median_change_rel"]
        share = float("nan") if s["parent_iqr_share"] is None else s["parent_iqr_share"]
        lines.append(f"{name:<14} {s['parent']['median']:>14.6g} {s['change']['median']:>14.6g} "
                     f"{ratio:>8.4f} {s['change_wins']:>3}/{pairs:<2} {share:>7.2%}")
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
    runs: list[dict] = []
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        runs.append({"pair": pair})
        for side in order:
            r = runner(sides[side], args.workload, pair, args.seconds)
            if not r.get("correct"):
                print(f"error: pair {pair} {SIDES[side]} run is not correct: "
                      f"{json.dumps(r)[:2000]}", file=sys.stderr)
                return 1
            runs[-1][SIDES[side]] = r
        print(f"pair {pair}: {first} " + " -> ".join(
            f"{runs[-1][s]['metrics'][first]['value']:.6g}" for s in SIDES), flush=True)

    stats = summary(spec["end_to_end"], *([run[s] for run in runs] for s in SIDES))
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs")
    for line in table(stats, args.pairs):
        print(line)
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
                      "correct": True, "runs": runs, "summary": stats}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
