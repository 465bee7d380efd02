"""tools/ab.py, the A/B driver of perfbench, with a stub in place of
``perfbench/run.py``: the pairing, the table and the exit codes."""

import importlib
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("ab")


def checkouts(tmp_path, parent="parent", change="change"):
    sides = [tmp_path / parent, tmp_path / change]
    for side in sides:
        side.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", side)
    return sides


class StubRunner:
    """Answers each call as ``run.py`` would: samples_per_s 100 + seed in
    the parent and 110 + seed in the change, every other metric 1.0 there
    and 2.0 here; ``broken`` names a side whose runs are not correct."""

    def __init__(self, broken=None):
        self.calls, self.broken = [], broken

    def __call__(self, checkout, workload, seed, seconds):
        side = checkout.name
        self.calls.append((side, workload, seed, seconds))
        if side == self.broken:
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        change = side == "change"
        values = {name: 2.0 if change else 1.0 for name in METRICS}
        values["samples_per_s"] = (110.0 if change else 100.0) + seed
        return {"correct": True, "metrics": {k: {"value": v, "unit": "-"}
                                             for k, v in values.items()}}


def test_pairs_alternate_and_share_a_seed(ab, tmp_path, capsys):
    parent, change = checkouts(tmp_path)
    runner = StubRunner()
    argv = [str(parent), str(change), "--workload", "protocol-sweep", "--pairs", "4",
            "--seconds", "3"]
    assert ab.main(argv, runner=runner) == 0
    assert [(side, seed) for side, _, seed, _ in runner.calls] == [
        ("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
        ("parent", 2), ("change", 2), ("change", 3), ("parent", 3)]
    assert {(w, s) for _, w, _, s in runner.calls} == {("protocol-sweep", 3.0)}

    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    # medians 101.5 and 111.5; the change wins all 4 pairs on a higher-is-better metric
    assert rows["samples_per_s"][1:5] == ["101.5", "111.5", f"{111.5 / 101.5:.4f}", "4/4"]
    # the parent's quartiles of 100..103 are 100.75 and 102.25
    assert rows["samples_per_s"][5] == f"{1.5 / 101.5:.2%}"
    # 2.0 against 1.0 is worse on every lower-is-better metric: no pair won
    assert rows["run_s"][1:5] == ["1", "2", "2.0000", "0/4"]
    assert set(METRICS) <= set(rows)


def test_paths_of_different_length_exit_2(ab, tmp_path, capsys):
    parent, change = checkouts(tmp_path, "parent", "changed")
    runner = StubRunner()
    assert ab.main([str(parent), str(change), "--workload", "small-sglr"], runner=runner) == 2
    assert runner.calls == [] and "differ in length" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["parent", "change"])
def test_a_run_that_is_not_correct_exits_1(ab, tmp_path, capsys, broken):
    parent, change = checkouts(tmp_path)
    code = ab.main([str(parent), str(change), "--workload", "small-sglr", "--pairs", "3"],
                   runner=StubRunner(broken))
    assert code == 1 and "not correct" in capsys.readouterr().err


def test_last_line_records_every_run_and_the_table(ab, tmp_path, capsys):
    parent, change = checkouts(tmp_path)
    argv = [str(parent), str(change), "--workload", "small-sglr", "--pairs", "3"]
    assert ab.main(argv, runner=StubRunner()) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-1])
    assert (record["workload"], record["pairs"], record["correct"]) == ("small-sglr", 3, True)
    # each pair holds both sides' results, in the order they ran
    assert [list(run) for run in record["runs"]] == [
        ["pair", "parent", "change"], ["pair", "change", "parent"], ["pair", "parent", "change"]]
    assert [run["change"]["metrics"]["samples_per_s"]["value"] for run in record["runs"]] == [
        110.0, 111.0, 112.0]
    rows = {line.split()[0]: line.split() for line in lines[:-1]}
    assert set(record["summary"]) == set(METRICS)
    for name, stats in record["summary"].items():
        assert rows[name][1:3] == [f"{stats[s]['median']:.6g}" for s in ("parent", "change")]
    sps = record["summary"]["samples_per_s"]
    assert (sps["change_wins"], sps["ties"], sps["bound"]) == (3, 0, 0.25)
    # the parent's quartiles of 100..102 are 100.5 and 101.5
    assert (sps["parent"]["q1"], sps["parent"]["q3"]) == (100.5, 101.5)
    assert sps["parent_iqr_share"] == pytest.approx(1 / 101)
    assert sps["median_change_rel"] == pytest.approx(111 / 101 - 1)
