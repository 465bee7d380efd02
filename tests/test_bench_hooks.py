"""Contract between the benchmark's trace hooks (perfbench/worker.py) and
the program: every function the trace wraps still exists, and the objects
its measures read still carry the attributes they read."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitsim import nn, splitting
from splitsim.comm import PAYLOAD_KINDS, CommLedger
from splitsim.protocols import ProtocolConfig, SplitTrainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run")


@pytest.mark.parametrize(("workload", "trace"), [
    ("small-sglr", "0"), ("protocol-sweep", "0"), ("small-sglr", "1"), ("protocol-sweep", "1"),
    ("wide-sglr", "0"),
], ids=["small-sglr", "protocol-sweep", "small-sglr-traced", "protocol-sweep-traced",
        "wide-sglr"])
def test_worker_digest_matches_reference(bench_run, workload, trace, tmp_path):
    """One benchmark repeat at seed 0, untraced or traced, run as
    ``perfbench/run.py`` runs its workers: no check fails and the digest is
    the recorded one, so the trace's wrappers leave the program's bits alone.
    wide-sglr's round is the one that steps its client rows in several
    groups, and its Adam walk the one that spans many chunks. The recorded digests are those of
    OpenBLAS's SkylakeX kernel: under ``OPENBLAS_CORETYPE=Haswell`` the
    small-sglr and protocol-sweep cases fail, and wide-sglr's still matched."""
    cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
           "--seed", "0", "--trace", trace, "--out", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=PERFBENCH.parent, env=bench_run.worker_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    assert result["digest"] == bench_run.load_reference(workload, 0)


def test_traced_functions_exist(worker):
    for owner, attr, _ in worker.traced_functions():
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"


def test_measures_read_what_the_program_returns(worker):
    rng = np.random.default_rng(0)
    layers = nn.build_mlp([4, 5, 3], rng)
    x = rng.normal(size=(6, 4))
    cache = nn.forward(layers, x)
    assert len(cache.layers) == len(cache.inputs) == len(layers)
    counts = {"nn.dense_flops": 0, "nn.optimizer_step.bytes": 0}
    worker.forward_flops(counts, (layers, x), {}, cache)
    grads, _ = nn.backward(cache, np.ones_like(cache.output))
    worker.backward_flops(counts, (cache, np.ones_like(cache.output)), {}, None)
    assert counts["nn.dense_flops"] == 6 * 6 * (4 * 5 + 5 * 3)
    params = nn.collect_params(layers)
    state = nn.init_optimizer("adam", params)
    args = (params, nn.collect_grads(grads), state, 1e-3)
    nn.optimizer_step(*args)
    worker.optimizer_bytes(counts, args, {}, None)
    assert counts["nn.optimizer_step.bytes"] == 7 * 8 * nn.param_count(layers)


def test_run_epoch_reports_steps():
    rng = np.random.default_rng(1)
    model = splitting.SplitModel(nn.build_mlp([4, 5, 3], rng), 2)
    data = [(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)) for _ in range(2)]
    t = SplitTrainer(model, data, ProtocolConfig(kind="sglr", clients=2, batch_size=4))
    assert t.run_epoch(0).steps == 2


def test_run_checker_reads_of_the_ledger():
    """``workloads.RunChecker`` counts ``len(ledger.entries)`` and folds
    ``bytes_by_kind()`` into its per-kind byte totals."""
    rng = np.random.default_rng(2)
    model = splitting.SplitModel(nn.build_mlp([4, 5, 3], rng), 2)
    data = [(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)) for _ in range(3)]
    ledger = CommLedger()
    config = ProtocolConfig(kind="sfl", clients=3, batch_size=4, epochs=2)
    SplitTrainer(model, data, config, ledger=ledger).run()
    assert len(ledger.entries) > 0
    by_kind = ledger.bytes_by_kind()
    assert tuple(by_kind) == PAYLOAD_KINDS and min(by_kind.values()) > 0
    assert ledger.total_bytes() == sum(by_kind.values()) > 0
