"""Contract between the benchmark's trace hooks (perfbench/worker.py) and
the program: every function the trace wraps still exists, and the objects
its measures read still carry the attributes they read."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from splitsim import nn, splitting
from splitsim.protocols import ProtocolConfig, SplitTrainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


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
