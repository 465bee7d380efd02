"""One benchmark repeat in a fresh interpreter: build the workload from the
seed, make its one timed call into splitsim, check every run, and print one
JSON line with the timings, the checks and the layer counts.

Usage (from the repository root, with src/ on PYTHONPATH):
    python3 perfbench/worker.py --workload small-sglr --seed 0 --trace 0 --out DIR

The layers are timed from outside: ``--trace 1`` wraps the public functions
listed in ``traced_functions`` with span recorders. Two light hooks are
always on: one around ``SplitTrainer.run_epoch`` (epoch-loop time, set-up
end, a machine-speed sample after each epoch) and one around
``harness.run_experiment`` (per-run checks). Check and speed-sample time is
subtracted from ``run_s``; every reported time is scaled to the reference
machine speed (see ``calibrate.py``), and ``wall`` keeps the raw ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import splitsim
import workloads
from spans import Tracer, replace_everywhere
from splitsim import comm, data, harness, leakage, nn, protocols, splitting

SPLITSIM_MODULES = [splitsim, comm, data, harness, leakage, nn, protocols, splitting]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SPLITSIM_THREADS")

# Machine-speed samples taken just before and just after the timed call.
SAMPLES_AROUND_CALL = 3

# Adam reads p, g, m, v and writes m, v, p; sgd reads p, g and writes p.
OPTIMIZER_ARRAYS = {"adam": 7, "sgd": 3}


def forward_flops(counts, args, kwargs, cache):
    counts["nn.dense_flops"] += sum(
        2 * x.shape[0] * layer.in_dim * layer.out_dim
        for layer, x in zip(cache.layers, cache.inputs) if layer.kind == "dense"
    )


def backward_flops(counts, args, kwargs, result):
    cache = args[0]
    counts["nn.dense_flops"] += sum(
        4 * x.shape[0] * layer.in_dim * layer.out_dim
        for layer, x in zip(cache.layers, cache.inputs) if layer.kind == "dense"
    )


def optimizer_bytes(counts, args, kwargs, result):
    params, state = args[0], args[2]
    scalars = sum(p.size for p in params)
    counts["nn.optimizer_step.bytes"] += OPTIMIZER_ARRAYS[state.kind] * 8 * scalars


def traced_functions():
    """(owner, attribute, measure) for every span the traced run records."""
    return [
        (nn, "forward", forward_flops),
        (nn, "backward", backward_flops),
        (nn, "loss_softmax_ce", None),
        (nn, "optimizer_step", optimizer_bytes),
        (splitting, "client_forward", None),
        (splitting, "concat", None),
        (splitting, "server_forward_backward", None),
        (protocols.SplitTrainer, "run_epoch", None),
        (protocols, "split_avg", None),
        (protocols, "evaluate", None),
        (comm.CommLedger, "record", None),
        (comm, "reconcile", None),
        (data, "synth_dataset", None),
        (data, "split_validation", None),
        (data, "partition_iid", None),
        (leakage, "smashed_leakage_score", None),
        (leakage, "mutual_information", None),
        (harness, "build_dataset", None),
        (harness, "write_metrics", None),
        (harness, "run_experiment", None),
    ]


def span_name(owner) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
    return owner.__name__.rsplit(".", 1)[-1]


def install_tracer(tracer: Tracer) -> None:
    for owner, attr, measure in traced_functions():
        original = vars(owner)[attr]
        wrapped = tracer.span(f"{span_name(owner)}.{attr}", original, measure)
        owners = [owner] if isinstance(owner, type) else SPLITSIM_MODULES
        replace_everywhere(original, wrapped, owners)
    counted = tracer.counter("nn.check_finite.calls", nn.check_finite)
    replace_everywhere(nn.check_finite, counted, SPLITSIM_MODULES)


class Probe:
    """The always-on hooks: epoch-loop clock, per-run checks and, unless
    ``per_epoch_speed`` is off, a machine-speed sample after each epoch.
    Check and sample time is excluded from the run times."""

    def __init__(self, checker: workloads.RunChecker, gauge: calibrate.SpeedGauge,
                 per_epoch_speed: bool):
        self.checker = checker
        self.gauge = gauge
        self.per_epoch_speed = per_epoch_speed
        self.first_epoch_at: float | None = None
        self.epoch_s = 0.0
        self.check_s = 0.0
        self.sample_s = 0.0
        self.steps = 0
        self._last_steps = 0
        self.run_s_by_kind: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        run_epoch = protocols.SplitTrainer.run_epoch
        run_experiment = harness.run_experiment
        probe = self

        def timed_epoch(trainer, epoch):
            t0 = perf_counter()
            if probe.first_epoch_at is None:
                probe.first_epoch_at = t0
            metrics = run_epoch(trainer, epoch)
            t1 = perf_counter()
            probe.epoch_s += t1 - t0
            probe._last_steps = metrics.steps
            if probe.per_epoch_speed:
                probe.gauge.sample()
                probe.sample_s += perf_counter() - t1
            return metrics

        def checked_run(cfg, out_dir=None):
            sampled = probe.sample_s
            t0 = perf_counter()
            result = run_experiment(cfg, out_dir)
            t1 = perf_counter()
            probe.run_s_by_kind[cfg.protocol.kind] += t1 - t0 - (probe.sample_s - sampled)
            probe.steps += probe._last_steps
            probe.checker.check(cfg, result)
            probe.check_s += perf_counter() - t1
            return result

        protocols.SplitTrainer.run_epoch = timed_epoch
        replace_everywhere(run_experiment, checked_run, SPLITSIM_MODULES)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def run(args) -> dict:
    seed = workloads.program_seed(args.seed)
    checker = workloads.RunChecker(comm, harness.COST_METHOD)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_tracer(tracer)
    gauge = calibrate.SpeedGauge(workloads.KERNEL[args.workload])
    # Traced repeats sample speed only around the call, so that no span
    # contains kernel time.
    probe = Probe(checker, gauge, per_epoch_speed=tracer is None)
    probe.install()
    for _ in range(SAMPLES_AROUND_CALL):
        gauge.sample()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.workload == "protocol-sweep":
        base, grid, seeds = workloads.protocol_sweep(seed)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            t0 = perf_counter()
            harness.sweep(base, grid, seeds, out_dir=tmp)
            t1 = perf_counter()
    else:
        cfg = harness.ExperimentConfig.from_dict(workloads.WORKLOADS[args.workload](seed))
        t0 = perf_counter()
        harness.run_experiment(cfg)
        t1 = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(SAMPLES_AROUND_CALL):
        gauge.sample()
    wall = {
        "run_s": t1 - t0 - probe.check_s - probe.sample_s,
        "setup_s": probe.first_epoch_at - t0,
        "epoch_s": probe.epoch_s,
    }
    speed = gauge.factor()

    layers = {
        "protocols.steps": probe.steps,
        "comm.ledger_entries": checker.ledger_entries,
        "comm.reconcile.mismatched_items": checker.mismatched_items,
        "comm.formula_total_rel_err": checker.formula_total_rel_err,
        **{f"comm.bytes.{k}": v for k, v in checker.bytes_by_kind.items()},
    }
    if tracer is not None:
        layers.update(tracer.summary())
        tracer.save(out / f"spans-{args.workload}-seed{args.seed}.npz")
    for name in layers:
        if name.endswith((".s", ".self_s")):
            layers[name] *= speed

    return {
        "ok": not checker.errors,
        "errors": checker.errors,
        "digest": checker.digest.hexdigest(),
        "run_s": wall["run_s"] * speed,
        "setup_s": wall["setup_s"] * speed,
        "samples_per_s": checker.rows / (wall["epoch_s"] * speed),
        "peak_rss_mb": peak_rss_mb,
        "wall": wall,
        "speed": speed,
        "run_s_by_kind": {k: v * speed for k, v in probe.run_s_by_kind.items()},
        "layers": layers,
        "env": environment(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    try:
        result = run(args)
    except Exception:
        result = {"ok": False, "errors": [traceback.format_exc()]}
    print(json.dumps(result, sort_keys=True))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
