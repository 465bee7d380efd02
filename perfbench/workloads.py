"""The benchmark's workloads, built from its seed, and the checks on their
results.

The program only ever sees the config dicts built here. A benchmark seed
maps onto one of ``SEED_CLASSES`` program seeds, each of which has a
recorded reference digest in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import math

SEED_CLASSES = 16

# Final validation accuracy must beat chance (1 / classes) by this much.
ACCURACY_MARGIN = 0.15

SWEEP_KINDS = ["ssl", "psl", "fl", "sfl", "slr", "sgl", "sglr"]


def _config(kind, clients, phi, alpha, lr, epochs, dataset, hidden, seed, leakage):
    return {
        "protocol": {
            "kind": kind, "clients": clients, "active_fraction": phi,
            "lr_exponent": alpha, "base_lr": lr, "batch_size": 8,
            "epochs": epochs, "optimizer": "adam", "seed": seed,
        },
        "dataset": {"kind": "synthetic", **dataset},
        "model": {"hidden": hidden, "cut_index": 2},
        "leakage": {"enabled": leakage},
    }


def small_sglr(seed: int) -> dict:
    """ROADMAP G1: every matrix at most 32 wide, so per-call overhead rules."""
    dataset = {"classes": 8, "per_class": 1076, "dim": 24, "separation": 2.2,
               "per_client": 1000, "validation": 600}
    return _config("sglr", 8, 0.75, 0.5, 1e-3, 10, dataset, [32, 16], seed, False)


def wide_sglr(seed: int) -> dict:
    """ROADMAP G2: 784-wide stand-in for Fashion-MNIST; BLAS and memory bound."""
    dataset = {"classes": 10, "per_class": 1800, "dim": 784, "separation": 4.0,
               "per_client": 1000, "validation": 10_000}
    return _config("sglr", 8, 0.75, 0.5, 1e-3, 2, dataset, [128, 64], seed, False)


def protocol_sweep(seed: int) -> tuple[dict, dict, list[int]]:
    """All seven kinds x 2 seeds at C=100, leakage on: (base, grid, seeds)."""
    dataset = {"classes": 4, "per_class": 2050, "dim": 16, "separation": 4.0,
               "per_client": 80, "validation": 200}
    base = _config("sglr", 100, 0.5, 0.5, 1e-2, 3, dataset, [16, 8], 0, True)
    return base, {"protocol.kind": list(SWEEP_KINDS)}, [2 * seed, 2 * seed + 1]


WORKLOADS = {
    "small-sglr": small_sglr,
    "wide-sglr": wide_sglr,
    "protocol-sweep": protocol_sweep,
}


# Machine-speed kernel (see calibrate.py) matching each workload's bottleneck.
KERNEL = {
    "small-sglr": "interpreter",
    "wide-sglr": "bandwidth",
    "protocol-sweep": "interpreter",
}


def program_seed(seed: int) -> int:
    return seed % SEED_CLASSES


def cut_geometry(cfg) -> tuple[int, int, int]:
    """(cut width, client-segment params, full-model params) from the config."""
    widths = [cfg.dataset.dim, *cfg.model.hidden, cfg.dataset.classes]
    dense = [w_in * w_out + w_out for w_in, w_out in zip(widths, widths[1:])]
    client_dense = (cfg.model.cut_index + 1) // 2
    return widths[client_dense], sum(dense[:client_dense]), sum(dense)


def is_known_gap(method: str, item, epochs: int) -> bool:
    """ssl's model-weights expectation counts one hand-off round per run
    instead of one per epoch; tolerated so it is counted, not failed."""
    return (method == "ssl" and item.kind == "model-weights"
            and item.measured_bytes == item.expected_bytes * epochs)


class RunChecker:
    """Checks each finished run and folds its records into one digest."""

    def __init__(self, comm, cost_method):
        self.comm = comm
        self.cost_method = cost_method
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.rows = 0
        self.mismatched_items = 0
        self.formula_total_rel_err = 0.0
        self.ledger_entries = 0
        self.bytes_by_kind: dict[str, int] = {}

    def check(self, cfg, result) -> None:
        p = cfg.protocol
        run_id = cfg.resolved_run_id()
        records = result.records
        for r in records:
            leak = "-" if r.leakage_score is None else r.leakage_score.hex()
            line = (f"{run_id}|{r.epoch}|{r.train_loss.hex()}|"
                    f"{r.val_accuracy.hex()}|{r.comm_bytes}|{leak}\n")
            self.digest.update(line.encode())

        def fail(msg):
            self.errors.append(f"{run_id}: {msg}")

        if len(records) != p.epochs:
            fail(f"{len(records)} epoch records for {p.epochs} epochs")
        if not all(math.isfinite(r.train_loss) for r in records):
            fail("non-finite training loss")
        floor = 1.0 / cfg.dataset.classes + ACCURACY_MARGIN
        if not result.final_accuracy >= floor:
            fail(f"final accuracy {result.final_accuracy:.4f} below {floor:.4f}")

        ledger = result.ledger
        ledger_total = ledger.total_bytes()
        epoch_sum = sum(r.comm_bytes for r in records)
        if not ledger_total == epoch_sum == result.total_comm_bytes:
            fail(f"ledger total {ledger_total} != per-epoch sum {epoch_sum}")

        rounds = p.epochs * (cfg.dataset.per_client // p.batch_size)
        self.rows += p.clients * rounds * p.batch_size
        cut_width, segment, model = cut_geometry(cfg)
        phi, _ = p.effective_mechanisms()
        method = self.cost_method[p.kind]
        report = self.comm.reconcile(
            ledger, method,
            clients=p.clients, rounds=rounds, batch_size=p.batch_size,
            cut_width=cut_width,
            active_count=int(math.floor(phi * p.clients + 1e-9)),
            param_counts={"segment": model if p.kind == "fl" else segment,
                          "model": model},
        )
        for item in report.items:
            if item.measured_bytes != item.expected_bytes and not is_known_gap(
                method, item, p.epochs
            ):
                fail(f"reconcile {item.kind}: measured {item.measured_bytes} "
                     f"expected {item.expected_bytes}")
        self.mismatched_items += len(report.mismatches)
        rel = abs(report.measured_total - report.formula_total) / report.formula_total
        self.formula_total_rel_err = max(self.formula_total_rel_err, rel)

        self.ledger_entries += len(ledger.entries)
        for kind, nbytes in ledger.bytes_by_kind().items():
            self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + nbytes
