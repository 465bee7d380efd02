"""Closed-form communication/time formulas and ledger reconciliation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitsim import nn, splitting
from splitsim.comm import (
    CommLedger,
    CostParams,
    comm_per_client,
    cost_table_csv,
    reconcile,
    reduction_percent,
    total_comm,
    training_time,
)
from splitsim.data import synth_dataset
from splitsim.errors import InputError
from splitsim.protocols import ProtocolConfig, SplitTrainer, keyed_rng


REFERENCE = CostParams(
    cut_size_mb=0.024,
    model_size_mb=200.0,
    client_size_mb=67.0,
    dataset_size=50_000,
    clients=100,
    active_fraction=0.5,
)


class TestPerClient:
    def test_sglr_degenerate_single(self):
        p = CostParams(1.0, 0.0, 0.0, dataset_size=1, clients=1, active_fraction=1.0)
        assert comm_per_client("sglr", p) == pytest.approx(2.0)

    def test_fl_row(self):
        assert comm_per_client("fl", REFERENCE) == pytest.approx(400.0)

    def test_sglr_reference_setting(self):
        assert comm_per_client("sglr", REFERENCE) == pytest.approx(18.00024)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            comm_per_client("bogus", REFERENCE)


class TestTotal:
    def test_sglr_reference(self):
        assert total_comm("sglr", REFERENCE) == pytest.approx(1800.024)

    def test_sfl_reference(self):
        assert total_comm("sfl", REFERENCE) == pytest.approx(15800.0)

    def test_fl_reference(self):
        assert total_comm("fl", REFERENCE) == pytest.approx(40000.0)

    def test_per_client_times_clients_consistency(self):
        for method in ("fl", "ssl", "sfl", "sglr", "psl"):
            assert total_comm(method, REFERENCE) == pytest.approx(
                comm_per_client(method, REFERENCE) * REFERENCE.clients
            )


class TestReduction:
    def test_sglr_vs_sfl_is_88_6(self):
        assert reduction_percent("sglr", "sfl", REFERENCE) == pytest.approx(
            88.6, abs=0.05
        )

    def test_sglr_vs_fl_is_95_499(self):
        assert reduction_percent("sglr", "fl", REFERENCE) == pytest.approx(
            95.499, abs=0.001
        )

    def test_self_reduction_zero(self):
        assert reduction_percent("sfl", "sfl", REFERENCE) == 0.0

    def test_zero_reference_rejected(self):
        p = CostParams(0.0, 0.0, 0.0, dataset_size=1, clients=1)
        with pytest.raises(InputError):
            reduction_percent("sglr", "psl", p)


class TestTrainingTime:
    def test_infinite_link_leaves_compute_only(self):
        p = CostParams(0.024, 200.0, 67.0, 50_000, 100, 0.5,
                       link_rate=1e12, compute_time=3.5)
        for method in ("fl", "ssl", "sfl", "sglr"):
            assert training_time(method, p) == pytest.approx(3.5, abs=1e-3)

    def test_active_fraction_validated(self):
        with pytest.raises(InputError):
            CostParams(0.024, 200.0, 67.0, 50_000, 100, active_fraction=2.0)

    def test_sglr_faster_than_sfl_on_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = CostParams(
                cut_size_mb=float(rng.uniform(0.001, 0.1)),
                model_size_mb=float(rng.uniform(10, 500)),
                client_size_mb=float(rng.uniform(1, 100)),
                dataset_size=int(rng.integers(1_000, 2_000_000)),
                clients=int(rng.integers(2, 200)),
                active_fraction=float(rng.uniform(0, 1)),
                link_rate=float(rng.uniform(0.1, 100)),
                compute_time=float(rng.uniform(0, 10)),
            )
            assert training_time("sglr", p) < training_time("sfl", p)


class TestMonotonicity:
    def test_total_sglr_strictly_decreasing_in_phi(self):
        values = []
        for phi in np.linspace(0, 1, 11):
            p = CostParams(0.024, 200.0, 67.0, 50_000, 100, float(phi))
            values.append(total_comm("sglr", p))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCostTable:
    def test_empty_methods_header_only(self):
        out = cost_table_csv([], [REFERENCE])
        assert out.count("\n") == 1
        assert out.startswith("name,method")

    def test_rows_match_calculators(self):
        out = cost_table_csv(["sglr"], [REFERENCE], names=["reference"])
        line = out.strip().split("\n")[1].split(",")
        assert line[0] == "reference"
        assert float(line[-2]) == pytest.approx(total_comm("sglr", REFERENCE))


class TestLedger:
    def test_conservation(self):
        ledger = CommLedger()
        ledger.record("up", "smashed", 0, 100, 0)
        ledger.record("down", "cut-grad", 0, 60, 0)
        ledger.record("down", "cut-grad", None, 40, 0)
        assert ledger.total_bytes() == 200
        assert sum(ledger.bytes_by_kind().values()) == 200
        assert sum(ledger.bytes_by_client().values()) == 200
        assert ledger.broadcast_bytes() == 40

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            CommLedger().record("up", "carrier-pigeon", 0, 1, 0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["up", "down"]),
                st.sampled_from(["smashed", "cut-grad", "model-weights"]),
                st.one_of(st.none(), st.integers(0, 9)),
                st.integers(0, 10**12),
            ),
            max_size=60,
        )
    )
    def test_running_total_equals_entry_sum(self, records):
        ledger = CommLedger()
        for r, (direction, kind, client, nbytes) in enumerate(records):
            ledger.record(direction, kind, client, nbytes, r)
            assert ledger.total_bytes() == sum(e.nbytes for e in ledger.entries)
        assert CommLedger(entries=list(ledger.entries)).total_bytes() == ledger.total_bytes()


def run_with_ledger(kind, clients, rounds, batch, cut_width, seed=0, **cfg_kw):
    """Tiny protocol run sized for exactly ``rounds`` full batches."""
    per_client = rounds * batch
    ds = synth_dataset(2, per_client * clients, max(cut_width, 4), 3.0, seed)
    data = [
        (ds.features[i * per_client : (i + 1) * per_client],
         ds.labels[i * per_client : (i + 1) * per_client])
        for i in range(clients)
    ]
    rng = keyed_rng(seed, 0)
    layers = nn.build_mlp([ds.features.shape[1], cut_width, 4, 2], rng)
    model = splitting.SplitModel(layers, 2)  # dense+relu on the client
    ledger = CommLedger()
    config = ProtocolConfig(
        kind=kind, clients=clients, batch_size=batch, epochs=1, seed=seed,
        **cfg_kw,
    )
    trainer = SplitTrainer(model, data, config, ledger=ledger)
    trainer.run_epoch(0)
    return trainer, ledger


class TestReconcile:
    def test_psl_uploads_counting_oracle(self):
        _, ledger = run_with_ledger("psl", clients=2, rounds=1, batch=4, cut_width=5)
        up = sum(e.nbytes for e in ledger.entries if e.direction == "up")
        assert up == 2 * 4 * 5 * 8

    def test_psl_reconciles_exactly(self):
        _, ledger = run_with_ledger("psl", clients=2, rounds=2, batch=4, cut_width=5)
        report = reconcile(
            ledger, "psl", clients=2, rounds=2, batch_size=4, cut_width=5
        )
        assert report.ok
        for item in report.items:
            assert item.relative_error == 0.0

    def test_sglr_broadcast_once_per_round(self):
        _, ledger = run_with_ledger(
            "sglr", clients=3, rounds=2, batch=4, cut_width=5, active_fraction=1.0
        )
        broadcasts = [e for e in ledger.entries if e.client_id is None]
        assert len(broadcasts) == 2  # one per round, not one per client
        assert all(e.nbytes == 4 * 5 * 8 for e in broadcasts)

    def test_sglr_reconciles(self):
        trainer, ledger = run_with_ledger(
            "sglr", clients=4, rounds=2, batch=4, cut_width=5, active_fraction=0.5
        )
        report = reconcile(
            ledger, "sglr", clients=4, rounds=2, batch_size=4, cut_width=5,
            active_count=2,
        )
        for item in report.items:
            assert item.relative_error < 1e-12

    def test_fl_parameter_count_oracle(self):
        per_client, clients = 8, 2
        ds = synth_dataset(2, per_client * clients, 4, 3.0, 1)
        data = [
            (ds.features[i * per_client : (i + 1) * per_client],
             ds.labels[i * per_client : (i + 1) * per_client])
            for i in range(clients)
        ]
        rng = keyed_rng(1, 0)
        layers = nn.build_mlp([4, 6, 2], rng)
        model = splitting.SplitModel(layers, 2)
        ledger = CommLedger()
        trainer = SplitTrainer(
            model, data,
            ProtocolConfig(kind="fl", clients=clients, batch_size=8, epochs=1, seed=1),
            ledger=ledger,
        )
        trainer.run_epoch(0)
        n_params = nn.param_count(trainer.clients[0].layers)
        assert ledger.total_bytes() == 2 * clients * n_params * 8
