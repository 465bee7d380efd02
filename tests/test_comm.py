"""Closed-form communication/time formulas and ledger reconciliation."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitsim import nn, splitting
from splitsim.comm import (
    COST_COLUMNS,
    PAYLOAD_KINDS,
    CommLedger,
    CostParams,
    ReconcileItem,
    ReconcileReport,
    comm_per_client,
    cost_rows,
    reconcile,
    reduction_percent,
    total_comm,
    training_time,
)
from splitsim.data import synth_dataset
from splitsim.errors import InputError
from splitsim.harness import emit_cost_report
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
        assert cost_rows([], [("reference", REFERENCE)]) == []
        assert emit_cost_report(methods=()) == ",".join(COST_COLUMNS) + "\n"

    def test_rows_match_calculators(self):
        [row] = cost_rows(["sglr"], [("reference", REFERENCE)])
        assert list(row) == list(COST_COLUMNS)
        assert row["name"] == "reference"
        assert float(row["total_mb"]) == pytest.approx(total_comm("sglr", REFERENCE))


class TestLedger:
    def test_conservation(self):
        ledger = CommLedger()
        ledger.record("up", "smashed", 0, 100)
        ledger.record("down", "cut-grad", 0, 60)
        ledger.record("down", "cut-grad", None, 40)
        assert ledger.total_bytes() == 200
        assert sum(ledger.bytes_by_kind().values()) == 200
        assert ledger.broadcast_bytes() == 40

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            CommLedger().record("up", "carrier-pigeon", 0, 1)

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
        ledger, want = CommLedger(), {}
        for r, (direction, kind, client, nbytes) in enumerate(records):
            ledger.record(direction, kind, client, nbytes)
            key = (direction, kind, client)
            want[key] = want.get(key, 0) + nbytes
            assert ledger.entries == want
            assert ledger.total_bytes() == sum(n for *_, n in records[: r + 1])
        assert CommLedger(entries=Counter(ledger.entries)).total_bytes() == ledger.total_bytes()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["up", "down"]),
                st.sampled_from(["smashed", "cut-grad", "model-weights"]),
                st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=6),
                st.integers(0, 10**12),
            ),
            max_size=20,
        )
    )
    def test_record_each_equals_repeated_record(self, payloads):
        each, one = CommLedger(), CommLedger()
        for direction, kind, clients, nbytes in payloads:
            each.record_each(direction, kind, clients, nbytes)
            for client in clients:
                one.record(direction, kind, client, nbytes)
        assert each.entries == one.entries
        assert each.total_bytes() == one.total_bytes() == sum(
            nbytes * len(clients) for *_, clients, nbytes in payloads)

    @pytest.mark.parametrize("kind, nbytes", [("carrier-pigeon", 1), ("smashed", -1),
                                              ("smashed", float("nan"))])
    def test_record_each_rejects_bad_payloads(self, kind, nbytes):
        ledger = CommLedger()
        with pytest.raises(InputError):
            ledger.record_each("up", kind, [0, 1], nbytes)
        with pytest.raises(InputError):
            ledger.record("up", kind, 0, nbytes)
        assert not ledger.entries and ledger.total_bytes() == 0


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
    @pytest.mark.parametrize("measured, error", [(0, 0.0), (8, float("inf"))])
    def test_zero_expected_bytes(self, measured, error):
        """Against 0 expected bytes, 0 measured is exact and anything else is
        an infinite error that fails the report."""
        item = ReconcileItem("model-weights", measured, 0)
        assert item.relative_error == error
        assert ReconcileReport([item], measured, float(measured)).ok == (measured == 0)

    def test_psl_uploads_counting_oracle(self):
        _, ledger = run_with_ledger("psl", clients=2, rounds=1, batch=4, cut_width=5)
        up = sum(n for (direction, _, _), n in ledger.entries.items() if direction == "up")
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
        assert ledger.broadcast_bytes() == 2 * 4 * 5 * 8  # one per round, not one per client

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

    def test_sfl_at_100_clients_keeps_one_counter_per_key(self):
        """LocAvg after every round sends 2 * C weight payloads a round, but the
        ledger holds one counter per (direction, kind, client or broadcast)."""
        clients, rounds, batch, width = 100, 3, 2, 5
        trainer, ledger = run_with_ledger("sfl", clients=clients, rounds=rounds, batch=batch,
                                          cut_width=width)
        assert len(ledger.entries) <= 2 * len(PAYLOAD_KINDS) * (clients + 1)
        report = reconcile(ledger, "sfl", clients=clients, rounds=rounds, batch_size=batch,
                           cut_width=width,
                           param_counts={"segment": trainer.stack.flat.shape[1]})
        assert [item.kind for item in report.items] == ["smashed", "cut-grad", "model-weights"]
        for item in report.items:
            assert item.measured_bytes == item.expected_bytes, item.kind
        assert sum(item.measured_bytes for item in report.items) == ledger.total_bytes()

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
