"""The epoch loop's ledger for every protocol kind: itemized reconciliation
against the cost model, the closed-form run total over epochs, the ssl
hand-off sequence, and the kind -> cost-row map the benchmark's checker
reads."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import comm, harness, nn, protocols, splitting
from splitsim.comm import CommLedger
from splitsim.data import synth_dataset
from splitsim.errors import InputError
from splitsim.protocols import PROTOCOL_KINDS, ProtocolConfig, SplitTrainer


def make_model(seed=0, widths=(6, 10, 8, 4), cut=2):
    rng = protocols.keyed_rng(seed, protocols.STREAM_INIT)
    return splitting.SplitModel(nn.build_mlp(list(widths), rng), cut)


def make_clients(counts, seed=0, dim=6, classes=4):
    ds = synth_dataset(classes, sum(counts), dim, 4.0, seed)
    bounds = np.cumsum([0, *counts])
    return [(ds.features[lo:hi], ds.labels[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def test_kinds_table_drives_mechanisms():
    assert PROTOCOL_KINDS == ("ssl", "psl", "fl", "sfl", "slr", "sgl", "sglr")
    want = {"ssl": (0, 0), "psl": (0, 0), "fl": (0, 0), "sfl": (0, 0),
            "slr": (0, 0.5), "sgl": (0.25, 0), "sglr": (0.25, 0.5)}
    for kind in PROTOCOL_KINDS:
        cfg = ProtocolConfig(kind=kind, clients=4, active_fraction=0.25, lr_exponent=0.5)
        assert cfg.effective_mechanisms() == want[kind]
    assert [k for k, row in protocols.KINDS.items() if not row.server] == ["fl"]
    assert [k for k, row in protocols.KINDS.items() if row.travelling] == ["ssl"]
    assert [k for k, row in protocols.KINDS.items() if row.loc_avg] == ["fl", "sfl"]


def test_cost_method_covers_every_kind():
    assert set(harness.COST_METHOD) == set(PROTOCOL_KINDS)
    assert all(harness.COST_METHOD[kind] in comm.METHODS for kind in PROTOCOL_KINDS)


def test_kinds_sharing_a_cost_method_share_its_switches():
    """comm reads one row of KINDS per cost method, so every kind of a method
    (psl/slr, sgl/sglr) must agree on the switches the cost model reads."""
    cost_switches = ("server", "grad_avg", "loc_avg", "travelling")
    by_method = {}
    for name, row in protocols.KINDS.items():
        by_method.setdefault(row.cost, []).append(name)
        first = protocols.KINDS[by_method[row.cost][0]]
        for switch in cost_switches:
            assert getattr(row, switch) == getattr(first, switch), (name, switch)
    assert sorted(by_method) == sorted(comm.METHODS)
    assert by_method["psl"] == ["psl", "slr"] and by_method["sglr"] == ["sgl", "sglr"]


@pytest.mark.parametrize("method", ["sgl", "slr", "bogus"])
def test_cost_model_rejects_a_kind_that_is_no_method(method):
    p = comm.CostParams(1.0, 2.0, 1.0, dataset_size=10, clients=2)
    for cost in (comm.total_comm, comm.comm_per_client, comm.training_time):
        with pytest.raises(InputError):
            cost(method, p)
    with pytest.raises(InputError):
        comm.reconcile(CommLedger(), method, clients=2, rounds=1, batch_size=1, cut_width=1)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_one_epoch_ledger_reconciles_exactly(kind):
    clients, batch, rounds = 4, 4, 3
    model = make_model(seed=5)
    cfg = ProtocolConfig(kind=kind, clients=clients, active_fraction=0.5,
                         lr_exponent=0.5, batch_size=batch, epochs=1, seed=9)
    ledger = CommLedger()
    trainer = SplitTrainer(model, make_clients([rounds * batch] * clients, seed=2), cfg,
                           ledger=ledger)
    trainer.run_epoch(0)
    phi, _ = cfg.effective_mechanisms()
    segment = model.layers if kind == "fl" else model.client_segment
    report = comm.reconcile(
        ledger, harness.COST_METHOD[kind], clients=clients, rounds=rounds,
        batch_size=batch, cut_width=model.client_segment[0].out_dim,
        active_count=int(math.floor(phi * clients + 1e-9)),
        param_counts={"segment": nn.param_count(segment),
                      "model": nn.param_count(model.layers)},
    )
    assert report.items
    for item in report.items:
        assert item.measured_bytes == item.expected_bytes, item.kind
    assert trainer.steps == (rounds * clients if kind == "ssl" else rounds)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@settings(max_examples=25, deadline=None)
@given(clients=st.integers(1, 6), batch=st.integers(1, 8), rows=st.integers(1, 40),
       phi=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_one_epoch_ledger_reconciles_over_random_geometry(kind, clients, batch, rows, phi, seed):
    """One epoch only: ssl hands its segment on once per epoch, which reconcile
    does not yet scale by the epoch count."""
    model = make_model(seed=seed)
    cfg = ProtocolConfig(kind=kind, clients=clients, active_fraction=phi,
                         lr_exponent=0.5, batch_size=batch, epochs=1, seed=seed)
    ledger = CommLedger()
    trainer = SplitTrainer(model, make_clients([rows] * clients, seed=seed), cfg,
                           ledger=ledger)
    record = trainer.run_epoch(0)
    segment = model.layers if kind == "fl" else model.client_segment
    report = comm.reconcile(
        ledger, harness.COST_METHOD[kind], clients=clients, rounds=rows // batch,
        batch_size=batch, cut_width=model.client_segment[0].out_dim,
        active_count=len(record.active_ids),
        param_counts={"segment": nn.param_count(segment),
                      "model": nn.param_count(model.layers)},
    )
    assert report.items
    for item in report.items:
        assert item.measured_bytes == item.expected_bytes, item.kind
    phi, _ = cfg.effective_mechanisms()
    assert len(record.active_ids) == int(math.floor(phi * clients + 1e-9))


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@settings(max_examples=15, deadline=None)
@given(clients=st.integers(1, 5), batch=st.integers(1, 6), rows=st.integers(1, 30),
       phi=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_three_epoch_ledger_reconciles_over_random_geometry(kind, clients, batch, rows, phi, seed):
    """With ``epochs`` passed, ssl's hand-off in every epoch reconciles too."""
    epochs = 3
    model = make_model(seed=seed)
    cfg = ProtocolConfig(kind=kind, clients=clients, active_fraction=phi,
                         lr_exponent=0.5, batch_size=batch, epochs=epochs, seed=seed)
    ledger = CommLedger()
    trainer = SplitTrainer(model, make_clients([rows] * clients, seed=seed), cfg,
                           ledger=ledger)
    records = trainer.run()
    segment = model.layers if kind == "fl" else model.client_segment
    report = comm.reconcile(
        ledger, harness.COST_METHOD[kind], clients=clients, rounds=epochs * (rows // batch),
        batch_size=batch, cut_width=model.client_segment[0].out_dim,
        active_count=len(records[0].active_ids), epochs=epochs,
        param_counts={"segment": nn.param_count(segment),
                      "model": nn.param_count(model.layers)},
    )
    assert report.items
    for item in report.items:
        assert item.measured_bytes == item.expected_bytes, item.kind


def parent_formula_total(method, *, clients, rounds, batch_size, cut_width, active_count,
                         param_counts):
    """The closed-form run total as ``reconcile`` computed it inline before
    ``comm.formula_total`` existed: one epoch over all of the run's rounds."""
    sl_bytes = cut_width * comm.BYTES_PER_SCALAR
    d_total = clients * (rounds * batch_size)
    phi = active_count / clients if clients else 0.0
    p = comm.CostParams(
        cut_size_mb=sl_bytes / comm.MB,
        model_size_mb=(param_counts or {}).get("model", 0) * comm.BYTES_PER_SCALAR / comm.MB,
        client_size_mb=(param_counts or {}).get("segment", 0) * comm.BYTES_PER_SCALAR / comm.MB,
        dataset_size=d_total,
        clients=clients,
        active_fraction=phi,
    )
    return comm.total_comm(method, p) * comm.MB


@st.composite
def geometries(draw):
    clients = draw(st.integers(1, 200))
    segment = draw(st.integers(0, 10**6))
    return dict(clients=clients, rounds=draw(st.integers(1, 60)),
                batch_size=draw(st.integers(1, 64)), cut_width=draw(st.integers(1, 1024)),
                active_count=draw(st.integers(0, clients)),
                param_counts={"segment": segment,
                              "model": segment + draw(st.integers(0, 10**6))})


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@settings(max_examples=60, deadline=None)
@given(geometry=geometries(), epochs=st.integers(1, 4))
def test_formula_total_counts_every_epoch(kind, geometry, epochs):
    """At one epoch the closed form is bit for bit the one ``reconcile`` used
    before it counted epochs, except that a gradient-averaging method in
    which no client averages costs psl's total, since it sends no broadcast;
    over E epochs it is E times one epoch."""
    method = harness.COST_METHOD[kind]
    one = comm.formula_total(method, **geometry)
    averages = geometry["active_count"] >= 1 or not protocols.KINDS[kind].grad_avg
    assert one == parent_formula_total(method if averages else "psl", **geometry)
    assert comm.reconcile(CommLedger(), method, **geometry).formula_total == one
    run = {**geometry, "rounds": epochs * geometry["rounds"]}
    assert comm.formula_total(method, **run, epochs=epochs) == pytest.approx(epochs * one,
                                                                            rel=1e-12)
    assert comm.reconcile(CommLedger(), method, **run, epochs=epochs).formula_total == (
        comm.formula_total(method, **run, epochs=epochs))


def test_ssl_hands_off_after_each_clients_batches(payload_log):
    counts, batch = [8, 12, 4, 9], 4
    model = make_model(seed=3)
    ledger = CommLedger()
    trainer = SplitTrainer(model, make_clients(counts, seed=4),
                           ProtocolConfig(kind="ssl", clients=len(counts), batch_size=batch),
                           ledger=ledger)
    payloads = payload_log(trainer)
    trainer.run_epoch(0)
    nbytes = nn.param_count(model.client_segment) * 8
    after = np.cumsum([n // batch for n in counts]).tolist()
    want = []
    for cid, steps in enumerate(after):
        want.append(("up", cid, nbytes, steps))
        want.append(("down", (cid + 1) % len(counts), nbytes, steps))
    got = [(direction, cid, n, step)
           for direction, kind, cid, n, step in payloads if kind == "model-weights"]
    assert got == want
    assert trainer.steps == after[-1]
