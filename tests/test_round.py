"""A round's C-independent plumbing: the row pool that each round gathers its
batch from with one ``take``, and the ledger calls that log one payload for
every client at once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import harness, nn, protocols, splitting
from splitsim.comm import CommLedger
from splitsim.data import synth_dataset
from splitsim.protocols import PROTOCOL_KINDS, ProtocolConfig, SplitTrainer


def make_model(seed=0, widths=(6, 10, 8, 4)):
    rng = protocols.keyed_rng(seed, protocols.STREAM_INIT)
    return splitting.SplitModel(nn.build_mlp(list(widths), rng), 2)


def make_clients(counts, layout, seed=0):
    """Client pairs as row slices of one dataset ("views", after ``skip``
    leading rows), or laid out so that the pool check must copy them: as
    separate copies ("copies"); with the labels sliced from other rows than
    the features ("shifted"); with features that start one element into a
    row ("misaligned"), that live in a bytearray ("buffers"), that each own
    the next slab of one buffer ("slabs"), that take every other row
    ("strided"), that are rows of a [N, 2, 3] array ("reshaped") or that
    are int64 bits read as floats ("retyped")."""
    skip = 3
    ds = synth_dataset(4, sum(counts) + skip + 1, 6, 4.0, seed)
    ends = np.cumsum([skip, *counts])
    spans = list(zip(ends, ends[1:]))
    pairs = [(ds.features[lo:hi], ds.labels[lo:hi]) for lo, hi in spans]
    xs = [x for x, _ in pairs]
    if layout == "copies":
        pairs = [(x.copy(), y.copy()) for x, y in pairs]
    elif layout == "shifted":
        pairs = [(x, ds.labels[lo + 1 : hi + 1]) for x, (lo, hi) in zip(xs, spans)]
    elif layout == "misaligned":
        flat = ds.features.reshape(-1)
        xs = [flat[lo * 6 + 1 : hi * 6 + 1].reshape(-1, 6) for lo, hi in spans]
    elif layout == "buffers":
        xs = [np.ndarray(x.shape, buffer=bytearray(x.tobytes())) for x in xs]
    elif layout == "slabs":
        pairs = list(zip(*(slabs(arrays) for arrays in zip(*pairs))))
    elif layout == "strided":
        pairs = [(ds.features[2 * lo : 2 * hi : 2], ds.labels[2 * lo : 2 * hi : 2])
                 for lo, hi in spans]
    elif layout == "reshaped":
        cube = ds.features.reshape(-1, 2, 3).copy()
        xs = [cube[lo:hi].reshape(-1, 6) for lo, hi in spans]
    elif layout == "retyped":
        bits = ds.features.view(np.int64).copy()
        xs = [bits[lo:hi].view(np.float64) for lo, hi in spans]
    if layout in ("misaligned", "buffers", "reshaped", "retyped"):
        pairs = [(x, y) for x, (_, y) in zip(xs, pairs)]
    return pairs


def slabs(arrays):
    """Copies of ``arrays`` that each own the next slab of one bytearray, as
    views: the first one's base knows nothing of the others."""
    buf = bytearray(b"".join(a.tobytes() for a in arrays))
    offsets = np.cumsum([0, *(a.nbytes for a in arrays[:-1])])
    return [np.ndarray(a.shape, a.dtype, buf, int(o))[:] for a, o in zip(arrays, offsets)]


def spy_round_inputs(monkeypatch):
    """Record the client-stack input and the labels of every round: the ones
    ``nn.loss_softmax_ce`` gets, which every kind calls once a round."""
    seen = []
    forward, loss_softmax_ce = nn.forward, nn.loss_softmax_ce

    def spy_forward(layers, x, **kw):
        if x.ndim == 3:
            seen.append([x.copy(), None])
        return forward(layers, x, **kw)

    def spy_loss(logits, y, **kw):
        seen[-1][1] = y.copy()
        return loss_softmax_ce(logits, y, **kw)

    monkeypatch.setattr(nn, "forward", spy_forward)
    monkeypatch.setattr(nn, "loss_softmax_ce", spy_loss)
    return seen


@pytest.mark.parametrize("kind", ["psl", "ssl"])
@pytest.mark.parametrize("layout", ["views", "copies", "shifted", "misaligned", "buffers",
                                    "slabs", "strided", "reshaped", "retyped"])
@settings(max_examples=15, deadline=None)
@given(counts=st.lists(st.integers(1, 13), min_size=1, max_size=4),
       batch=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_pooled_gather_equals_per_client_take(kind, layout, counts, batch, seed):
    """Every round's stacked input and labels equal each client's own
    ``take`` of its batch rows, concatenated, for one base pair and for the
    fallback pool; clients keep views of the pool."""
    pairs = make_clients(counts, layout, seed)
    cfg = ProtocolConfig(kind=kind, clients=len(counts), batch_size=batch, seed=seed)
    trainer = SplitTrainer(make_model(seed), pairs, cfg)
    pool_x, pool_y = trainer._x, trainer._y
    for client, (x, y) in zip(trainer.clients, pairs):
        assert np.array_equal(client.features, x) and np.array_equal(client.labels, y)
        assert client.features.base is pool_x and client.labels.base is pool_y
    if layout == "views":
        assert pool_x is pairs[0][0].base and pool_y is pairs[0][1].base
    elif layout in ("copies", "shifted"):
        assert pool_x.base is None and len(pool_x) == sum(counts)

    batches = [trainer._batches_for(c, 0) for c in trainer.clients]
    if kind == "ssl":
        turns = [[cid] for cid in range(len(counts))]
    else:
        turns = [list(range(len(counts)))]
    want, firsts = [], []
    for ids in turns:
        for r in range(min(len(batches[cid]) for cid in ids)):
            x = np.concatenate([pairs[cid][0].take(batches[cid][r], 0) for cid in ids])
            y = np.concatenate([pairs[cid][1].take(batches[cid][r]) for cid in ids])
            want.append((x.reshape(len(ids), batch, -1), y.reshape(len(ids), batch)))
            if r == 0:
                firsts.append((ids, want[-1]))
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_round_inputs(mp)
        trainer.run_epoch(0)
        for ids, first in firsts[:1]:
            trainer._parallel_round({cid: batches[cid][0] for cid in ids}, [])
            want.append(first)
    assert len(seen) == len(want)
    for (x, y), (want_x, want_y) in zip(seen, want):
        assert np.array_equal(x, want_x) and np.array_equal(y, want_y)


def test_harness_trainer_gathers_from_the_dataset_itself():
    """A harness run's pool is the arranged dataset, whose rows the
    validation set and every client view: the trainer copies no data."""
    cfg = harness.ExperimentConfig.from_dict({
        "protocol": {"kind": "sglr", "clients": 3, "active_fraction": 0.5,
                     "batch_size": 4, "epochs": 1, "seed": 1},
        "dataset": {"kind": "synthetic", "classes": 3, "per_class": 40, "dim": 5,
                    "separation": 4.0, "per_client": 20, "validation": 30},
        "model": {"hidden": [6], "cut_index": 2},
    })
    trainer = harness.run_experiment(cfg).trainer
    pool_x, pool_y = trainer._x, trainer._y
    val_x, val_y = trainer.val_data
    assert pool_x is val_x.base and pool_y is val_y.base
    assert pool_x.shape == (120, 5)
    for client in trainer.clients:
        assert np.shares_memory(client.features, pool_x)
        assert np.shares_memory(client.labels, pool_y)
        assert not np.shares_memory(client.features, val_x)


def one_at_a_time(trainer, records, batch, width):
    """The ledger of a finished run, written out payload by payload with
    ``record`` (the per-client loops the trainer logged before batching),
    and the payloads in order as (direction, kind, client, nbytes, step)."""
    cfg, kind = trainer.config, trainer.kind
    ledger, payloads, step = CommLedger(), [], 0
    weights = trainer.stack.flat.shape[1] * 8
    clients = range(cfg.clients)
    row = batch * width * 8

    def log(direction, payload, cid, nbytes):
        ledger.record(direction, payload, cid, nbytes)
        payloads.append((direction, payload, cid, nbytes, step))

    for rec in records:
        turns = [[cid] for cid in clients] if kind.travelling else [list(clients)]
        for ids in turns:
            for _ in range(min(len(trainer.clients[cid].labels) // batch for cid in ids)):
                if kind.server:
                    for cid in ids:
                        log("up", "smashed", cid, row)
                    if rec.active_ids:
                        log("down", "cut-grad", None, row)
                    for cid in ids:
                        if cid not in rec.active_ids:
                            log("down", "cut-grad", cid, row)
                step += 1
                if kind.loc_avg:
                    for cid in clients:
                        log("up", "model-weights", cid, weights)
                    for cid in clients:
                        log("down", "model-weights", cid, weights)
            if kind.travelling:
                log("up", "model-weights", ids[0], weights)
                log("down", "model-weights", (ids[0] + 1) % cfg.clients, weights)
    return ledger, payloads


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize("counts", [[12, 12, 12, 12], [9, 16, 4, 13]])
def test_two_epoch_ledger_equals_one_id_at_a_time(kind, counts, payload_log):
    batch = 4
    model = make_model(seed=2)
    cfg = ProtocolConfig(kind=kind, clients=len(counts), active_fraction=0.5,
                         lr_exponent=0.5, batch_size=batch, epochs=2, seed=7)
    ledger = CommLedger()
    trainer = SplitTrainer(model, make_clients(counts, "views", seed=3), cfg, ledger=ledger)
    payloads = payload_log(trainer)
    records = trainer.run()
    want, want_payloads = one_at_a_time(trainer, records, batch,
                                        model.client_segment[0].out_dim)
    assert payloads == want_payloads
    assert ledger.entries == want.entries
    assert ledger.total_bytes() == want.total_bytes()
    assert payloads


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=120, deadline=None)
@given(
    ids=st.integers(1, 20),
    count=st.integers(1, 20),
    shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (3, 2), (8, 1), (8, 3)]),
    zeros=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_active_sum_equals_the_id_order_loop(ids, count, shape, zeros, seed):
    """The cut-gradient sum of a round, bit for bit as split_avg's loop adds
    the rows in id order: rows of one element and of many, signed zeros."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(ids, *shape)) * 10.0 ** rng.integers(-8, 9, size=(ids, 1, 1))
    zeroed = rng.uniform(size=rows.shape) < zeros
    rows[zeroed] = np.where(rng.uniform(size=zeroed.sum()) < 0.5, -0.0, 0.0)
    active = sorted(rng.choice(ids, size=min(count, ids), replace=False).tolist())
    want = np.zeros(shape)
    for cid in active:
        want += rows[cid]
    assert np.array_equal(bits(protocols.active_sum(rows, active)), bits(want))


def test_ssl_round_runs_one_chain(monkeypatch):
    """ssl's one row and its server row are one model: a round makes one
    ``nn.forward``, one loss and one ``nn.backward`` over the chain, and no
    separate server pass."""
    cfg = ProtocolConfig(kind="ssl", clients=3, batch_size=4, seed=1)
    trainer = SplitTrainer(make_model(seed=1), make_clients([8, 8, 8], "views", seed=1), cfg)
    calls = []
    for owner, name in ((nn, "forward"), (nn, "backward"), (nn, "loss_softmax_ce"),
                        (splitting, "server_gradients")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **kw:
                            (calls.append(_n), _f(*a, **kw))[1])
    trainer._parallel_round({1: trainer._batches_for(trainer.clients[1], 0)[0]}, [])
    assert calls == ["forward", "loss_softmax_ce", "backward"]


# The Dense outputs of make_model's client and server segments, then of the
# whole model, which fl's clients hold and which ssl's one row and its server
# row run as, in one chain.
SPLIT_OUTPUTS = ["output of layer 0 (dense)"] * 2 + ["output of layer 2 (dense)"]
FULL_OUTPUTS = [f"output of layer {i} (dense)" for i in (0, 2, 4)]


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_one_round_checks_each_dense_output_once_and_steps_once(kind, monkeypatch):
    """One ``_parallel_round`` calls ``nn.check_finite`` once per Dense output
    of the client stack and of the server, and ``nn.optimizer_step`` once,
    over the whole buffer: the counts that perfbench reads as
    ``nn.check_finite.calls`` and ``nn.optimizer_step.*``."""
    cfg = ProtocolConfig(kind=kind, clients=3, active_fraction=0.7, batch_size=4, seed=1)
    trainer = SplitTrainer(make_model(seed=1), make_clients([8, 8, 8], "views", seed=1), cfg)
    ids = [1] if trainer.kind.travelling else [0, 1, 2]
    batch_ix = {cid: trainer._batches_for(trainer.clients[cid], 0)[0] for cid in ids}
    checked, steps = [], []
    check_finite, optimizer_step = nn.check_finite, nn.optimizer_step
    monkeypatch.setattr(nn, "check_finite",
                        lambda x, where: (checked.append(where), check_finite(x, where)))
    monkeypatch.setattr(nn, "optimizer_step",
                        lambda *args: (steps.append(args), optimizer_step(*args))[1])
    trainer._parallel_round(batch_ix, [0, 2] if trainer.kind.grad_avg else [])
    one_chain = not trainer.kind.server or trainer.kind.travelling
    assert checked == (FULL_OUTPUTS if one_chain else SPLIT_OUTPUTS)
    assert len(steps) == 1
    params, _, state, *_ = steps[0]
    assert state is trainer.buffer.opt and state.t == 1
    assert sum(p.size for p in params) == trainer.buffer.params.size
