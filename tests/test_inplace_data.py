"""One copy of the data: in-place synthesis, row permutation and arrangement
against the gathers they replace, bit for bit, plus the checks that the
trainer now runs once on validation data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import comm, data, harness, nn, splitting
from splitsim.errors import InputError, NumericError
from splitsim.harness import ExperimentConfig
from splitsim.protocols import (
    STREAM_PARTITION,
    STREAM_SYNTH,
    STREAM_VALSPLIT,
    ProtocolConfig,
    SplitTrainer,
)

WIDTH = 3
BLOCK = 5  # rows per permute_rows block when ROW_BLOCK_BYTES is BLOCK_BYTES
BLOCK_BYTES = BLOCK * WIDTH * 8  # for WIDTH-wide float64 rows
SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
ORDERS = ["random", "identity", "reversed", "cycle"]


def make_order(kind, n, rng):
    if kind == "random":
        return rng.permutation(n)
    if kind == "identity":
        return np.arange(n)
    if kind == "reversed":
        return np.arange(n)[::-1].copy()
    return np.roll(np.arange(n), 1)  # one cycle through every row


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def reference_synth(n_classes, per_class, dim, separation, seed):
    """synth_dataset as it was written with whole-array temporaries."""
    rng = np.random.default_rng(seed)
    scale = separation / np.sqrt(2.0)
    features = np.empty((n_classes * per_class, dim))
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    for k in range(n_classes):
        mean = np.zeros(dim)
        mean[k] = scale
        block = slice(k * per_class, (k + 1) * per_class)
        features[block] = mean + rng.normal(size=(per_class, dim))
        labels[block] = k
    order = rng.permutation(len(labels))
    return features[order], labels[order]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(SIZES), kind=st.sampled_from(ORDERS), seed=st.integers(0, 2**16))
def test_permute_rows_equals_gather(n, kind, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, WIDTH))
    order = make_order(kind, n, rng)
    expected = a[order]
    with pytest.MonkeyPatch.context() as mp:  # fixtures are not reset per hypothesis example
        mp.setattr(data, "ROW_BLOCK_BYTES", BLOCK_BYTES)
        data.permute_rows(a, order)
    assert np.array_equal(bits(a), bits(expected))


@pytest.mark.parametrize("kind", ORDERS)
def test_permute_rows_on_labels_and_default_block(kind, monkeypatch):
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 9, size=3 * BLOCK + 7)
    order = make_order(kind, len(labels), rng)
    expected = labels[order]
    with monkeypatch.context() as mp:
        mp.setattr(data, "ROW_BLOCK_BYTES", 8 * BLOCK)
        data.permute_rows(labels, order)
    assert np.array_equal(labels, expected)
    wide = rng.normal(size=(600, 2000))  # 16 000-byte rows: 262 rows per default block
    order = make_order(kind, len(wide), rng)
    expected = wide[order]
    data.permute_rows(wide, order)
    assert np.array_equal(bits(wide), bits(expected))


@pytest.mark.parametrize("seed", [0, 1, 2, [5, STREAM_SYNTH]])
@pytest.mark.parametrize("shape", [(3, 7, 5), (4, 1, 4), (2, 40, 9)])
def test_synth_dataset_equals_temporary_formula(seed, shape):
    n_classes, per_class, dim = shape
    features, labels = reference_synth(n_classes, per_class, dim, 3.0, seed)
    ds = data.synth_dataset(n_classes, per_class, dim, 3.0, seed)
    assert np.array_equal(bits(ds.features), bits(features))
    assert np.array_equal(ds.labels, labels)


def reference_sets(full, n_val, clients, per_client, val_seed, part_seed):
    """The gathers of split_validation then partition_iid, as the harness
    used to build validation and clients."""
    if n_val:
        train, val = data.split_validation(full, n_val, seed=val_seed)
    else:
        train, val = full, full.subset(np.arange(0))
    part = data.partition_iid(train, clients, per_client, seed=part_seed)
    return train, val, [train.subset(ix) for ix in part]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    val_share=st.floats(0.0, 0.9),
    clients=st.integers(1, 4),
    fill=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_arrange_blocks_are_views_equal_to_gathers(n, val_share, clients, fill, seed):
    n_val = int(val_share * (n - 1))
    per_client = int(fill * (n - n_val) // clients)
    rng = np.random.default_rng(seed)
    original = data.Dataset(rng.normal(size=(n, WIDTH)), rng.integers(0, 3, size=n), 3)
    original.features[:, 0] = np.arange(n)  # row ids
    full = data.Dataset(original.features.copy(), original.labels.copy(), 3)
    _, ref_val, ref_clients = reference_sets(
        original, n_val, clients, per_client, [seed, 1], [seed, 2])

    val, views = data.arrange(full, n_val, clients, per_client, [seed, 1], [seed, 2])
    for got, want in zip([val, *views], [ref_val, *ref_clients]):
        assert np.array_equal(bits(got.features), bits(want.features))
        assert np.array_equal(got.labels, want.labels)
        if len(got):
            assert np.shares_memory(got.features, full.features)
            assert np.shares_memory(got.labels, full.labels)
    # Every row is kept whole: the rows nobody takes sit behind the clients.
    ids = full.features[:, 0].astype(np.int64)
    assert np.array_equal(bits(full.features), bits(original.features[ids]))
    assert np.array_equal(full.labels, original.labels[ids])
    taken = [ref_val.features[:, 0], *(c.features[:, 0] for c in ref_clients)]
    unused = np.setdiff1d(np.arange(n), np.concatenate(taken))
    assert np.array_equal(np.sort(ids[n_val + clients * per_client:]), unused)


def test_arrange_rejects_what_the_draws_reject():
    full = data.Dataset(np.zeros((10, 2)), np.zeros(10), 1)
    with pytest.raises(InputError, match="validation size"):
        data.arrange(full, 10, 1, 1, 0, 0)
    with pytest.raises(InputError, match="need 12 samples"):
        data.arrange(full, 4, 3, 4, 0, 0)


def synthetic_config(tmp_path, validation):
    return ExperimentConfig.from_dict({
        "protocol": {"kind": "sglr", "clients": 3, "batch_size": 4, "epochs": 1, "seed": 11},
        "dataset": {"kind": "synthetic", "classes": 3, "per_class": 30, "dim": 5,
                    "per_client": 20, "validation": validation},
        "model": {"hidden": [6], "cut_index": 2},
        "leakage": {"enabled": True, "probe": 16, "pairs": 4, "bins": 4},
    })


def idx_config(tmp_path, validation):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(40, 3, 2), dtype=np.uint8)
    labels = rng.integers(0, 4, size=40).astype(np.uint8)
    paths = tmp_path / "images", tmp_path / "labels"
    data.write_idx(*paths, images, labels)
    return ExperimentConfig.from_dict({
        "protocol": {"kind": "psl", "clients": 2, "batch_size": 4, "epochs": 1, "seed": 5},
        "dataset": {"kind": "idx", "images": str(paths[0]), "labels": str(paths[1]),
                    "per_client": 12, "validation": validation},
        "model": {"hidden": [4], "cut_index": 2},
        "leakage": {"enabled": True, "probe": 8, "pairs": 2, "bins": 4},
    })


def reference_build(cfg):
    """The set-up as it was: full dataset, split_validation, partition_iid,
    per-client gathers, and the probe from validation (else from train)."""
    ds, seed = cfg.dataset, cfg.protocol.seed
    if ds.kind == "idx":
        full = data.load_idx(ds.images, ds.labels)
    else:
        full = data.synth_dataset(ds.classes, ds.per_class, ds.dim, ds.separation,
                                  seed=[seed, STREAM_SYNTH])
    train, val, clients = reference_sets(full, ds.validation, cfg.protocol.clients,
                                         ds.per_client, [seed, STREAM_VALSPLIT],
                                         [seed, STREAM_PARTITION])
    probe = None
    if cfg.leakage.enabled and cfg.protocol.kind != "fl":
        probe = (val if len(val) else train).features[: cfg.leakage.probe]
    return clients, val, probe


@pytest.mark.parametrize("with_val", [True, False])
@pytest.mark.parametrize("make_config", [synthetic_config, idx_config])
def test_build_dataset_equals_the_gathers_and_shares_one_array(make_config, with_val, tmp_path):
    cfg = make_config(tmp_path, 10 if with_val else 0)
    clients, val, probe = harness.build_dataset(cfg)
    ref_clients, ref_val, ref_probe = reference_build(cfg)

    assert len(clients) == len(ref_clients) and len(val) == len(ref_val)
    base_x, base_y = clients[0].features.base, clients[0].labels.base
    for got, want in zip([val, *clients], [ref_val, *ref_clients]):
        assert np.array_equal(bits(got.features), bits(want.features))
        assert np.array_equal(got.labels, want.labels)
        if len(got):
            assert np.shares_memory(got.features, base_x)
            assert np.shares_memory(got.labels, base_y)
    # Without validation the probe is a copy of the rows as they were built.
    assert np.array_equal(bits(probe), bits(ref_probe))
    assert np.shares_memory(probe, base_x) == with_val

    # The trainer keeps the views, not copies.
    result = harness.run_experiment(cfg)
    base = result.trainer.clients[0].features.base
    assert base is not None
    assert all(np.shares_memory(c.features, base) for c in result.trainer.clients)
    if with_val:
        assert np.shares_memory(result.trainer.val_data[0], base)


def tiny_trainer_parts(rng):
    model = splitting.SplitModel(nn.build_mlp([3, 4, 2], rng), 2)
    clients = [(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4)) for _ in range(2)]
    return model, clients, ProtocolConfig(kind="psl", clients=2, batch_size=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_validation_features_rejected_at_build(bad):
    rng = np.random.default_rng(12)
    model, clients, cfg = tiny_trainer_parts(rng)
    val_x = rng.normal(size=(6, 3))
    val_x[4, 2] = bad
    with pytest.raises(NumericError, match="features of validation"):
        SplitTrainer(model, clients, cfg, val_data=(val_x, rng.integers(0, 2, size=6)))


def test_out_of_range_validation_labels_rejected_at_build():
    rng = np.random.default_rng(13)
    model, clients, cfg = tiny_trainer_parts(rng)
    with pytest.raises(InputError, match="validation needs a label in"):
        SplitTrainer(model, clients, cfg, val_data=(rng.normal(size=(3, 3)), [0, 2, 1]))


def test_validation_features_are_not_rechecked_each_epoch(monkeypatch):
    rng = np.random.default_rng(14)
    model, clients, cfg = tiny_trainer_parts(rng)
    val = (rng.normal(size=(7, 3)), rng.integers(0, 2, size=7))
    trainer = SplitTrainer(model, clients, cfg, val_data=val)
    expected = trainer.evaluate_on(*val)
    checked = []
    original = nn.check_finite
    monkeypatch.setattr(nn, "check_finite",
                        lambda x, where: (checked.append(where), original(x, where)))
    assert trainer._validation_accuracy() == expected
    assert checked and "network input" not in checked  # dense outputs only
    trainer.run_epoch(0)
    assert "network input" not in checked


def test_reconcile_accepts_exactly_the_cost_methods():
    for method in comm.METHODS:
        comm.reconcile(comm.CommLedger(), method, clients=1, rounds=1, batch_size=1,
                       cut_width=1, param_counts={"segment": 1, "model": 2})
    with pytest.raises(InputError, match="unknown method"):
        comm.reconcile(comm.CommLedger(), "sgl", clients=1, rounds=1, batch_size=1,
                       cut_width=1)


@settings(max_examples=30, deadline=None)
@given(
    classes=st.integers(1, 4),
    per_class=st.integers(4, 30),
    extra_dim=st.integers(0, 3),
    clients=st.integers(1, 3),
    with_val=st.booleans(),
    val_share=st.floats(0.0, 0.5),
    fill=st.floats(0.1, 1.0),
    probe_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_build_dataset_equals_reference_over_synthetic_geometries(
        classes, per_class, extra_dim, clients, with_val, val_share, fill, probe_share, seed):
    """The one composed move equals the synth shuffle followed by the gathers,
    with and without validation, and the probe equals the rows it used to copy."""
    n = classes * per_class
    validation = max(2, int(val_share * n)) if with_val else 0
    per_client = max(1, int(fill * (n - validation) // clients))
    if clients * per_client > n - validation:
        return
    bins = 2
    probe = max(bins, int(probe_share * (validation or n)))
    cfg = ExperimentConfig.from_dict({
        "protocol": {"kind": "sglr", "clients": clients, "batch_size": 1, "epochs": 1,
                     "seed": seed},
        "dataset": {"kind": "synthetic", "classes": classes, "per_class": per_class,
                    "dim": classes + extra_dim, "per_client": per_client,
                    "validation": validation},
        "model": {"hidden": [3], "cut_index": 2},
        "leakage": {"enabled": True, "probe": probe, "pairs": 2, "bins": bins},
    })
    clients_got, val, probe_got = harness.build_dataset(cfg)
    ref_clients, ref_val, ref_probe = reference_build(cfg)
    for got, want in zip([val, *clients_got], [ref_val, *ref_clients]):
        assert np.array_equal(bits(got.features), bits(want.features))
        assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(bits(probe_got), bits(ref_probe))


@pytest.mark.parametrize("with_val", [True, False])
@pytest.mark.parametrize("make_config", [synthetic_config, idx_config])
def test_build_dataset_moves_each_array_once(make_config, with_val, tmp_path, monkeypatch):
    cfg = make_config(tmp_path, 10 if with_val else 0)
    moved = []
    original = data.permute_rows
    monkeypatch.setattr(data, "permute_rows",
                        lambda a, order: (moved.append(a), original(a, order)))
    clients, _, _ = harness.build_dataset(cfg)
    assert len(moved) == 2
    assert moved[0] is clients[0].features.base and moved[1] is clients[0].labels.base


def test_synth_blocks_is_synth_dataset_before_its_shuffle():
    blocks, order = data.synth_blocks(3, 7, 5, 3.0, [4, STREAM_SYNTH])
    shuffled = data.synth_dataset(3, 7, 5, 3.0, [4, STREAM_SYNTH])
    assert np.array_equal(blocks.labels, np.repeat(np.arange(3), 7))
    assert np.array_equal(bits(blocks.features[order]), bits(shuffled.features))
    assert np.array_equal(blocks.labels[order], shuffled.labels)
