"""Dataset loading, synthesis, partitioning, and split tests."""

import struct

import numpy as np
import pytest

from splitsim import data, nn, protocols, splitting
from splitsim.errors import FormatError, InputError


class TestIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 5, 4), dtype=np.uint8)
        labels = np.array([3, 1], dtype=np.uint8)
        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        data.write_idx(ip, lp, images, labels)
        ds = data.load_idx(ip, lp)
        assert ds.features.shape == (2, 20)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(
            ds.features, images.reshape(2, 20).astype(np.float64) / 255.0
        )

    def test_feature_range(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(10, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10).astype(np.uint8)
        ip, lp = tmp_path / "i", tmp_path / "l"
        data.write_idx(ip, lp, images, labels)
        ds = data.load_idx(ip, lp)
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty"
        p.write_bytes(b"")
        with pytest.raises(FormatError):
            data.load_idx(p, p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
        with pytest.raises(FormatError):
            data.load_idx(p, p)

    def test_truncated_pixels(self, tmp_path):
        import struct

        p = tmp_path / "trunc"
        p.write_bytes(struct.pack(">IIII", 0x803, 4, 28, 28) + b"\x00" * 10)
        with pytest.raises(FormatError):
            data.load_idx(p, p)

    def test_header_claiming_more_than_the_file_holds(self, tmp_path):
        p = tmp_path / "huge"
        p.write_bytes(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3) + bytes(8))
        with pytest.raises(FormatError, match="truncated pixel data"):
            data.load_idx(p, p)

    def test_zero_images_roundtrip(self, tmp_path):
        ip, lp = tmp_path / "i", tmp_path / "l"
        data.write_idx(ip, lp, np.zeros((0, 5, 4)), [])
        ds = data.load_idx(ip, lp)
        assert ds.features.shape == (0, 20) and ds.labels.shape == (0,)

    @pytest.mark.parametrize("label_file, message", [
        (struct.pack(">II", 0x802, 3) + bytes(3), "bad label magic 0x00000802"),
        (struct.pack(">I", 0x801) + bytes(2), "truncated header"),
        (struct.pack(">II", 0x801, 3) + bytes(2), "truncated label data"),
        (struct.pack(">II", 0x801, 2) + bytes(2), "image count 3 does not match label count 2"),
    ], ids=["magic", "header", "data", "count"])
    def test_label_file_faults(self, tmp_path, label_file, message):
        ip, lp = tmp_path / "i", tmp_path / "l"
        data.write_idx(ip, lp, np.zeros((3, 2, 2)), [0, 1, 2])
        lp.write_bytes(label_file)
        with pytest.raises(FormatError, match=message):
            data.load_idx(ip, lp)


class TestSynth:
    def test_separable_classes_reach_perfect_accuracy(self):
        ds = data.synth_dataset(2, 40, 4, separation=100.0, seed=0)
        rng = protocols.keyed_rng(0, protocols.STREAM_INIT)
        layers = nn.build_mlp([4, 2], rng)
        protocols.train_monolithic(
            layers, ds.features, ds.labels, batch_size=8, epochs=5, lr=0.05,
            optimizer="adam", seed=0,
        )
        assert protocols.evaluate(layers, ds.features, ds.labels) == 1.0

    def test_deterministic_per_seed(self):
        a = data.synth_dataset(3, 10, 5, 2.0, seed=9)
        b = data.synth_dataset(3, 10, 5, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_pairwise_mean_distance(self):
        ds = data.synth_dataset(4, 2000, 8, separation=6.0, seed=3)
        means = [ds.features[ds.labels == k].mean(axis=0) for k in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                dist = np.linalg.norm(means[i] - means[j])
                # Sampling error of the empirical means is ~sqrt(d/n).
                assert dist == pytest.approx(6.0, abs=0.2)

    def test_dim_too_small(self):
        with pytest.raises(InputError):
            data.synth_dataset(5, 10, 3, 2.0, seed=0)


class TestPartition:
    def test_shapes_and_disjointness(self):
        ds = data.synth_dataset(10, 1200, 12, 2.0, seed=4)
        part = data.partition_iid(ds, clients=10, per_client=1000, seed=5)
        assert len(part) == 10
        all_ix = np.concatenate(part)
        assert len(all_ix) == 10_000
        assert len(np.unique(all_ix)) == 10_000
        for ix in part:
            assert len(ix) == 1000

    def test_single_client_whole_dataset(self):
        ds = data.synth_dataset(2, 16, 4, 2.0, seed=6)
        part = data.partition_iid(ds, clients=1, per_client=32, seed=7)
        assert sorted(part[0]) == list(range(32))

    def test_insufficient_data(self):
        ds = data.synth_dataset(2, 4, 4, 2.0, seed=8)
        with pytest.raises(InputError):
            data.partition_iid(ds, clients=3, per_client=4, seed=0)

    def test_deterministic(self):
        ds = data.synth_dataset(2, 50, 4, 2.0, seed=10)
        a = data.partition_iid(ds, 4, 20, seed=11)
        b = data.partition_iid(ds, 4, 20, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestValidationSplit:
    def test_sizes(self):
        ds = data.synth_dataset(2, 300, 4, 2.0, seed=12)
        train, val = data.split_validation(ds, 100, seed=13)
        assert len(train) == 500
        assert len(val) == 100

    def test_empty_validation(self):
        ds = data.synth_dataset(2, 10, 4, 2.0, seed=14)
        train, val = data.split_validation(ds, 0, seed=15)
        assert len(val) == 0
        assert len(train) == 20

    def test_oversized_validation_rejected(self):
        ds = data.synth_dataset(2, 5, 4, 2.0, seed=16)
        with pytest.raises(InputError):
            data.split_validation(ds, 10, seed=0)

    def test_class_frequencies_within_3_sigma(self):
        ds = data.synth_dataset(5, 2000, 8, 2.0, seed=17)
        train, val = data.split_validation(ds, 1000, seed=18)
        n = len(val)
        for k in range(5):
            p_train = np.mean(train.labels == k)
            p_val = np.mean(val.labels == k)
            sigma = np.sqrt(p_train * (1 - p_train) / n)
            assert abs(p_val - p_train) <= 3 * sigma

    def test_disjoint(self):
        ds = data.synth_dataset(2, 40, 4, 2.0, seed=19)
        train, val = data.split_validation(ds, 30, seed=20)
        # Feature rows must not repeat across the two sides.
        joined = np.vstack([train.features, val.features])
        assert len(np.unique(joined, axis=0)) == len(ds)

    def test_deterministic(self):
        ds = data.synth_dataset(2, 40, 4, 2.0, seed=21)
        a_train, a_val = data.split_validation(ds, 20, seed=22)
        b_train, b_val = data.split_validation(ds, 20, seed=22)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_val.labels, b_val.labels)


class TestFashionMnist:
    """Runs only when the real IDX files are provided locally."""

    def test_official_train_files(self):
        import os
        from pathlib import Path

        root = Path(os.environ.get("FASHION_MNIST_DIR", "data/fashion-mnist"))
        images = root / "train-images-idx3-ubyte"
        labels = root / "train-labels-idx1-ubyte"
        if not (images.exists() and labels.exists()):
            pytest.skip("fashion-mnist IDX files not present")
        ds = data.load_idx(images, labels)
        assert len(ds) == 60_000
        assert ds.features.shape[1] == 784
        assert ds.n_classes == 10


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda path: data.Dataset(np.zeros((3, 2)), [0, 1], 2), "one label per row",
                 id="label-count"),
    pytest.param(lambda path: data.Dataset(np.zeros((2, 2)), [0, 2], 2), "exceeds class count",
                 id="label-at-class-count"),
    pytest.param(lambda path: data.Dataset(np.zeros((2, 4)), [0.4, 1.6], 3),
                 "labels must be integers", id="fractional-labels"),
    pytest.param(lambda path: protocols.evaluate(nn.build_mlp([4, 3], np.random.default_rng(0)),
                                                 np.zeros((2, 4)), [0.2, 0.9]),
                 "labels must be integers", id="evaluate-fractional-labels"),
    pytest.param(lambda path: protocols.train_monolithic(
                     nn.build_mlp([4, 3], np.random.default_rng(0)), np.zeros((2, 4)),
                     [0.0, 1.5], batch_size=2, epochs=1, lr=0.1),
                 "labels must be integers", id="train-monolithic-fractional-labels"),
    pytest.param(lambda path: splitting.client_forward(
                     nn.build_mlp([4, 3], np.random.default_rng(0)), np.zeros((2, 4)),
                     [0.0, 0.5], client_id=0),
                 "labels must be integers", id="client-forward-fractional-labels"),
    pytest.param(lambda path: protocols.SplitTrainer(
                     splitting.SplitModel(nn.build_mlp([4, 5, 3], np.random.default_rng(0)), 2),
                     [(np.zeros((2, 4)), [0.0, 2.5])], protocols.ProtocolConfig("psl", clients=1)),
                 "labels must be integers", id="trainer-fractional-labels"),
    pytest.param(lambda path: data.write_idx(path / "i", path / "l", np.zeros((2, 3)), [0, 1]),
                 r"\[N, rows, cols\]", id="write-2d-images"),
    pytest.param(lambda path: data.synth_blocks(2, 4, 4, 0.0, 0), "separation",
                 id="zero-separation"),
])
def test_bad_input_rejected(tmp_path, call, match):
    with pytest.raises(InputError, match=match):
        call(tmp_path)
    assert not any(tmp_path.iterdir())
