"""MI estimator oracles and the smashed-data leakage score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import nn
from splitsim.errors import DimensionError, InputError
from splitsim.leakage import (
    bin_columns,
    draw_pairs,
    joint_histogram,
    mi_from_joint,
    mi_from_joints,
    mutual_information,
    smashed_leakage_score,
)


class TestMiFromJoint:
    def test_diagonal_2x2_is_exactly_ln2(self):
        assert mi_from_joint([[0.5, 0.0], [0.0, 0.5]]) == np.log(2.0)

    def test_independent_uniform_joint_is_zero(self):
        assert mi_from_joint(np.full((4, 4), 0.0625)) == 0.0

    def test_counts_and_probabilities_agree(self):
        counts = np.array([[30.0, 10.0], [5.0, 55.0]])
        assert mi_from_joint(counts) == mi_from_joint(counts / counts.sum())


class TestMutualInformation:
    def test_self_information_approaches_log_bins(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=50_000)
        est = mutual_information(x, x, bins=8)
        # Discretized self-MI is the bin entropy, upper-bounded by log(k).
        assert est.value <= np.log(8) + 1e-12
        assert est.value == pytest.approx(np.log(8), abs=0.01)

    def test_independent_uniforms_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=100_000)
        y = rng.uniform(size=100_000)
        est = mutual_information(x, y, bins=16)
        assert est.value < 0.05

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=5000)
        y = 0.5 * x + rng.normal(size=5000)
        a = mutual_information(x, y, bins=12).value
        b = mutual_information(y, x, bins=12).value
        assert a == b

    def test_nonnegative_and_clamped(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=500)
            y = rng.normal(size=500)
            assert mutual_information(x, y, bins=8).value >= 0.0

    def test_constant_variable_degenerate(self):
        est = mutual_information(np.ones(100), np.arange(100.0), bins=8)
        assert est.value == 0.0
        assert est.degenerate

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            mutual_information(np.ones(10), np.ones(9), bins=2)

    def test_too_few_samples(self):
        with pytest.raises(InputError):
            mutual_information(np.arange(4.0), np.arange(4.0), bins=8)


class TestLeakageScore:
    def _probe(self, n=2000, d=6, seed=0):
        return np.random.default_rng(seed).uniform(size=(n, d))

    def test_identity_segment_equals_mean_self_mi(self):
        d = 6
        probe = self._probe(d=d)
        identity = [nn.Dense(np.eye(d), np.zeros(d))]
        pairs = [(i, i) for i in range(d)]
        score = smashed_leakage_score(identity, probe, bins=8, pairs=pairs)
        from splitsim.leakage import mutual_information as mi

        expected = np.mean(
            [mi(probe[:, i], probe[:, i], bins=8).value for i in range(d)]
        )
        assert score == pytest.approx(expected, rel=1e-12)

    def test_constant_segment_scores_zero(self):
        d = 6
        probe = self._probe(d=d)
        constant = [nn.Dense(np.zeros((4, d)), np.ones(4))]
        score = smashed_leakage_score(constant, probe, bins=8, pairs=draw_pairs(d, 4, 16, seed=1))
        assert score == 0.0

    def test_random_segment_between_baselines(self):
        d = 6
        probe = self._probe(d=d)
        pairs = [(i, i) for i in range(d)]
        rng = np.random.default_rng(4)
        identity = [nn.Dense(np.eye(d), np.zeros(d))]
        frozen = [nn.Dense(rng.normal(size=(d, d)), rng.normal(size=d)), nn.Relu()]
        constant = [nn.Dense(np.zeros((d, d)), np.ones(d))]

        hi = smashed_leakage_score(identity, probe, bins=8, pairs=pairs)
        mid = smashed_leakage_score(frozen, probe, bins=8, pairs=pairs)
        lo = smashed_leakage_score(constant, probe, bins=8, pairs=pairs)
        assert lo <= mid <= hi
        assert lo == 0.0

    def test_deterministic_pair_sampling(self):
        probe = self._probe()
        rng = np.random.default_rng(5)
        seg = [nn.Dense(rng.normal(size=(3, 6)), np.zeros(3))]
        a = smashed_leakage_score(seg, probe, bins=8, pairs=draw_pairs(6, 3, 32, seed=9))
        b = smashed_leakage_score(seg, probe, bins=8, pairs=draw_pairs(6, 3, 32, seed=9))
        assert a == b

    def test_empty_probe_rejected(self):
        with pytest.raises(InputError):
            smashed_leakage_score([nn.Relu()], np.zeros((0, 3)), bins=16,
                                  pairs=draw_pairs(3, 3, 64, seed=0))

    @pytest.mark.parametrize("pairs, match", [
        ([], "at least one"),
        ([(0, 0), (4, 0)], r"pair \(4, 0\) lies outside the \(features, units\) widths \(4, 4\)"),
        ([(-1, 0)], r"pair \(-1, 0\) lies outside .* \(4, 4\)"),
        ([(3, 4)], r"pair \(3, 4\) lies outside .* \(4, 4\)"),
    ], ids=["empty", "feature-too-wide", "negative", "unit-too-wide"])
    def test_bad_pair_list_rejected(self, pairs, match):
        with pytest.raises(InputError, match=match):
            smashed_leakage_score([nn.Relu()], self._probe(d=4), bins=16, pairs=pairs)


class TestAveragingFractionTrend:
    def test_full_averaging_lowers_leakage_on_average(self):
        """Soft multi-seed trend: training with all clients on the broadcast
        averaged gradient yields cut activations with lower input MI than
        plain parallel training. Direction only; no absolute targets."""
        from splitsim import (
            ProtocolConfig,
            SplitModel,
            SplitTrainer,
            build_mlp,
            keyed_rng,
        )
        from splitsim.data import partition_iid, split_validation, synth_dataset

        def score_for(phi, seed, clients=12, epochs=8):
            full = synth_dataset(6, clients * 80 // 6 + 80, 16, 4.5, seed)
            train, val = split_validation(full, 120, seed)
            shards = [
                (train.features[ix], train.labels[ix])
                for ix in partition_iid(train, clients, 80, seed)
            ]
            cfg = ProtocolConfig(
                kind="sglr", clients=clients, active_fraction=phi,
                lr_exponent=1.0, batch_size=8, epochs=epochs, seed=seed,
            )
            rng = keyed_rng(seed, 0)
            model = SplitModel(build_mlp([16, 32, 24, 6], rng), cut_index=4)
            trainer = SplitTrainer(model, shards, cfg)
            trainer.run()
            return smashed_leakage_score(
                trainer.clients[0].layers, val.features[:200],
                bins=16, pairs=draw_pairs(16, 24, 48, seed=seed),
            )

        none = [score_for(0.0, seed) for seed in range(5)]
        full = [score_for(1.0, seed) for seed in range(5)]
        assert np.mean(full) < np.mean(none)


class TestDataProcessingTrend:
    def test_deeper_cut_leaks_no_more_on_average(self):
        """Soft data-processing check: scoring after two layers should not
        exceed scoring after one, averaged over seeds."""
        shallow_scores, deep_scores = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            probe = rng.uniform(size=(1500, 8))
            l1 = nn.Dense(rng.normal(size=(8, 8)) * 0.7, rng.normal(size=8) * 0.1)
            l2 = nn.Dense(rng.normal(size=(8, 8)) * 0.7, rng.normal(size=8) * 0.1)
            shallow = [l1, nn.Relu()]
            deep = [l1, nn.Relu(), l2, nn.Relu()]
            pairs = [(i, j) for i in range(8) for j in range(8)]
            shallow_scores.append(
                smashed_leakage_score(shallow, probe, bins=8, pairs=pairs)
            )
            deep_scores.append(
                smashed_leakage_score(deep, probe, bins=8, pairs=pairs)
            )
        assert np.mean(deep_scores) <= np.mean(shallow_scores) + 0.02


def tied_column(rng, n, levels):
    """``levels`` distinct values, each repeated, the maximum included."""
    values = rng.normal(size=levels) * 10.0 ** rng.integers(-3, 3)
    return values[rng.integers(0, levels, size=n)]


def histogram2d_score(layers, probe, bins, pairs):
    """The per-pair reference: np.histogram2d on every pair's columns."""
    smashed = nn.forward(layers, probe).output
    values = []
    for f, u in pairs:
        x, y = probe[:, f], smashed[:, u]
        if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
            values.append(0.0)
        else:
            values.append(mi_from_joint(np.histogram2d(x, y, bins=bins)[0]))
    return float(np.mean(values))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(16, 200),
    bins=st.integers(2, 16),
    x_levels=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_bincount_joint_equals_histogram2d(n, bins, x_levels, seed):
    rng = np.random.default_rng(seed)
    x = tied_column(rng, n, x_levels)
    y = np.round(rng.normal(size=n), 1)
    y[rng.integers(0, n, size=3)] = y.max()
    index, constant = bin_columns(np.column_stack([x, y]), bins)
    assert constant.tolist() == [np.ptp(x) == 0.0, False]
    if constant[0]:
        est = mutual_information(x, y, bins)
        assert est.value == 0.0 and est.degenerate
        return
    joint = joint_histogram(index[:, 0], index[:, 1], bins)
    assert np.array_equal(joint, np.histogram2d(x, y, bins)[0])
    want = mi_from_joint(np.histogram2d(x, y, bins)[0])
    assert mutual_information(x, y, bins).value == want


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(16, 120),
    bins=st.integers(2, 16),
    n_pairs=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_score_equals_per_pair_histogram2d(rows, bins, n_pairs, seed):
    """Columns with ties, a constant probe column and dead ReLU units
    (constant zero columns) all score as the per-pair reference does."""
    rng = np.random.default_rng(seed)
    probe = np.column_stack([tied_column(rng, rows, 3), np.full(rows, 2.5),
                             rng.normal(size=(rows, 3))])
    layers = nn.build_mlp([5, 6, 2], rng)[:2]
    layers[0].bias[:2] = -100.0
    pairs = [(int(rng.integers(5)), int(rng.integers(6))) for _ in range(n_pairs)]
    got = smashed_leakage_score(layers, probe, bins=bins, pairs=pairs)
    assert got == histogram2d_score(layers, probe, bins, pairs)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(16, 120),
    bins=st.integers(2, 16),
    n_pairs=st.integers(1, 40),
    repeats=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_score_with_duplicate_pairs_equals_per_pair_histogram2d(rows, bins, n_pairs, repeats,
                                                                seed):
    """A pair listed several times is scored once but counted in the mean
    each time, in list order, as the per-pair reference counts it."""
    rng = np.random.default_rng(seed)
    probe = np.column_stack([tied_column(rng, rows, 3), np.full(rows, 2.5),
                             rng.normal(size=(rows, 3))])
    layers = nn.build_mlp([5, 6, 2], rng)[:2]
    layers[0].bias[:2] = -100.0
    pairs = [(int(rng.integers(5)), int(rng.integers(6))) for _ in range(n_pairs)]
    pairs = [pairs[i] for i in rng.integers(0, n_pairs, size=n_pairs * repeats)]
    got = smashed_leakage_score(layers, probe, bins=bins, pairs=pairs)
    assert got == histogram2d_score(layers, probe, bins, pairs)


def reference_bin_index(column, bins):
    """bin_index as it was: np.linspace edges and searchsorted on one column."""
    lo, hi = column.min(), column.max()
    if lo == hi:
        return None
    edges = np.linspace(lo, hi, bins + 1)
    index = np.searchsorted(edges, column, side="right") - 1
    index[column == edges[-1]] -= 1
    return index


COLUMN_KINDS = ["normal", "tied", "constant", "tied-at-max", "subnormal-range", "huge"]


def make_column(kind, rng, n):
    if kind == "normal":
        return rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) + rng.normal()
    if kind == "tied":
        return tied_column(rng, n, int(rng.integers(2, 5)))
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "tied-at-max":
        column = np.round(rng.normal(size=n), 1)
        column[rng.integers(0, n, size=n // 3 + 1)] = column.max()
        return column
    if kind == "subnormal-range":  # a step that underflows to 0 in linspace
        return rng.integers(0, 3, size=n) * 5e-324
    return rng.uniform(-1.0, 1.0, size=n) * 1e300


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 80),
    bins=st.integers(2, 16),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_bin_columns_equals_per_column_bin_index(n, bins, kinds, seed):
    rng = np.random.default_rng(seed)
    n = max(n, bins)
    columns = np.column_stack([make_column(kind, rng, n) for kind in kinds])
    index, constant = bin_columns(columns, bins)
    for j in range(columns.shape[1]):
        want = reference_bin_index(columns[:, j], bins)
        assert constant[j] == (want is None)
        if want is not None:
            assert np.array_equal(index[:, j], want)


def test_bin_columns_checks_as_bin_index_did():
    with pytest.raises(InputError, match="finite"):
        bin_columns(np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 3.0]]), 2)
    with pytest.raises(InputError, match="as many samples"):
        bin_columns(np.zeros((3, 2)), 4)


def reference_mi(joint):
    """mi_from_joint as it was: one 2-D joint at a time."""
    joint = np.ascontiguousarray(joint, dtype=np.float64)
    p = joint / joint.sum()

    def marginal(m):
        return np.sort(np.ascontiguousarray(m), axis=1).sum(axis=1)

    px, py = marginal(p), marginal(p.T)
    ix, iy = np.nonzero(p)
    terms = p[ix, iy] * np.log(p[ix, iy] / (px[ix] * py[iy]))
    return max(float(np.sort(terms).sum()), 0.0)


@settings(max_examples=60, deadline=None)
@given(
    joints=st.integers(1, 12),
    bins=st.integers(2, 16),
    fill=st.floats(0.05, 1.0),
    probabilities=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_stacked_mi_equals_one_joint_at_a_time(joints, bins, fill, probabilities, seed):
    """Joints of many sizes of support (so several share a count of nonempty
    cells and others stand alone) score as the one-joint code did, each."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 9, size=(joints, bins, bins)) * (rng.uniform(size=(joints, bins, bins))
                                                             < fill)
    stack[:, 0, 0] += 1  # no joint is empty
    if probabilities:
        stack = stack / stack.sum(axis=(1, 2), keepdims=True)
    got = mi_from_joints(stack)
    want = [reference_mi(j) for j in stack]
    assert got.tolist() == want
    assert [mi_from_joint(j) for j in stack] == want
    transposed = [reference_mi(j.T) for j in stack]
    assert mi_from_joints(stack.transpose(0, 2, 1)).tolist() == transposed
    if not probabilities:  # counts sum exactly in any order, so symmetry is bitwise
        assert transposed == want


def test_draw_pairs_is_the_default_draw():
    pairs = draw_pairs(9, 5, 12, seed=3)
    assert all(0 <= f < 9 and 0 <= u < 5 for f, u in pairs)


@pytest.mark.parametrize("joints, error, match", [
    pytest.param(np.ones((2, 2)), DimensionError, "stacked as", id="2d-joint"),
    pytest.param(np.zeros((1, 2, 2)), InputError, "empty", id="all-zero-joint"),
])
def test_mi_from_joints_rejects(joints, error, match):
    with pytest.raises(error, match=match):
        mi_from_joints(joints)
