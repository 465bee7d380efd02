"""Tests for model partitioning, smashed-data transport, and server rounds."""

import numpy as np
import pytest

from splitsim import nn, splitting
from splitsim.errors import DimensionError, InputError


def make_model(rng, widths=(6, 8, 8, 4), cut=2):
    layers = nn.build_mlp(list(widths), rng)
    return splitting.SplitModel(layers, cut)


class TestSplitModel:
    def test_segments_partition_stack(self):
        rng = np.random.default_rng(0)
        model = make_model(rng)
        assert len(model.client_segment) + len(model.server_segment) == len(
            model.layers
        )

    @pytest.mark.parametrize("cut", [0, 5, 99])
    def test_invalid_cut_rejected(self, cut):
        rng = np.random.default_rng(0)
        layers = nn.build_mlp([4, 5, 3], rng)  # 5 layers? no: dense,relu,dense
        with pytest.raises(InputError):
            splitting.SplitModel(layers, cut if cut != 5 else len(layers))

    def test_split_forward_equals_unsplit_bitwise(self):
        rng = np.random.default_rng(1)
        model = make_model(rng)
        x = rng.normal(size=(5, 6))
        whole = nn.forward(model.layers, x).output
        for cut in range(1, len(model.layers)):
            lower = nn.forward(model.layers[:cut], x).output
            upper = nn.forward(model.layers[cut:], lower).output
            assert np.array_equal(upper, whole)


class TestClientForward:
    def test_identity_segment_passthrough(self):
        seg = [nn.Dense(np.eye(3), np.zeros(3))]
        x = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]])
        batch, _ = splitting.client_forward(seg, x, [0, 1], client_id=0)
        assert np.array_equal(batch.smashed, x)
        assert np.array_equal(batch.labels, [0, 1])

    def test_shape_law(self):
        rng = np.random.default_rng(2)
        seg = nn.build_mlp([10, 32], rng)
        x = rng.normal(size=(8, 10))
        batch, _ = splitting.client_forward(seg, x, np.zeros(8, dtype=int), 3)
        assert batch.smashed.shape == (8, 32)
        assert batch.labels.shape == (8,)

    def test_matches_plain_forward_bitwise(self):
        rng = np.random.default_rng(3)
        model = make_model(rng)
        x = rng.normal(size=(4, 6))
        batch, cache = splitting.client_forward(
            model.client_segment, x, np.zeros(4, dtype=int), 1
        )
        direct = nn.forward(model.client_segment, x)
        assert np.array_equal(batch.smashed, direct.output)
        assert np.array_equal(cache.output, direct.output)

    def test_empty_batch_rejected(self):
        seg = [nn.Dense(np.eye(2), np.zeros(2))]
        with pytest.raises(InputError):
            splitting.client_forward(seg, np.zeros((0, 2)), [], 0)


class TestConcat:
    def _batches(self, rng, counts, width=4):
        out = []
        for cid, n in enumerate(counts):
            out.append(
                splitting.SmashedBatch(
                    client_id=cid,
                    smashed=rng.normal(size=(n, width)),
                    labels=rng.integers(0, 3, size=n),
                )
            )
        return out

    def test_effective_size_is_sum(self):
        rng = np.random.default_rng(4)
        cb = splitting.concat(self._batches(rng, [8] * 5))
        assert cb.smashed.shape[0] == len(cb.labels) == 40

    def test_single_client_identity(self):
        rng = np.random.default_rng(5)
        (b,) = self._batches(rng, [6])
        cb = splitting.concat([b])
        assert np.array_equal(cb.smashed, b.smashed)
        assert cb.offsets == [(0, 6)]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        batches = self._batches(rng, [3, 5, 2])
        a = splitting.concat(batches)
        b = splitting.concat(batches[::-1])
        assert np.array_equal(a.smashed, b.smashed)
        assert a.client_ids == b.client_ids == [0, 1, 2]

    def test_unequal_counts_conserved(self):
        rng = np.random.default_rng(7)
        counts = [1, 7, 3, 9]
        cb = splitting.concat(self._batches(rng, counts))
        assert cb.smashed.shape[0] == len(cb.labels) == sum(counts)
        assert cb.client_ids == list(range(len(counts)))
        assert [stop - start for start, stop in cb.offsets] == counts

    def test_width_mismatch(self):
        rng = np.random.default_rng(8)
        a = splitting.SmashedBatch(0, rng.normal(size=(2, 3)), np.zeros(2, int))
        b = splitting.SmashedBatch(1, rng.normal(size=(2, 4)), np.zeros(2, int))
        with pytest.raises(DimensionError):
            splitting.concat([a, b])


class TestServerRound:
    def _setup(self, rng, n_clients, b=4, width=6, classes=3, optimizer="sgd"):
        server = nn.build_mlp([width, 8, classes], rng)
        batches = []
        for cid in range(n_clients):
            batches.append(
                splitting.SmashedBatch(
                    client_id=cid,
                    smashed=rng.normal(size=(b, width)),
                    labels=rng.integers(0, classes, size=b),
                )
            )
        state = nn.init_optimizer(optimizer, nn.collect_params(server))
        return server, batches, state

    def test_single_client_equals_monolithic_step(self):
        rng = np.random.default_rng(9)
        server, batches, state = self._setup(rng, 1)
        ref_layers = nn.copy_layers(server)

        result = splitting.server_forward_backward(
            server, splitting.concat(batches), {0: 1.0}, 0.1, state
        )

        cache = nn.forward(ref_layers, batches[0].smashed)
        loss, up = nn.loss_softmax_ce(cache.output, batches[0].labels)
        grads, input_grad = nn.backward(cache, up)
        new = nn.sgd_step(
            nn.collect_params(ref_layers), nn.collect_grads(grads), 0.1
        )

        assert result.loss == loss
        assert np.array_equal(result.cut_grads[0], input_grad)
        for got, want in zip(nn.collect_params(server), new):
            assert np.array_equal(got, want)

    def test_identical_clients_match_single(self):
        rng = np.random.default_rng(10)
        server, batches, state = self._setup(rng, 1)
        twin = splitting.SmashedBatch(
            1, batches[0].smashed.copy(), batches[0].labels.copy()
        )
        server2 = nn.copy_layers(server)
        state2 = nn.init_optimizer("sgd", nn.collect_params(server2))

        splitting.server_forward_backward(
            server, splitting.concat(batches), {0: 1.0}, 0.05, state
        )
        splitting.server_forward_backward(
            server2,
            splitting.concat([batches[0], twin]),
            {0: 0.5, 1: 0.5},
            0.05,
            state2,
        )
        for a, b in zip(nn.collect_params(server), nn.collect_params(server2)):
            assert np.allclose(a, b, rtol=0, atol=1e-15)

    def test_delta_combination_matches_isolated_oracle(self):
        rng = np.random.default_rng(11)
        server, batches, state = self._setup(rng, 3, b=5)
        deltas = {0: 0.5, 1: 0.3, 2: 0.2}
        frozen = nn.copy_layers(server)

        result = splitting.server_forward_backward(
            server, splitting.concat(batches), deltas, 0.1, state
        )

        # Oracle: isolated per-client backward passes, combined by formula.
        combined = None
        for b in batches:
            cache = nn.forward(frozen, b.smashed)
            _, up = nn.loss_softmax_ce(cache.output, b.labels)
            grads, input_grad = nn.backward(cache, up)
            flat = nn.collect_grads(grads)
            scaled = [deltas[b.client_id] * g for g in flat]
            combined = (
                scaled
                if combined is None
                else [c + s for c, s in zip(combined, scaled)]
            )
            # Slice consistency: returned cut grad is the delta-scaled
            # isolated input gradient.
            assert np.allclose(
                result.cut_grads[b.client_id],
                deltas[b.client_id] * input_grad,
                rtol=0,
                atol=1e-9,
            )

        new = nn.sgd_step(nn.collect_params(frozen), combined, 0.1)
        for got, want in zip(nn.collect_params(server), new):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_unnormalized_deltas_rejected(self):
        rng = np.random.default_rng(12)
        server, batches, state = self._setup(rng, 2)
        with pytest.raises(InputError):
            splitting.server_forward_backward(
                server, splitting.concat(batches), {0: 0.9, 1: 0.3}, 0.1, state
            )

    def test_loss_is_delta_weighted_mean(self):
        rng = np.random.default_rng(13)
        server, batches, state = self._setup(rng, 2, b=3)
        frozen = nn.copy_layers(server)
        deltas = {0: 0.7, 1: 0.3}
        result = splitting.server_forward_backward(
            server, splitting.concat(batches), deltas, 0.1, state
        )
        expected = 0.0
        for b in batches:
            out = nn.forward(frozen, b.smashed).output
            loss, _ = nn.loss_softmax_ce(out, b.labels)
            expected += deltas[b.client_id] * loss
        assert result.loss == pytest.approx(expected, rel=1e-12)


def server_round(deltas, rows):
    """``server_forward_backward`` on one batch per entry of ``rows``."""
    rng = np.random.default_rng(0)
    server = nn.build_mlp([3, 2], rng)
    batches = [splitting.SmashedBatch(cid, rng.normal(size=(n, 3)), np.zeros(n, dtype=int))
               for cid, n in enumerate(rows)]
    state = nn.init_optimizer("sgd", nn.collect_params(server))
    splitting.server_forward_backward(server, splitting.concat(batches), deltas, 0.1, state)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: splitting.SmashedBatch(0, np.zeros(3), np.zeros(3, dtype=int)),
                 DimensionError, "smashed data must be", id="1d-smashed"),
    pytest.param(lambda: splitting.SmashedBatch(0, np.zeros((3, 2)), np.zeros(2, dtype=int)),
                 DimensionError, "label count", id="label-count"),
    pytest.param(lambda: splitting.concat([]), InputError, "no smashed batches",
                 id="concat-nothing"),
    pytest.param(lambda: splitting.concat(
                     [splitting.SmashedBatch(0, np.zeros((1, 2)), np.zeros(1, dtype=int))] * 2),
                 InputError, "duplicate", id="concat-duplicate-id"),
    pytest.param(lambda: server_round({0: 1.0}, [2, 2]), InputError, "missing delta",
                 id="missing-delta"),
    pytest.param(lambda: server_round({0: 0.5, 1: 0.5}, [2, 3]), DimensionError,
                 "same number of rows", id="unequal-rows"),
])
def test_bad_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
