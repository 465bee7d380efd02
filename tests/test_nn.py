"""Tests for the dense-network engine: forward, losses, backward, optimizers.

Gradient checks compare analytic backprop against central finite differences
(the independent oracle); forward checks use a hand-rolled matmul loop.
"""

import numpy as np
import pytest

from splitsim import nn
from splitsim.errors import DimensionError, InputError, NumericError


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def naive_mlp_forward(layers, x):
    """Independent oracle: explicit loops instead of vectorized matmul."""
    out = np.array(x, dtype=np.float64)
    for layer in layers:
        if isinstance(layer, nn.Dense):
            nxt = np.zeros((out.shape[0], layer.out_dim))
            for r in range(out.shape[0]):
                for o in range(layer.out_dim):
                    acc = layer.bias[o]
                    for i in range(layer.in_dim):
                        acc += layer.weight[o, i] * out[r, i]
                    nxt[r, o] = acc
            out = nxt
        elif isinstance(layer, nn.Relu):
            out = np.where(out > 0, out, 0.0)
        else:
            e = np.exp(out - out.max(axis=1, keepdims=True))
            out = e / e.sum(axis=1, keepdims=True)
    return out


class TestForward:
    def test_identity_dense_passthrough(self):
        layer = nn.Dense(np.eye(4), np.zeros(4))
        v = np.array([[1.0, -2.0, 3.0, 0.5]])
        cache = nn.forward([layer], v)
        assert np.array_equal(cache.output, v)

    def test_single_dense_analytic(self):
        layer = nn.Dense([[2.0]], [1.0])
        cache = nn.forward([layer], [[3.0]])
        assert cache.output[0, 0] == pytest.approx(7.0)

    def test_three_layer_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        layers = nn.build_mlp([5, 8, 6, 3], rng)
        x = rng.normal(size=(4, 5))
        cache = nn.forward(layers, x)
        expected = naive_mlp_forward(layers, x)
        assert rel_err(cache.output, expected) < 1e-12

    def test_shape_mismatch_raises(self):
        layer = nn.Dense(np.ones((3, 4)), np.zeros(3))
        with pytest.raises(DimensionError):
            nn.forward([layer], np.ones((2, 5)))

    def test_nonfinite_input_rejected(self):
        layer = nn.Dense(np.ones((2, 2)), np.zeros(2))
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(NumericError):
            nn.forward([layer], bad)

    def test_cache_records_every_layer_input(self):
        rng = np.random.default_rng(3)
        layers = nn.build_mlp([4, 5, 2], rng)
        x = rng.normal(size=(3, 4))
        cache = nn.forward(layers, x)
        assert len(cache.inputs) == len(layers)
        assert np.array_equal(cache.inputs[0], x)

    def test_softmax_on_a_client_stack_equals_each_slice(self):
        rng = np.random.default_rng(5)
        x, upstream = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 5, 3))
        out = nn.forward([nn.Softmax()], x).output
        _, grad = nn.Softmax().backward(x, upstream)
        for c in range(2):
            assert np.array_equal(out[c], nn.forward([nn.Softmax()], x[c]).output)
            assert np.array_equal(grad[c], nn.Softmax().backward(x[c], upstream[c])[1])
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-15


class TestSoftmaxCE:
    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((6, 10))
        labels = np.arange(6) % 10
        loss, _ = nn.loss_softmax_ce(logits, labels)
        assert loss == pytest.approx(np.log(10.0), rel=1e-12)

    def test_saturated_logits_stable(self):
        loss, grad = nn.loss_softmax_ce([[1e3, -1e3]], [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_extreme_magnitude_no_nan(self):
        rng = np.random.default_rng(0)
        logits = rng.uniform(-1e6, 1e6, size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        loss, grad = nn.loss_softmax_ce(logits, labels)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = nn.loss_softmax_ce(logits, labels)

        def f(params):
            loss, _ = nn.loss_softmax_ce(params[0], labels)
            return loss

        oracle = nn.finite_diff_grad(f, [logits], h=1e-6)[0]
        assert rel_err(grad, oracle) < 1e-6

    def test_out_of_range_label(self):
        with pytest.raises(InputError):
            nn.loss_softmax_ce(np.zeros((1, 3)), [3])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        layers = nn.build_mlp([4, 6, 3], rng)
        cache = nn.forward(layers, rng.normal(size=(2, 4)))
        grads, input_grad = nn.backward(cache, np.zeros_like(cache.output))
        assert np.all(input_grad == 0.0)
        for g in nn.collect_grads(grads):
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_param_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        widths = [rng.integers(2, 6) for _ in range(rng.integers(2, 4))]
        layers = nn.build_mlp([int(w) for w in widths] + [3], rng)
        x = rng.normal(size=(4, layers[0].in_dim))
        labels = rng.integers(0, 3, size=4)

        cache = nn.forward(layers, x)
        _, up = nn.loss_softmax_ce(cache.output, labels)
        grads, _ = nn.backward(cache, up)
        flat = nn.collect_grads(grads)

        params = nn.collect_params(layers)

        def f(p):
            nn.set_params(layers, p)
            out = nn.forward(layers, x).output
            loss, _ = nn.loss_softmax_ce(out, labels)
            return loss

        oracle = nn.finite_diff_grad(f, params, h=1e-6)
        nn.set_params(layers, params)
        for got, want in zip(flat, oracle):
            assert rel_err(got, want) < 1e-4

    def test_softmax_layer_backward_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        dense = nn.glorot_dense(4, 3, rng)
        layers = [dense, nn.Softmax()]
        x = rng.normal(size=(5, 4))
        # Scalar probe: weighted sum of output probabilities.
        w = rng.normal(size=(5, 3))

        cache = nn.forward(layers, x)
        grads, _ = nn.backward(cache, w)

        def f(p):
            nn.set_params(layers, p)
            return float((nn.forward(layers, x).output * w).sum())

        params = nn.collect_params(layers)
        oracle = nn.finite_diff_grad(f, params, h=1e-6)
        nn.set_params(layers, params)
        for got, want in zip(nn.collect_grads(grads), oracle):
            assert rel_err(got, want) < 1e-4

    def test_chained_segments_equal_monolithic(self):
        rng = np.random.default_rng(9)
        layers = nn.build_mlp([4, 8, 8, 3], rng)
        cut = 2
        x = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)

        mono_cache = nn.forward(layers, x)
        _, up = nn.loss_softmax_ce(mono_cache.output, labels)
        mono_grads, mono_input_grad = nn.backward(mono_cache, up)

        client_cache = nn.forward(layers[:cut], x)
        server_cache = nn.forward(layers[cut:], client_cache.output)
        _, up2 = nn.loss_softmax_ce(server_cache.output, labels)
        server_grads, cut_grad = nn.backward(server_cache, up2)
        client_grads, client_input_grad = nn.backward(client_cache, cut_grad)

        assert np.array_equal(server_cache.output, mono_cache.output)
        combined = nn.collect_grads(client_grads) + nn.collect_grads(server_grads)
        for got, want in zip(combined, nn.collect_grads(mono_grads)):
            assert rel_err(got, want) < 1e-12
        assert rel_err(client_input_grad, mono_input_grad) < 1e-12

    def test_upstream_shape_mismatch(self):
        rng = np.random.default_rng(1)
        layers = nn.build_mlp([3, 2], rng)
        cache = nn.forward(layers, rng.normal(size=(2, 3)))
        with pytest.raises(DimensionError):
            nn.backward(cache, np.zeros((2, 5)))


class TestOptimizers:
    def test_sgd_exact_formula(self):
        out = nn.sgd_step([np.array([1.0])], [np.array([2.0])], 0.5)
        assert out[0][0] == 0.0

    def test_sgd_zero_grad_noop(self):
        w = np.array([3.0, -1.0])
        out = nn.sgd_step([w], [np.zeros(2)], 0.1)
        assert np.array_equal(out[0], w)

    def test_sgd_bitwise_against_formula(self):
        rng = np.random.default_rng(13)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        grads = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        out = nn.sgd_step(params, grads, 0.01)
        for p, g, o in zip(params, grads, out):
            assert np.array_equal(o, p - 0.01 * g)

    def test_sgd_rate_list_steps_each_array_at_its_own_rate(self):
        """One rate per array, as the in-place step takes it: W all at 0.1,
        b all at 0.5 (not a rate per column)."""
        rng = np.random.default_rng(14)
        params = [rng.normal(size=(3, 2)), rng.normal(size=2)]
        grads = [rng.normal(size=(3, 2)), rng.normal(size=2)]
        out = nn.sgd_step(params, grads, [0.1, 0.5])
        want = nn.optimizer_step([p.copy() for p in params], grads, nn.OptimizerState("sgd"),
                                 [0.1, 0.5])
        for o, w in zip(out, want, strict=True):
            assert np.array_equal(o, w)

    def test_sgd_state_ignores_a_walk(self):
        """An SGD state steps SGD even when handed an Adam walk, whose moments
        stay untouched."""
        rng = np.random.default_rng(15)
        p, g = rng.normal(size=6), rng.normal(size=6)
        m, v, start = np.zeros(6), np.zeros(6), p.copy()
        state = nn.OptimizerState("sgd")
        nn.optimizer_step([p], [g], state, 0.1, nn.AdamWalk([p, g, m, v], [6]))
        assert np.array_equal(p, start - 0.1 * g)
        assert not m.any() and not v.any() and state.t == 0

    def test_adam_first_step_closed_form(self):
        w = np.array([1.0, 2.0])
        state = nn.init_optimizer("adam", [w])
        out, state = nn.adam_step([w], [np.ones(2)], state, 1e-3)
        # Bias correction gives m_hat = v_hat = 1 on step one.
        expected = w - 1e-3 / (1.0 + nn.ADAM_EPS)
        assert np.allclose(out[0], expected, rtol=0, atol=1e-15)
        assert state.t == 1

    def test_adam_zero_grad_zero_state_noop(self):
        w = np.array([5.0])
        state = nn.init_optimizer("adam", [w])
        out, _ = nn.adam_step([w], [np.zeros(1)], state, 1e-3)
        assert np.array_equal(out[0], w)

    def test_adam_three_step_scalar_trace(self):
        # Hand-scripted Adam on a scalar, fixed gradient sequence.
        grads = [0.3, -0.2, 0.7]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        w, m, v = 0.5, 0.0, 0.0
        trace = []
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            trace.append(w)

        arr = np.array([0.5])
        state = nn.init_optimizer("adam", [arr])
        got = []
        for g in grads:
            out, state = nn.adam_step([arr], [np.array([g])], state, lr)
            arr = out[0]
            got.append(arr[0])
        assert np.allclose(got, trace, rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nn.sgd_step([np.zeros(2)], [np.zeros(3)], 0.1)


class TestFiniteDiff:
    def test_quadratic(self):
        f = lambda p: float(p[0][0] ** 2)
        g = nn.finite_diff_grad(f, [np.array([3.0])], h=1e-6)
        assert g[0][0] == pytest.approx(6.0, abs=1e-6)

    def test_linear_exact(self):
        f = lambda p: float(4.0 * p[0][0] - 2.0 * p[0][1])
        g = nn.finite_diff_grad(f, [np.array([1.0, 1.0])], h=1e-4)
        assert g[0] == pytest.approx([4.0, -2.0], abs=1e-9)


class TestDeterminism:
    def test_same_seed_same_weights_after_steps(self):
        def run():
            rng = np.random.default_rng(42)
            layers = nn.build_mlp([4, 6, 3], rng)
            x = rng.normal(size=(8, 4))
            labels = rng.integers(0, 3, size=8)
            params = nn.collect_params(layers)
            state = nn.init_optimizer("adam", params)
            for _ in range(5):
                cache = nn.forward(layers, x)
                _, up = nn.loss_softmax_ce(cache.output, labels)
                grads, _ = nn.backward(cache, up)
                params = nn.optimizer_step(
                    params, nn.collect_grads(grads), state, 1e-3
                )
                nn.set_params(layers, params)
            return params

        a, b = run(), run()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


P = np.zeros((2, 3))


def set_params_keeping_old(bad_list):
    """``nn.set_params`` on ``build_mlp([3, 4, 2])`` with ``bad_list(params)``,
    asserting that every layer still holds its old arrays and values afterwards."""
    layers = nn.build_mlp([3, 4, 2], np.random.default_rng(0))
    old = nn.collect_params(layers)
    values = [p.copy() for p in old]
    try:
        nn.set_params(layers, bad_list([p + 1.0 for p in old]))
    finally:
        assert all(a is b and np.array_equal(a, v)
                   for a, b, v in zip(nn.collect_params(layers), old, values, strict=True))


def test_set_params_writes_float64_into_the_layers_arrays():
    rng = np.random.default_rng(1)
    layers = nn.build_mlp([3, 4, 2], rng)
    old = nn.collect_params(layers)
    new = [rng.normal(size=p.shape).astype(np.float32) for p in old]
    nn.set_params(layers, new)
    for p, q, n in zip(nn.collect_params(layers), old, new, strict=True):
        assert p is q and p.dtype == np.float64 and np.array_equal(p, n.astype(np.float64))


def test_set_params_may_be_handed_the_layers_own_arrays():
    """Swapping two layers' arrays through ``set_params`` swaps their values."""
    rng = np.random.default_rng(2)
    layers = [nn.Dense(rng.normal(size=(3, 3)), rng.normal(size=3)) for _ in range(2)]
    first, second = [layer.params() for layer in layers]
    values = [p.copy() for p in first + second]
    nn.set_params(layers, second + first)
    for p, v in zip(first + second, values[2:] + values[:2]):
        assert np.array_equal(p, v)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: nn.Dense(np.ones(3), np.zeros(1)), DimensionError,
                 "dense weight must be", id="dense-1d-weight"),
    pytest.param(lambda: nn.Dense(P, np.zeros(3)), DimensionError, "bias shape",
                 id="dense-bias-shape"),
    pytest.param(lambda: nn.Dense(P, np.zeros(2)).set_params([np.zeros((3, 3)), np.zeros(3)]),
                 DimensionError, "parameter shapes changed", id="set-params-new-shape"),
    pytest.param(lambda: nn.forward([nn.Dense(P, np.zeros(2))], np.zeros(3)), DimensionError,
                 "input must be", id="forward-1d-input"),
    pytest.param(lambda: nn.loss_softmax_ce(P, [0, 1, 2]), DimensionError, "a label per row",
                 id="loss-label-shape"),
    pytest.param(lambda: nn.init_optimizer("rmsprop", [P]), InputError, "unknown optimizer",
                 id="unknown-optimizer"),
    pytest.param(lambda: nn.optimizer_step([P.copy()], [P], nn.OptimizerState("adam"), 0.1),
                 InputError, "uninitialized", id="adam-without-moments"),
    pytest.param(lambda: nn.optimizer_step([P.copy()], [P, P], nn.OptimizerState("sgd"), 0.1),
                 DimensionError, "a grad per param", id="grad-count"),
    pytest.param(lambda: nn.optimizer_step([P.copy()], [P], nn.OptimizerState("sgd"),
                                           [0.1, 0.1]),
                 DimensionError, "one learning rate", id="rate-count"),
    pytest.param(lambda: nn.optimizer_step([P.copy()], [P], nn.OptimizerState("sgd"), 0.0),
                 InputError, "must be positive", id="zero-rate"),
    pytest.param(lambda: nn.optimizer_step([np.zeros((3, 2)).T], [P], nn.OptimizerState("sgd"),
                                           0.1),
                 DimensionError, "C-contiguous", id="non-contiguous-param"),
    pytest.param(lambda: nn.set_params([nn.Dense(P, np.zeros(2)), nn.Relu()],
                                       [P, np.zeros(2), P]),
                 DimensionError, "does not match layer stack", id="one-array-too-many"),
    pytest.param(lambda: set_params_keeping_old(lambda ps: [*ps, ps[-1]]), DimensionError,
                 "does not match layer stack", id="set-params-extra-array-writes-nothing"),
    pytest.param(lambda: set_params_keeping_old(lambda ps: ps[:-1]), DimensionError,
                 "does not match layer stack", id="set-params-short-list-writes-nothing"),
    pytest.param(lambda: set_params_keeping_old(lambda ps: [*ps[:-1], np.zeros(3)]),
                 DimensionError, "does not match layer stack",
                 id="set-params-last-shape-writes-nothing"),
    pytest.param(lambda: set_params_keeping_old(lambda ps: [*ps[:-1], ps[-1] * np.nan]),
                 NumericError, "non-finite values in parameter 3",
                 id="set-params-non-finite-writes-nothing"),
    pytest.param(lambda: nn.Dense(P, np.zeros(2)).set_params([np.full((2, 3), np.inf),
                                                              np.zeros(2)]),
                 NumericError, "non-finite values in parameter 0", id="dense-set-params-non-finite"),
    pytest.param(lambda: nn.loss_softmax_ce(np.zeros((0, 3)), []), InputError, "empty batch",
                 id="loss-empty-batch"),
    pytest.param(lambda: nn.loss_softmax_ce(np.zeros((2, 0, 3)), np.zeros((2, 0), int)),
                 InputError, "empty batch", id="loss-empty-stacked-batch"),
    pytest.param(lambda: nn.loss_softmax_ce(np.zeros((2, 3)), [0.5, 2.9]), InputError,
                 "labels must be integers", id="loss-fractional-labels"),
    pytest.param(lambda: nn.loss_softmax_ce(np.zeros((2, 3)), [0.0, np.nan]), InputError,
                 "labels must be integers", id="loss-nan-label"),
    pytest.param(lambda: nn.loss_softmax_ce(np.zeros((2, 3)), [0.0, 1e300]), InputError,
                 "labels must be integers", id="loss-label-beyond-int64"),
    pytest.param(lambda: nn.loss_softmax_ce(np.zeros((2, 3)), [0, -1]), InputError,
                 r"the batch needs a label in \[0, 3\)", id="loss-negative-label"),
    pytest.param(lambda: nn.as_labels([1.0, np.inf]), InputError, "labels must be integers",
                 id="infinite-label"),
    pytest.param(lambda: nn.as_labels(["0", "1"]), InputError, "labels must be integers",
                 id="string-labels"),
    pytest.param(lambda: nn.as_labels(np.array([2**63, 0], dtype=np.uint64)), InputError,
                 "labels must be integers", id="uint64-label-beyond-int64"),
    pytest.param(lambda: nn.build_mlp([3], np.random.default_rng(0)), InputError,
                 "input and output widths", id="one-width"),
    pytest.param(lambda: nn.finite_diff_grad(lambda ps: 0.0, [P], h=0.0), InputError,
                 "step size", id="zero-step"),
])
def test_bad_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
