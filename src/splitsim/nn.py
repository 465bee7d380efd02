"""Minimal dense-network engine with exact backpropagation.

Everything is float64 numpy. A network is an ordered list of layers
(``Dense``, ``Relu``, ``Softmax``); ``forward`` records every layer input in
an ``ActivationCache`` so ``backward`` can produce parameter gradients plus
the gradient with respect to the network input. That input gradient is what
crosses the cut when a stack is split into client and server segments.

Gradient conventions:
    - losses are means over the batch dimension, so learning rates stay
      comparable across batch sizes;
    - ``backward(cache, upstream)`` propagates an arbitrary upstream
      gradient, enabling segment-wise chaining.

Layers are rank-polymorphic: a ``LayerStack`` of client copies runs them all
at once on [clients, batch, features] input, with the 2-D path's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, InputError, NumericError

Array = np.ndarray


def as_tensor(x) -> Array:
    """Coerce to a float64 ndarray (the package-wide tensor type)."""
    return np.asarray(x, dtype=np.float64)


def check_finite(x: Array, where: str) -> None:
    """Reject NaN/Inf; layer boundaries call this on their outputs."""
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite values in {where}")


class Dense:
    """Affine layer ``y = x @ W.T + b`` with ``W`` shaped [out, in], or
    [clients, out, in] with ``b`` [clients, out] for a client stack."""

    kind = "dense"

    def __init__(self, weight, bias):
        self.weight = as_tensor(weight)
        self.bias = as_tensor(bias)
        if self.weight.ndim not in (2, 3):
            raise DimensionError("dense weight must be [out, in] or [clients, out, in]")
        if self.bias.shape != self.weight.shape[:-1]:
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match out dim "
                f"{self.weight.shape[:-1]}"
            )
        check_finite(self.weight, "dense weight")
        check_finite(self.bias, "dense bias")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    def params(self) -> list[Array]:
        return [self.weight, self.bias]

    def set_params(self, params: Sequence[Array]) -> None:
        weight, bias = params
        if weight.shape != self.weight.shape or bias.shape != self.bias.shape:
            raise DimensionError("parameter shapes changed in set_params")
        self.weight, self.bias = weight, bias

    def forward(self, x: Array) -> Array:
        if x.shape[-1] != self.in_dim:
            raise DimensionError(
                f"dense layer expects {self.in_dim} features, got {x.shape[-1]}"
            )
        return x @ self.weight.swapaxes(-1, -2) + self.bias[..., None, :]

    def backward(self, x: Array, upstream: Array) -> tuple[list[Array], Array]:
        grad_w = upstream.swapaxes(-1, -2) @ x
        grad_b = upstream.sum(axis=-2)
        grad_x = upstream @ self.weight
        return [grad_w, grad_b], grad_x

    def copy(self) -> "Dense":
        return Dense(self.weight.copy(), self.bias.copy())


class Relu:
    """Elementwise max(0, x)."""

    kind = "relu"

    def params(self) -> list[Array]:
        return []

    def set_params(self, params: Sequence[Array]) -> None:
        if params:
            raise DimensionError("relu has no parameters")

    def forward(self, x: Array) -> Array:
        return np.maximum(x, 0.0)

    def backward(self, x: Array, upstream: Array) -> tuple[list[Array], Array]:
        return [], upstream * (x > 0.0)

    def copy(self) -> "Relu":
        return Relu()


class Softmax:
    """Row-wise softmax output layer (probabilities over classes).

    Training normally keeps logits and uses the fused ``loss_softmax_ce``;
    this layer exists for probability outputs and carries the exact Jacobian
    backward: ``dx_i = p_i * (g_i - sum_j g_j p_j)``.
    """

    kind = "softmax-output"

    def params(self) -> list[Array]:
        return []

    def set_params(self, params: Sequence[Array]) -> None:
        if params:
            raise DimensionError("softmax has no parameters")

    def forward(self, x: Array) -> Array:
        return _softmax(x)

    def backward(self, x: Array, upstream: Array) -> tuple[list[Array], Array]:
        p = _softmax(x)
        inner = (upstream * p).sum(axis=1, keepdims=True)
        return [], p * (upstream - inner)

    def copy(self) -> "Softmax":
        return Softmax()


Layer = Dense | Relu | Softmax


def _softmax(z: Array) -> Array:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class ActivationCache:
    """Per-layer inputs recorded during ``forward``, plus the final output."""

    layers: tuple
    inputs: list[Array]
    output: Array


def forward(layers: Sequence[Layer], x: Array) -> ActivationCache:
    """Run a batch through the stack, caching every layer input.

    ``x`` is [batch, features], or [clients, batch, features] for a client
    stack. Raises ``DimensionError`` on shape mismatch and ``NumericError``
    if any activation goes non-finite.
    """
    x = as_tensor(x)
    if x.ndim not in (2, 3):
        raise DimensionError(f"input must be [(clients,) batch, features], got {x.shape}")
    check_finite(x, "network input")
    inputs: list[Array] = []
    for i, layer in enumerate(layers):
        inputs.append(x)
        x = layer.forward(x)
        check_finite(x, f"output of layer {i} ({layer.kind})")
    return ActivationCache(layers=tuple(layers), inputs=inputs, output=x)


def backward(cache: ActivationCache, upstream: Array) -> tuple[list[list[Array]], Array]:
    """Backpropagate ``upstream`` (d loss / d output) through a cached stack.

    Returns per-layer parameter gradients (aligned with the layer list; empty
    for parameter-free layers) and the gradient w.r.t. the network input.
    For a server segment the input gradient is exactly the cut-layer
    gradient handed back to clients.
    """
    upstream = as_tensor(upstream)
    if upstream.shape != cache.output.shape:
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match cached output "
            f"{cache.output.shape}"
        )
    grads: list[list[Array]] = [[] for _ in cache.layers]
    g = upstream
    for i in range(len(cache.layers) - 1, -1, -1):
        grads[i], g = cache.layers[i].backward(cache.inputs[i], g)
    return grads, g


def loss_softmax_ce(logits: Array, labels) -> tuple[float | Array, Array]:
    """Mean softmax cross-entropy over the batch, with its logits gradient.

    loss = mean_i of -log softmax(logits_i)[labels_i]
    grad = (softmax(logits) - onehot(labels)) / batch

    Stacked [clients, batch, classes] logits with [clients, batch] labels
    give one mean per client (an array) and the stacked gradient.
    Numerically stable for |logit| up to ~1e6 (log-sum-exp with max shift).
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim not in (2, 3) or labels.shape != logits.shape[:-1]:
        raise DimensionError("logits must be [(clients,) batch, classes], a label per row")
    n, k = logits.shape[-2:]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise InputError(f"labels must lie in [0, {k})")
    # Flat index of each row's label entry in the (contiguous) [..., k] arrays.
    target = np.arange(0, labels.size * k, k) + labels.reshape(-1)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    per_row = log_z - shifted.reshape(-1)[target].reshape(labels.shape)
    loss = per_row.mean(axis=-1)
    grad = np.exp(shifted - log_z[..., None])
    grad.reshape(-1)[target] -= 1.0
    grad /= n
    return (float(loss) if logits.ndim == 2 else loss), grad


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """State for one parameter list; ``kind`` is "sgd" or "adam".

    Adam keeps first/second moment accumulators mirroring the parameter
    shapes and a step counter for bias correction. SGD carries nothing.
    """

    kind: str
    t: int = 0
    m: list[Array] | None = None
    v: list[Array] | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_optimizer(kind: str, params: Sequence[Array]) -> OptimizerState:
    if kind == "sgd":
        return OptimizerState(kind="sgd")
    if kind == "adam":
        return OptimizerState(
            kind="adam",
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )
    raise InputError(f"unknown optimizer kind {kind!r}")


def sgd_step(params: Sequence[Array], grads: Sequence[Array], lr: float) -> list[Array]:
    """Plain gradient descent: w' = w - lr * g."""
    if lr <= 0:
        raise InputError("learning rate must be positive")
    _check_aligned(params, grads)
    return [p - lr * g for p, g in zip(params, grads)]


def adam_step(
    params: Sequence[Array],
    grads: Sequence[Array],
    state: OptimizerState,
    lr: float,
) -> tuple[list[Array], OptimizerState]:
    """Bias-corrected Adam update of copies of ``params``; the moments and
    step counter in ``state`` advance in place (see ``adam_update``)."""
    out = [np.array(p, dtype=np.float64) for p in params]
    adam_update(out, grads, state, lr)
    return out, state


# Elements per pass of the Adam kernel: its two scratch rows (256 KiB) stay
# in cache, where whole-array temporaries of a wide client stack would not.
ADAM_CHUNK = 16_384


def adam_update(
    params: Sequence[Array],
    grads: Sequence[Array],
    state: OptimizerState,
    lr: float,
) -> None:
    """In-place Adam over C-contiguous arrays, in ``ADAM_CHUNK`` pieces.

    Every operation keeps the textbook association, ``((1-b2)*g)*g`` and
    ``(lr*m_hat)/(sqrt(v_hat)+eps)``, so results equal it bit for bit."""
    if lr <= 0:
        raise InputError("learning rate must be positive")
    _check_aligned(params, grads)
    if state.m is None or state.v is None:
        raise InputError("adam state is uninitialized")
    flats = [
        (_writable_flat(p), np.ravel(g), _writable_flat(m), _writable_flat(v))
        for p, g, m, v in zip(params, grads, state.m, state.v)
    ]
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    scratch = np.empty((2, min(ADAM_CHUNK, max((p.size for p in params), default=0))))
    for p, g, m, v in flats:
        for lo in range(0, p.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, p.size)
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            t1, t2 = scratch[0, : hi - lo], scratch[1, : hi - lo]
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=t1)
            mc += t1
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=t1)
            t1 *= gc
            vc += t1
            np.divide(mc, bc1, out=t1)
            t1 *= lr
            np.divide(vc, bc2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += eps
            t1 /= t2
            pc -= t1


def optimizer_step(
    params: Sequence[Array],
    grads: Sequence[Array],
    state: OptimizerState,
    lr: float,
) -> list[Array]:
    """Dispatch on ``state.kind``; updates ``params`` in place and returns them."""
    if state.kind == "adam":
        adam_update(params, grads, state, lr)
    elif lr <= 0:
        raise InputError("learning rate must be positive")
    else:
        _check_aligned(params, grads)
        for p, g in zip([_writable_flat(p) for p in params], grads):
            p -= lr * np.ravel(g)
    return list(params)


def _writable_flat(a: Array) -> Array:
    if not isinstance(a, np.ndarray) or not a.flags.c_contiguous:
        raise DimensionError("optimizer arrays must be C-contiguous ndarrays")
    return a.reshape(-1)


def _check_aligned(params: Sequence[Array], grads: Sequence[Array]) -> None:
    if len(params) != len(grads):
        raise DimensionError("params and grads differ in length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionError(f"param shape {p.shape} vs grad shape {g.shape}")


# ---------------------------------------------------------------------------
# Stack-level parameter plumbing
# ---------------------------------------------------------------------------

def collect_params(layers: Sequence[Layer]) -> list[Array]:
    """Flatten layer parameters in stack order."""
    out: list[Array] = []
    for layer in layers:
        out.extend(layer.params())
    return out


def collect_grads(param_grads: Sequence[Sequence[Array]]) -> list[Array]:
    """Flatten per-layer gradients (as returned by ``backward``)."""
    out: list[Array] = []
    for g in param_grads:
        out.extend(g)
    return out


def set_params(layers: Sequence[Layer], flat: Sequence[Array]) -> None:
    """Write a flat parameter list back into the layers."""
    i = 0
    for layer in layers:
        n = len(layer.params())
        layer.set_params(list(flat[i : i + n]))
        i += n
    if i != len(flat):
        raise DimensionError("flat parameter list does not match layer stack")


def param_count(layers: Sequence[Layer]) -> int:
    return sum(p.size for p in collect_params(layers))


def copy_layers(layers: Sequence[Layer]) -> list[Layer]:
    return [layer.copy() for layer in layers]


class LayerStack:
    """``slots`` copies of one layer segment in one flat [slots, P] buffer.

    ``layers`` runs every copy at once on [slots, batch, features] input.
    ``slot_layers(s)`` and ``slot_optimizer(s)`` are views of copy ``s``, so
    no copy of the weights or optimizer moments exists beside the buffer."""

    def __init__(self, layers: Sequence[Layer], slots: int, optimizer: str):
        params = collect_params(layers)
        self._template = list(layers)
        self._shapes = [p.shape for p in params]
        self.flat = np.empty((slots, sum(p.size for p in params)))
        self.flat[:] = np.concatenate([p.reshape(-1) for p in params])
        self.opt = init_optimizer(optimizer, [self.flat])
        self.layers = self._bind(self.flat)

    def slot_layers(self, slot: int) -> list[Layer]:
        return self._bind(self.flat[slot])

    def slot_optimizer(self, slot: int) -> OptimizerState:
        m, v = self.opt.m, self.opt.v
        return replace(
            self.opt,
            m=None if m is None else self._split(m[0][slot]),
            v=None if v is None else self._split(v[0][slot]),
        )

    def step(self, param_grads: Sequence[Sequence[Array]], lr: float) -> None:
        """One optimizer step for every copy, from stacked ``backward`` grads."""
        grads = [g.reshape(len(self.flat), -1) for g in collect_grads(param_grads)]
        optimizer_step([self.flat], [np.concatenate(grads, axis=1)], self.opt, lr)

    def average(self, weights: Array) -> None:
        """Set every copy to the ``weights``-weighted sum over copies. numpy
        sums axis 0 of [slots, P] slot by slot when P > 1, which holds for
        any segment with a Dense layer, so it accumulates in slot order."""
        self.flat[:] = (weights[:, None] * self.flat).sum(axis=0)

    def _split(self, buf: Array) -> list[Array]:
        """Views of the parameters packed along the last axis of ``buf``."""
        out, start = [], 0
        for shape in self._shapes:
            stop = start + math.prod(shape)
            out.append(buf[..., start:stop].reshape(buf.shape[:-1] + shape))
            start = stop
        return out

    def _bind(self, buf: Array) -> list[Layer]:
        views = iter(self._split(buf))
        return [
            type(layer)(*(next(views) for _ in layer.params())) if layer.params()
            else layer.copy()
            for layer in self._template
        ]


# ---------------------------------------------------------------------------
# Construction and the finite-difference oracle
# ---------------------------------------------------------------------------

def glorot_dense(in_dim: int, out_dim: int, rng: np.random.Generator) -> Dense:
    """Dense layer with all parameters uniform(-a, a), a = sqrt(6/(in+out)).

    Biases use the same draw; nonzero biases keep ReLU preactivations off
    the exact kink even when an upstream layer clamps a whole row.
    """
    a = np.sqrt(6.0 / (in_dim + out_dim))
    weight = rng.uniform(-a, a, size=(out_dim, in_dim))
    bias = rng.uniform(-a, a, size=out_dim)
    return Dense(weight, bias)


def build_mlp(widths: Sequence[int], rng: np.random.Generator) -> list[Layer]:
    """Dense/ReLU stack over ``widths``; the final dense emits logits."""
    if len(widths) < 2:
        raise InputError("need at least input and output widths")
    layers: list[Layer] = []
    for i in range(len(widths) - 1):
        layers.append(glorot_dense(widths[i], widths[i + 1], rng))
        if i < len(widths) - 2:
            layers.append(Relu())
    return layers


def finite_diff_grad(
    f: Callable[[list[Array]], float],
    params: Sequence[Array],
    h: float = 1e-6,
) -> list[Array]:
    """Central-difference gradient of ``f`` w.r.t. every parameter entry.

    ``f`` must be deterministic. Used as the independent oracle against
    ``backward``; O(2 * total parameters) evaluations.
    """
    if h <= 0:
        raise InputError("step size h must be positive")
    work = [p.copy() for p in params]
    grads = [np.zeros_like(p) for p in params]
    for k, p in enumerate(work):
        flat = p.reshape(-1)
        gflat = grads[k].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = f(work)
            flat[j] = orig - h
            down = f(work)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h)
    return grads
