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
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, InputError, NumericError

Array = np.ndarray


def as_tensor(x) -> Array:
    """Coerce to a float64 ndarray (the package-wide tensor type)."""
    return np.asarray(x, dtype=np.float64)


def as_labels(y, classes: int | None = None, owner: str = "the batch") -> Array:
    """Coerce to an int64 label array: int64 passes uncopied, other integers
    and integral floats are cast, and anything else raises ``InputError``
    rather than being truncated. Given ``classes``, a label outside
    [0, classes) also raises, naming ``owner``; empty labels pass."""
    y = np.asarray(y)
    if y.dtype != np.int64:
        if y.dtype.kind == "f":
            # Also false for NaN, infinities and magnitudes int64 cannot hold.
            fits = (np.abs(y) < 2.0**63) & (np.trunc(y) == y)
        elif y.dtype.kind in "biu":
            fits = y <= np.iinfo(np.int64).max  # only uint64 can exceed it
        else:
            fits = False
        if not np.logical_and.reduce(fits, axis=None):
            raise InputError("labels must be integers that int64 holds")
        y = y.astype(np.int64)
    if classes is not None and y.size and (y.min() < 0 or y.max() >= classes):
        raise InputError(f"{owner} needs a label in [0, {classes})")
    return y


def check_finite(x: Array, where: str) -> None:
    """Reject NaN/Inf; layer boundaries call this on their outputs."""
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NumericError(f"non-finite values in {where}")


class Dense:
    """Affine layer ``y = x @ W.T + b`` with ``W`` shaped [out, in], or
    [clients, out, in] with ``b`` [clients, out] for a client stack. It holds
    the arrays it is given, uncopied, and ``set_params`` writes into them."""

    kind = "dense"

    def __init__(self, weight, bias):
        weight, bias = as_tensor(weight), as_tensor(bias)
        if weight.ndim not in (2, 3):
            raise DimensionError("dense weight must be [out, in] or [clients, out, in]")
        if bias.shape != weight.shape[:-1]:
            raise DimensionError(
                f"bias shape {bias.shape} does not match out dim {weight.shape[:-1]}"
            )
        check_finite(weight, "dense weight")
        check_finite(bias, "dense bias")
        self.weight, self.bias = weight, bias

    def __setattr__(self, name, value):
        """Setting ``weight`` or ``bias`` also binds the view of it that
        ``forward`` reads (the transpose, the bias row): once per set, since
        building them per call cost a small model's epoch loop about 3%."""
        object.__setattr__(self, name, value)
        if name == "weight":
            object.__setattr__(self, "_weight_t", value.swapaxes(-1, -2))
        elif name == "bias":
            object.__setattr__(self, "_bias_row", value[..., None, :])

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]

    def params(self) -> list[Array]:
        return [self.weight, self.bias]

    def set_params(self, params: Sequence[Array]) -> None:
        _write_params(self.params(), params, "parameter shapes changed in set_params")

    def forward(self, x: Array) -> Array:
        if x.shape[-1] != self.weight.shape[-1]:
            raise DimensionError(
                f"dense layer expects {self.in_dim} features, got {x.shape[-1]}"
            )
        return x @ self._weight_t + self._bias_row

    def backward(self, x: Array, upstream: Array, out=None, input_grad=True):
        grad_w, grad_b = out or (None, None)
        grad_w = np.matmul(upstream.swapaxes(-1, -2), x, out=grad_w)
        grad_b = np.add.reduce(upstream, axis=-2, out=grad_b)
        return [grad_w, grad_b], (upstream @ self.weight if input_grad else None)

    def copy(self) -> "Dense":
        return Dense(self.weight.copy(), self.bias.copy())


class Relu:
    """Elementwise max(0, x)."""

    kind = "relu"

    def params(self) -> list[Array]:
        return []

    def forward(self, x: Array) -> Array:
        return np.maximum(x, 0.0)

    def backward(self, x: Array, upstream: Array, *_) -> tuple[list[Array], Array]:
        return [], upstream * (x > 0.0)


class Softmax:
    """Softmax output layer: probabilities over the last (class) axis.

    Training normally keeps logits and uses the fused ``loss_softmax_ce``;
    this layer exists for probability outputs and carries the exact Jacobian
    backward: ``dx_i = p_i * (g_i - sum_j g_j p_j)``.
    """

    kind = "softmax-output"

    def params(self) -> list[Array]:
        return []

    def forward(self, x: Array) -> Array:
        return np.exp(_log_softmax(x))

    def backward(self, x: Array, upstream: Array, *_) -> tuple[list[Array], Array]:
        p = np.exp(_log_softmax(x))
        inner = (upstream * p).sum(axis=-1, keepdims=True)
        return [], p * (upstream - inner)


Layer = Dense | Relu | Softmax


def _log_softmax(z: Array) -> Array:
    """Log-probabilities over the last axis: the max-shifted logits minus
    their log-sum-exp, as ``Softmax`` and ``loss_softmax_ce`` both take them.
    The ufunc reductions are what ndarray max/sum run, minus wrappers."""
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


@dataclass(slots=True)
class ActivationCache:
    """Per-layer inputs recorded during ``forward``, plus the final output."""

    layers: Sequence[Layer]
    inputs: list[Array]
    output: Array


def forward(layers: Sequence[Layer], x: Array, *, validate: bool = True) -> ActivationCache:
    """Run a batch through the stack, caching every layer input.

    ``x`` is [batch, features], or [clients, batch, features] for a client
    stack. Raises ``DimensionError`` on shape mismatch and ``NumericError``
    if the input or a Dense output is non-finite (parameter-free layers map
    finite to finite). ``validate=False`` skips the input checks."""
    if validate:
        x = as_tensor(x)
        if x.ndim not in (2, 3):
            raise DimensionError(f"input must be [(clients,) batch, features], got {x.shape}")
        check_finite(x, "network input")
    inputs: list[Array] = []
    for i, layer in enumerate(layers):
        inputs.append(x)
        x = layer.forward(x)
        if layer.kind == "dense":
            check_finite(x, f"output of layer {i} (dense)")
    return ActivationCache(layers, inputs, x)


def backward(cache: ActivationCache, upstream: Array, out=None, input_grad: bool = True):
    """Backpropagate ``upstream`` (d loss / d output) through a cached stack.

    Returns per-layer parameter gradients (aligned with the layer list; empty
    for parameter-free layers) and the gradient w.r.t. the network input.
    For a server segment the input gradient is exactly the cut-layer
    gradient handed back to clients. ``out`` (as ``LayerStack.grads``)
    receives the parameter gradients in place; ``input_grad=False`` skips
    the input gradient of a Dense first layer."""
    upstream = as_tensor(upstream)
    if upstream.shape != cache.output.shape:
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match cached output "
            f"{cache.output.shape}"
        )
    layers, inputs = cache.layers, cache.inputs
    grads: list[list[Array]] = [[] for _ in layers]
    g = upstream
    for i in range(len(layers) - 1, -1, -1):
        grads[i], g = layers[i].backward(inputs[i], g, out and out[i], input_grad or i > 0)
    return grads, g


def loss_softmax_ce(logits: Array, labels, *, validate: bool = True) -> tuple[float | Array, Array]:
    """Mean softmax cross-entropy over the batch, with its logits gradient.

    loss = mean_i of -log softmax(logits_i)[labels_i]
    grad = (softmax(logits) - onehot(labels)) / batch

    Stacked [clients, batch, classes] logits with [clients, batch] labels
    give one mean per client (an array) and the stacked gradient.
    Numerically stable for |logit| up to ~1e6 (log-sum-exp with max shift).
    ``validate=False`` skips the checks, for labels checked already."""
    if validate:
        logits = np.ascontiguousarray(logits, dtype=np.float64)
        labels = as_labels(labels)
        if logits.ndim not in (2, 3) or labels.shape != logits.shape[:-1]:
            raise DimensionError("logits must be [(clients,) batch, classes], a label per row")
        as_labels(labels, logits.shape[-1])
        if logits.shape[-2] == 0:
            raise InputError("cannot take the loss of an empty batch")
    n, k = logits.shape[-2:]
    # Flat index of each row's label entry in the (contiguous) [..., k] arrays.
    target = np.arange(0, labels.size * k, k) + labels.reshape(-1)
    log_p = _log_softmax(logits)
    loss = -np.add.reduce(log_p.take(target).reshape(labels.shape), axis=-1) / n
    grad = np.exp(log_p)
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


def sgd_step(params: Sequence[Array], grads: Sequence[Array],
             lr: float | Sequence[float]) -> list[Array]:
    """Plain gradient descent: w' = w - lr * g, with one ``lr`` or one per array."""
    lrs = _learning_rates(lr, params, grads)
    return [p - rate * g for p, g, rate in zip(params, grads, lrs)]


def adam_step(
    params: Sequence[Array],
    grads: Sequence[Array],
    state: OptimizerState,
    lr: float,
) -> tuple[list[Array], OptimizerState]:
    """Bias-corrected Adam update of copies of ``params``; the moments and
    step counter in ``state`` advance in place (see ``optimizer_step``)."""
    out = [np.array(p, dtype=np.float64) for p in params]
    optimizer_step(out, grads, state, lr)
    return out, state


# Adam's moment decay rates and denominator guard, the same for every run.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Elements per pass of the Adam kernel: its two scratch rows (256 KiB) stay
# in cache, where whole-array temporaries of a wide client stack would not.
ADAM_CHUNK = 16_384


class AdamWalk:
    """The path of an Adam step, built once. The flat (params, grads, m, v)
    ``arrays``, cut into segments by ``sizes``, are walked in ``ADAM_CHUNK``
    pieces; a piece keeps its four views, its length and the (start:stop
    slice, segment) parts of it that take each segment's rate. ``scratch``
    is the [2, width] pair of rows every step works in."""

    __slots__ = ("chunks", "segments", "width", "scratch")

    def __init__(self, arrays: Sequence[Array], sizes: Sequence[int]):
        n = sum(sizes)
        if {a.size for a in arrays} != {n}:
            raise InputError("moments and grads must be as long as their params")
        ends = list(accumulate(sizes, initial=0))
        self.chunks: list[tuple] = []
        self.segments, self.width = len(sizes), min(n, ADAM_CHUNK)
        for lo in range(0, n, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, n)
            cuts = [(slice(max(a, lo) - lo, min(b, hi) - lo), i)
                    for i, (a, b) in enumerate(zip(ends, ends[1:])) if max(a, lo) < min(b, hi)]
            self.chunks.append((*(a[lo:hi] for a in arrays), hi - lo, cuts))
        self.scratch = np.empty((2, self.width))

    def step(self, rates: Sequence[float], state: OptimizerState) -> None:
        """Adam step ``state.t``, segment i at ``rates[i]``, in ``scratch``.
        Every operation keeps the textbook association,
        ``((1-b2)*g)*g`` and ``(lr*m_hat)/(sqrt(v_hat)+eps)``, so results
        equal it bit for bit."""
        bc1, bc2 = 1.0 - ADAM_BETA1**state.t, 1.0 - ADAM_BETA2**state.t
        s1, s2 = self.scratch
        for pc, gc, mc, vc, n, cuts in self.chunks:
            t1, t2 = (s1, s2) if n == self.width else (s1[:n], s2[:n])
            mc *= ADAM_BETA1
            np.multiply(gc, 1.0 - ADAM_BETA1, out=t1)
            mc += t1
            vc *= ADAM_BETA2
            np.multiply(gc, 1.0 - ADAM_BETA2, out=t1)
            t1 *= gc
            vc += t1
            # x / 1.0 is x: skip the divide once 1 - beta1**t has rounded to 1.0.
            m_hat = mc if bc1 == 1.0 else np.divide(mc, bc1, out=t1)
            for part, i in cuts:
                np.multiply(m_hat[part], rates[i], out=t1[part])
            np.sqrt(np.divide(vc, bc2, out=t2), out=t2)
            t2 += ADAM_EPS
            t1 /= t2
            pc -= t1


def optimizer_step(
    params: Sequence[Array],
    grads: Sequence[Array],
    state: OptimizerState,
    lr: float | Sequence[float],
    walk: AdamWalk | None = None,
) -> list[Array]:
    """One in-place step on C-contiguous ``params`` (returned), per
    ``state.kind``, at one ``lr`` or one per array. SGD ignores ``walk``; Adam
    walks each array alone, or the ``walk`` that ``ParamBuffer`` built, whose
    arrays were checked then: only its rates, one per segment, are checked."""
    if state.kind != "adam":
        lrs = _learning_rates(lr, params, grads)
        for p, g, rate in zip([_writable_flat(p) for p in params], grads, lrs):
            p -= rate * g.reshape(-1)
        return list(params)
    if walk is not None:
        walks = [(walk, _rates(lr, walk.segments))]
    else:
        lrs = _learning_rates(lr, params, grads)
        if state.m is None or state.v is None:
            raise InputError("adam state is uninitialized")
        walks = [(AdamWalk([_writable_flat(p), g.reshape(-1), _writable_flat(m),
                            _writable_flat(v)], [p.size]), [rate])
                 for p, g, m, v, rate in zip(params, grads, state.m, state.v, lrs, strict=True)]
    state.t += 1
    for walk, rates in walks:
        walk.step(rates, state)
    return list(params)


def _learning_rates(lr, params: Sequence[Array], grads: Sequence[Array]) -> list[float]:
    """One positive learning rate per array, after checking the arrays align."""
    if len(params) != len(grads):
        raise DimensionError("need a grad per param")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionError(f"param shape {p.shape} vs grad shape {g.shape}")
    return _rates(lr, len(params))


def _rates(lr, count: int) -> list[float]:
    """``count`` positive learning rates: the list ``lr``, or ``lr`` for each."""
    lrs = list(lr) if isinstance(lr, (list, tuple)) else [lr] * count
    if len(lrs) != count:
        raise DimensionError("need one learning rate for all, or one per array or segment")
    if min(lrs, default=1.0) <= 0:
        raise InputError("learning rate must be positive")
    return lrs


def _writable_flat(a: Array) -> Array:
    if not isinstance(a, np.ndarray) or not a.flags.c_contiguous:
        raise DimensionError("optimizer arrays must be C-contiguous ndarrays")
    return a if a.ndim == 1 else a.reshape(-1)


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
    """Write a flat parameter list into the arrays of the layers that hold
    parameters; a list that differs from ``collect_params(layers)`` in length
    or in any shape, or that holds a non-finite value, raises before any
    layer is written."""
    _write_params(collect_params(layers), flat, "flat parameter list does not match layer stack")


def _write_params(targets: Sequence[Array], arrays: Sequence[Array], mismatch: str) -> None:
    """Copy ``arrays``, which may alias ``targets``, into them once every one
    is checked: one per target, of its shape, finite as float64."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    if len(arrays) != len(targets) or any(a.shape != t.shape for a, t in zip(arrays, targets)):
        raise DimensionError(mismatch)
    for i, a in enumerate(arrays):
        check_finite(a, f"parameter {i} given to set_params")
    for t, a in zip(targets, arrays):
        t[...] = a


def param_count(layers: Sequence[Layer]) -> int:
    return sum(p.size for p in collect_params(layers))


def copy_layers(layers: Sequence[Layer]) -> list[Layer]:
    """Copies of the layers that hold parameters; a parameter-free layer is shared."""
    return [layer.copy() if layer.params() else layer for layer in layers]


class ParamBuffer:
    """Flat parameters, gradients and optimizer moments, the rows of one
    block, cut into segments that each take their own learning rate in
    ``step``. ``LayerStack``s claim consecutive views: one step updates all."""

    def __init__(self, sizes: Sequence[int], optimizer: str):
        if optimizer not in ("sgd", "adam"):
            raise InputError(f"unknown optimizer kind {optimizer!r}")
        self._whole = np.zeros((4 if optimizer == "adam" else 2, sum(sizes)))
        self.params, self.grads = self._whole[:2]
        ends = list(accumulate(sizes, initial=0))
        cut = [[a[lo:hi] for lo, hi in zip(ends, ends[1:])] for a in self._whole]
        self._params, self._grads, *moments = cut
        self.opt = OptimizerState(optimizer, 0, *moments)
        self._walk = AdamWalk(self._whole, sizes) if optimizer == "adam" else None
        self._claimed = 0

    def claim(self, size: int) -> list[Array]:
        """Views of the next ``size`` elements of params, grads and moments."""
        lo, self._claimed = self._claimed, self._claimed + size
        return [a[lo : self._claimed] for a in self._whole]

    def step(self, lr: float | Sequence[float]) -> None:
        """One optimizer step from ``grads``, one lr or one per segment; Adam
        takes the one walk built with the buffer."""
        optimizer_step(self._params, self._grads, self.opt, lr, self._walk)


class LayerStack:
    """``slots`` copies of one layer segment as [slots, P] views claimed
    from ``buffer``, whose ``step`` updates them.

    ``layers`` runs every copy at once on [slots, batch, features] input;
    ``grads`` are the matching gradient views, for ``backward(..., out=)``.
    ``slot_layers(s)`` and ``slot_optimizer(s)`` view copy ``s``: no copy of
    weights, gradients or moments exists beside the buffer."""

    def __init__(self, layers: Sequence[Layer], slots: int, buffer: ParamBuffer):
        params = collect_params(layers)
        self._template = list(layers)
        self._shapes = [p.shape for p in params]
        size = slots * sum(p.size for p in params)
        self.opt = buffer.opt
        self.flat, self.grad, *self._moments = [a.reshape(slots, -1) for a in buffer.claim(size)]
        self.flat[:] = np.concatenate([p.reshape(-1) for p in params])
        self.layers = self._bind(self.flat)
        self.grads = self._group(self.grad)

    def slot_layers(self, slot: int) -> list[Layer]:
        return self._bind(self.flat[slot])

    def slot_optimizer(self, slot: int) -> OptimizerState:
        m, v = [self._split(a[slot]) for a in self._moments] or [None, None]
        return replace(self.opt, m=m, v=v)

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

    def _group(self, buf: Array) -> list[list[Array]]:
        """``_split(buf)`` grouped per layer, as ``backward`` returns grads."""
        views = iter(self._split(buf))
        return [[next(views) for _ in layer.params()] for layer in self._template]

    def _bind(self, buf: Array) -> list[Layer]:
        return [
            type(layer)(*views) if views else layer
            for layer, views in zip(self._template, self._group(buf))
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
