"""Model partitioning at the cut layer and server-side batch handling.

A ``SplitModel`` is one layer stack plus a cut index; clients run the lower
segment and the server runs the rest. The trainer's server pass is
``server_gradients``: the clients' smashed data arrives stacked as
[clients, batch, cut_width] and is backpropagated as one concatenated
batch. ``SmashedBatch``, ``ConcatBatch``, ``client_forward``, ``concat``
and ``server_forward_backward`` are the per-client reference round
(upload, concatenate, forward/backward, update) that the tests check the
trainer against; the trainer calls none of them.

Loss convention: each client's rows contribute a *mean* cross-entropy over
that client's own rows, and client means are combined with the data-share
weights delta_i. The combined server gradient is then the delta-weighted sum
of per-client server gradients, and the cut-layer gradient slice returned
for client i carries the same delta_i scale (so a single client with
delta=1 reduces exactly to unsplit training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .errors import DimensionError, InputError

Array = np.ndarray

DELTA_TOL = 1e-9


@dataclass
class SplitModel:
    """An ordered layer stack partitioned at ``cut_index``.

    ``layers[:cut_index]`` form the client segment, ``layers[cut_index:]``
    the server segment. Requires 1 <= cut_index < len(layers).
    """

    layers: list
    cut_index: int

    def __post_init__(self):
        if not 1 <= self.cut_index < len(self.layers):
            raise InputError(
                f"cut index {self.cut_index} outside [1, {len(self.layers) - 1}]"
            )

    @property
    def client_segment(self) -> list:
        return self.layers[: self.cut_index]

    @property
    def server_segment(self) -> list:
        return self.layers[self.cut_index :]

    def copy(self) -> "SplitModel":
        return SplitModel(nn.copy_layers(self.layers), self.cut_index)


@dataclass
class SmashedBatch:
    """Cut-layer activations for one client's mini-batch, with labels."""

    client_id: int
    smashed: Array
    labels: np.ndarray

    def __post_init__(self):
        if self.smashed.ndim != 2:
            raise DimensionError("smashed data must be [batch, cut_width]")
        if len(self.labels) != self.smashed.shape[0]:
            raise DimensionError("label count does not match smashed rows")


@dataclass
class ConcatBatch:
    """Client batches stacked along the batch dimension, in client-id order."""

    smashed: Array
    labels: np.ndarray
    client_ids: list[int]
    offsets: list[tuple[int, int]]


def client_forward(
    client_layers: Sequence,
    features: Array,
    labels,
    client_id: int,
) -> tuple[SmashedBatch, nn.ActivationCache]:
    """Run a batch through the client segment.

    Returns the transportable ``SmashedBatch`` plus the activation cache the
    client must keep locally for its backward pass.
    """
    features = nn.as_tensor(features)
    if features.shape[0] == 0:
        raise InputError("client batch is empty")
    cache = nn.forward(client_layers, features)
    batch = SmashedBatch(
        client_id=client_id,
        smashed=cache.output,
        labels=nn.as_labels(labels),
    )
    return batch, cache


def concat(batches: Sequence[SmashedBatch]) -> ConcatBatch:
    """Stack smashed batches in ascending client-id order.

    Input order does not matter; the output is canonical so cross-client
    reductions stay bitwise reproducible.
    """
    if not batches:
        raise InputError("no smashed batches to concatenate")
    ordered = sorted(batches, key=lambda b: b.client_id)
    ids = [b.client_id for b in ordered]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate client ids in concat")
    width = ordered[0].smashed.shape[1]
    for b in ordered:
        if b.smashed.shape[1] != width:
            raise DimensionError(
                f"cut width mismatch: {b.smashed.shape[1]} vs {width}"
            )
    offsets = []
    start = 0
    for b in ordered:
        offsets.append((start, start + len(b.labels)))
        start += len(b.labels)
    return ConcatBatch(
        smashed=np.concatenate([b.smashed for b in ordered], axis=0),
        labels=np.concatenate([b.labels for b in ordered]),
        client_ids=ids,
        offsets=offsets,
    )


@dataclass
class ServerStepResult:
    """Outcome of one server forward/backward/update round."""

    loss: float
    cut_grads: dict[int, Array]


def combine_losses(deltas: Array, losses: Array) -> float:
    """sum_i delta_i * loss_i, accumulated in client order from 0.0."""
    total = 0.0
    for weighted in (deltas * losses).tolist():
        total += weighted
    return total


def server_gradients(
    server_layers: Sequence, smashed: Array, labels: Array, deltas: Array, out=None,
    *, validate: bool = True,
) -> tuple[float, Array, list[list[Array]]]:
    """Backprop client-stacked smashed data [clients, batch, cut_width] and
    labels [clients, batch] as one concatenated batch, without an update.

    The upstream row for client i's sample j is ``delta_i * (softmax -
    onehot)_j / b``, so one backward pass gives the delta-weighted sum of
    per-client server gradients. Returns the delta-weighted loss, the
    stacked (delta-scaled) cut gradient and the parameter gradients, written
    into ``out`` as by ``nn.backward``. ``validate`` is passed on to
    ``nn.forward`` and ``nn.loss_softmax_ce``."""
    c, b, width = smashed.shape
    cache = nn.forward(server_layers, smashed.reshape(c * b, width), validate=validate)
    logits = cache.output
    losses, grad = nn.loss_softmax_ce(logits.reshape(c, b, -1), labels, validate=validate)
    grad *= deltas[:, None, None]
    param_grads, input_grad = nn.backward(cache, grad.reshape(logits.shape), out)
    return combine_losses(deltas, losses), input_grad.reshape(c, b, width), param_grads


def server_forward_backward(
    server_layers: Sequence,
    batch: ConcatBatch,
    deltas: dict[int, float],
    lr: float,
    opt_state: nn.OptimizerState,
) -> ServerStepResult:
    """One server round: ``server_gradients`` on a batch with the same row
    count per client, then an in-place optimizer step. ``cut_grads[i]`` is
    client i's cut gradient, taken before the update."""
    missing = [cid for cid in batch.client_ids if cid not in deltas]
    if missing:
        raise InputError(f"missing delta weights for clients {missing}")
    d = np.array([deltas[cid] for cid in batch.client_ids])
    if np.any(d < 0) or abs(d.sum() - 1.0) > DELTA_TOL:
        raise InputError("delta weights must be nonnegative and sum to 1")
    c = len(batch.client_ids)
    b = batch.smashed.shape[0] // c
    if any(stop - start != b for start, stop in batch.offsets):
        raise DimensionError("every client must send the same number of rows")
    loss, cut_grad, param_grads = server_gradients(
        server_layers, batch.smashed.reshape(c, b, -1), batch.labels.reshape(c, b), d
    )
    nn.optimizer_step(
        nn.collect_params(server_layers), nn.collect_grads(param_grads), opt_state, lr
    )
    return ServerStepResult(loss=loss, cut_grads=dict(zip(batch.client_ids, cut_grad)))
