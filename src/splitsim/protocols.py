"""Round-based engines for the split/federated training protocols.

Supported protocol kinds, one row each of ``KINDS``:

    ssl   sequential split learning: one traveling client segment, clients
          visited in id order, weights handed to the next client
    psl   parallel split learning: all clients forward together, the server
          takes one delta-combined step, each client steps on its own
          cut-layer gradient slice
    fl    federated averaging over full client models
    sfl   psl plus layer-wise client weight averaging after each round
    slr   psl with a power-law-scaled server learning rate
    sgl   psl with the active clients' cut gradients replaced by their
          server-side combination, broadcast in common
    sglr  slr and sgl combined

A kind is a row of switches (``Kind``): gradient averaging, server learning
rate scaling, a server or none, one travelling segment, LocAvg after each
round. ``SplitTrainer.run_epoch`` is one epoch loop for all of them over the
same client-stacked round, ``_round``, so the degenerate cases
collapse bitwise: sglr with active_fraction 0 and lr_exponent 0 runs exactly
psl's arithmetic. fl's and ssl's rounds run their whole models as one chain.

All randomness flows through ``keyed_rng``: every consumer (weight init,
per-client batch shuffles, active-set sampling) owns an independent stream
derived from (seed, stream id, key...), so protocols that skip a mechanism
still draw identical batches; a sweep draws each once (``shared_batch_orders``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn, splitting
from .errors import DimensionError, InputError

Array = np.ndarray


@dataclass(frozen=True)
class Kind:
    """A protocol kind as switches over the shared round; ``cost`` is its ``comm.METHODS`` row."""

    cost: str
    grad_avg: bool = False  # active clients' cut gradients are averaged (phi)
    lr_scale: bool = False  # the server learning rate is scaled (alpha)
    server: bool = True  # False: full client models, no smashed data (fl)
    travelling: bool = False  # one segment visits the clients in turn (ssl)
    loc_avg: bool = False  # LocAvg after every round


KINDS = {
    "ssl": Kind("ssl", travelling=True),
    "psl": Kind("psl"),
    "fl": Kind("fl", server=False, loc_avg=True),
    "sfl": Kind("sfl", loc_avg=True),
    "slr": Kind("psl", lr_scale=True),
    "sgl": Kind("sglr", grad_avg=True),
    "sglr": Kind("sglr", grad_avg=True, lr_scale=True),
}
PROTOCOL_KINDS = tuple(KINDS)
EVAL_ROWS = 1024  # most rows one ``evaluate`` block sends through ``nn.forward``
_shared_orders: dict | None = None  # the open ``shared_batch_orders`` scope's orders

# Stream ids for keyed_rng; fixed so runs stay reproducible across versions.
STREAM_INIT = 0
STREAM_BATCH = 1
STREAM_ACTIVE = 2
STREAM_PARTITION = 3
STREAM_VALSPLIT = 4
STREAM_SYNTH = 5
STREAM_LEAKAGE = 6


def keyed_rng(seed: int, stream: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, stream, key...)."""
    return np.random.default_rng([int(seed), int(stream), *map(int, key)])


@dataclass
class ProtocolConfig:
    """Protocol kind plus every hyperparameter a run needs.

    ``active_fraction`` (phi) and ``lr_exponent`` (alpha) only take effect
    for the kinds that use them; psl forces both off, slr uses only alpha,
    sgl only phi.
    """

    kind: str
    clients: int
    active_fraction: float = 0.0
    lr_exponent: float = 0.0
    base_lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 30
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown protocol kind {self.kind!r}")
        if self.clients < 1:
            raise InputError("need at least one client")
        for name in ("active_fraction", "lr_exponent", "base_lr"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if not 0.0 <= self.active_fraction <= 1.0:
            raise InputError("active_fraction must lie in [0, 1]")
        if self.lr_exponent < 0:
            raise InputError("lr_exponent must be nonnegative")
        if self.base_lr <= 0:
            raise InputError("base_lr must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise InputError("batch_size and epochs must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.optimizer not in ("sgd", "adam"):
            raise InputError(f"unknown optimizer {self.optimizer!r}")
        split_lr(self.base_lr, self.clients, self.effective_mechanisms()[1])  # validates

    def effective_mechanisms(self) -> tuple[float, float]:
        """(phi, alpha) actually applied, given the protocol kind."""
        kind = KINDS[self.kind]
        return (self.active_fraction if kind.grad_avg else 0.0,
                self.lr_exponent if kind.lr_scale else 0.0)


@dataclass
class ClientState:
    """One client's local data and data share, plus views of its slot in
    the trainer's client stack, bound on each access: ``layers`` and ``opt``."""

    client_id: int
    features: Array
    labels: np.ndarray
    delta: float
    stack: nn.LayerStack
    slot: int

    @property
    def layers(self) -> list:
        return self.stack.slot_layers(self.slot)

    @property
    def opt(self) -> nn.OptimizerState:
        return self.stack.slot_optimizer(self.slot)


@dataclass
class RoundMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float
    server_lr: float
    active_ids: list[int]
    steps: int


# ---------------------------------------------------------------------------
# The four standalone mechanisms
# ---------------------------------------------------------------------------

def split_lr(base_lr: float, clients: int, exponent: float) -> tuple[float, float]:
    """Client and server learning rates under power-law scaling:
    eta_c = eta_0, eta_s = eta_0 * C**alpha."""
    if clients < 1:
        raise InputError("clients must be >= 1")
    if exponent < 0:
        raise InputError("exponent must be nonnegative")
    try:
        server_lr = base_lr * clients**exponent
    except OverflowError:
        server_lr = math.inf
    if not math.isfinite(server_lr):
        raise InputError(f"server learning rate {base_lr:g} * {clients}**{exponent:g} overflows")
    return base_lr, server_lr


def sample_active_clients(
    clients: int, fraction: float, rng: np.random.Generator
) -> list[int]:
    """Uniformly sample floor(fraction * clients + 1e-9) ids without
    replacement, as a sorted list. The 1e-9 makes a decimal fraction k/clients
    activate k (0.29 * 100 is 28.999999999999996 in floats), so a fraction
    within 1e-9 / clients below a multiple of 1/clients rounds up to it."""
    if not 0.0 <= fraction <= 1.0:
        raise InputError("fraction must lie in [0, 1]")
    count = int(math.floor(fraction * clients + 1e-9))
    return sorted(int(i) for i in rng.choice(clients, size=count, replace=False))


def split_avg(
    cut_grads: dict[int, Array], active: Sequence[int]
) -> tuple[Array | None, dict[int, Array]]:
    """Average active clients' cut gradients; assign per-client gradients.

    Active clients all receive the arithmetic mean of their gradients;
    inactive clients keep their own. ``active_sum`` adds them in float64 and
    ascending client id, so the result is bitwise reproducible.
    """
    active = sorted(active)
    for cid in active:
        if cid not in cut_grads:
            raise InputError(f"active client {cid} has no cut gradient")
    if len({cut_grads[cid].shape for cid in active}) > 1:
        raise DimensionError("active cut gradients differ in shape")
    common = None
    if active:
        total = active_sum(np.stack([cut_grads[cid] for cid in active], dtype=np.float64),
                           range(len(active)))
        common = total / len(active)
    return common, {cid: (common if cid in active else g) for cid, g in cut_grads.items()}


def active_sum(rows: Array, active: Sequence[int]) -> Array:
    """``rows[active]`` summed row by row in the order of ``active``: the
    cut-gradient sum of the round and of ``split_avg``. A reduce over axis 0
    adds whole rows in that order, but it pairs up the terms of one-element
    rows, so those are added in a loop."""
    if rows[0].size > 1:
        return np.add.reduce(rows[active], axis=0, initial=0.0)
    total = np.zeros(rows.shape[1:])
    for cid in active:
        total += rows[cid]
    return total


def _checked(x, y, layers, owner: str) -> tuple[Array, np.ndarray]:
    """(features, labels) as arrays: finite 2-D features and one label per
    row in [0, classes), classes being the width of the last Dense layer."""
    classes = next((l.out_dim for l in reversed(layers) if l.kind == "dense"), None)
    if classes is None:
        raise InputError(f"the model for {owner} has no Dense layer")
    x, y = nn.as_tensor(x), nn.as_labels(y, classes, owner)
    nn.check_finite(x, f"features of {owner}")
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise InputError(f"{owner} needs a label in [0, {classes}) per feature row")
    return x, y


def evaluate(layers, features: Array, labels, validate: bool = True) -> float:
    """Top-1 accuracy of the layer list ``layers``; ``validate=False`` takes
    features and labels as already checked arrays. Rows go through
    ``nn.forward`` in even blocks, so no short tail rounds apart."""
    if validate:
        features, labels = _checked(features, labels, layers, "evaluation data")
    n = features.shape[0]
    if n == 0:
        raise InputError("cannot evaluate on an empty dataset")
    blocks = math.ceil(n / EVAL_ROWS)
    hits = 0
    for x, y in zip(np.array_split(features, blocks), np.array_split(labels, blocks)):
        logits = nn.forward(layers, x, validate=False).output
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == y))
    return hits / n


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------

def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> Array:
    """Seeded shuffle, then full batches only (partial tail is skipped): a
    [rounds, batch_size] array of row indices."""
    rounds = n // batch_size
    return rng.permutation(n)[: rounds * batch_size].reshape(rounds, batch_size)


@contextmanager
def shared_batch_orders():
    """A scope in which every trainer draws each (seed, epoch, client, rows,
    batch size) batch order once, as all kinds draw the same batches. A scope
    opened inside another joins it; only the outermost exit releases them."""
    global _shared_orders
    outermost = _shared_orders is None
    if outermost:
        _shared_orders = {}
    try:
        yield
    finally:
        if outermost:
            _shared_orders = None


def _recipients(ids, active: Sequence[int]) -> tuple[Array, list[int]]:
    """Where a turn's cut gradients go: the ``active`` rows (an index array)
    share one broadcast average, and the ``ids`` outside them keep their own."""
    shared = set(active)
    return np.array(active, dtype=np.intp), [c for c in ids if c not in shared]


def _row_pool(pairs) -> tuple[Array, np.ndarray, Array]:
    """(features, labels, each pair's first row): the base arrays of which
    every pair is the same run of rows, or else the pairs concatenated once."""
    bases = [a.base if isinstance(a.base, np.ndarray) else a for a in pairs[0]]
    first = _first_rows([x for x, _ in pairs], bases[0])
    if None in first or first != _first_rows([y for _, y in pairs], bases[1]):
        bases = [np.concatenate(a) for a in zip(*pairs)]
        first = np.cumsum([0, *(len(y) for _, y in pairs[:-1])])
    return *bases, np.array(first)


def _first_rows(arrays, base) -> list[int | None]:
    """Each array's first row in ``base``, or None where it is no run of its rows."""
    start, row_bytes = base.ctypes.data, max(1, base[:1].nbytes)
    rows = [divmod(a.ctypes.data - start, row_bytes) for a in arrays]
    return [row if rem == 0 and (a is base or a.base is base) and a.flags.c_contiguous
            and a.dtype == base.dtype and a.shape[1:] == base.shape[1:] else None
            for a, (row, rem) in zip(arrays, rows)]


class SplitTrainer:
    """Drives one protocol over a set of clients and a shared server.

    ``client_data`` is one (features, labels) pair per client; delta weights
    come from the realized sample counts. The client segments are the rows
    of one ``nn.LayerStack`` and every kind runs ``_round`` over
    it, as its row of ``KINDS`` says: every client per round, or (ssl) a
    single row that travels from client to client; LocAvg (the
    delta-weighted mean over the rows) after each round for sfl and fl, fl
    over full models with no server. All cross-client reductions run in
    ascending client id.

    Client rows, then the server, share one ``nn.ParamBuffer``, a segment
    each, stepped at ``[eta_c, eta_s]``: one step a round. A ``ledger``
    (``comm.CommLedger``) gets every payload, sized as its array's ``nbytes``.
    """

    def __init__(
        self,
        model: splitting.SplitModel,
        client_data: Sequence[tuple[Array, np.ndarray]],
        config: ProtocolConfig,
        val_data: tuple[Array, np.ndarray] | None = None,
        ledger=None,
    ):
        if len(client_data) != config.clients:
            raise InputError(
                f"config says {config.clients} clients, got {len(client_data)}"
            )
        self.config = config
        self.kind = kind = KINDS[config.kind]
        self.ledger = ledger
        self._log = (lambda *payload: None) if ledger is None else ledger.record_each
        self.steps = 0

        checked = [_checked(x, y, model.layers, f"client {cid}")
                   for cid, (x, y) in enumerate(client_data)]
        total = sum(len(y) for _, y in checked)
        if total == 0:
            raise InputError("no training data")
        self._x, self._y, self._first = _row_pool(checked)
        self.val_data = (None if val_data is None
                         else _checked(*val_data, model.layers, "validation"))

        self.eta_c, self.eta_s = split_lr(
            config.base_lr, config.clients, config.effective_mechanisms()[1])
        segment = model.client_segment if kind.server else model.layers
        rows = 1 if kind.travelling else config.clients
        server_size = nn.param_count(model.server_segment) if kind.server else 0
        self.buffer = nn.ParamBuffer([rows * nn.param_count(segment), server_size],
                                     config.optimizer)
        self.stack = nn.LayerStack(segment, rows, self.buffer)
        slots = [0] * config.clients if kind.travelling else range(config.clients)
        self.clients = [
            ClientState(cid, self._x[f : f + len(y)], self._y[f : f + len(y)], len(y) / total,
                        self.stack, slot)
            for (cid, (_, y)), f, slot in zip(enumerate(checked), self._first, slots)
        ]
        self.deltas = {c.client_id: c.delta for c in self.clients}
        self._delta_array = np.array([c.delta for c in self.clients])
        self._server_weights = np.ones(1) if kind.travelling else self._delta_array

        self.server, self.server_layers, self._server_grads = None, None, None
        # fl's rows, and ssl's one row with its one server row, are whole models: one chain.
        self._chained = not kind.server or kind.travelling
        self._layers, self._grads = self.stack.layers, self.stack.grads
        if kind.server:
            self.server = nn.LayerStack(model.server_segment, 1, self.buffer)
            self.server_layers = self.server.slot_layers(0)
            self._server_grads = [[g[0] for g in grads] for grads in self.server.grads]
            if kind.travelling:
                self._layers = self._layers + self.server.layers
                self._grads = self._grads + self.server.grads
        # Client 0's model to evaluate: views that every in-place write keeps current.
        self._eval_layers = [*self.clients[0].layers, *(self.server_layers or [])]

    # -- public API ---------------------------------------------------------

    def run(self, epochs: int | None = None) -> list[RoundMetrics]:
        epochs = self.config.epochs if epochs is None else epochs
        return [self.run_epoch(e) for e in range(epochs)]

    def run_epoch(self, epoch: int) -> RoundMetrics:
        """Each round every client takes its next batch; a travelling segment
        instead takes one client's batches in turn, then is handed to the
        next client (cyclic at epoch end)."""
        cfg, kind = self.config, self.kind
        phi, _ = cfg.effective_mechanisms()
        active = sample_active_clients(
            cfg.clients, phi, keyed_rng(cfg.seed, STREAM_ACTIVE, epoch)) if phi > 0 else []

        batches = [self._batches_for(c, epoch) for c in self.clients]
        everyone = range(cfg.clients)
        turns = [[cid] for cid in everyone] if kind.travelling else [everyone]
        losses = []
        for ids in turns:
            averaged, unicast = _recipients(ids, active)
            rounds = min(len(batches[cid]) for cid in ids)
            for rows in np.stack([batches[c][:rounds] for c in ids], 1) + self._first[ids, None]:
                losses.append(self._round(ids, rows, averaged, unicast))
                if kind.loc_avg:
                    self._local_weight_average()
            if kind.travelling:
                nbytes = self.stack.flat[0].nbytes
                self._log("up", "model-weights", ids, nbytes)
                self._log("down", "model-weights", [(ids[0] + 1) % cfg.clients], nbytes)
        return RoundMetrics(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            val_accuracy=self._validation_accuracy(),
            server_lr=self.eta_s,
            active_ids=active,
            steps=self.steps,
        )

    def evaluate_on(self, features: Array, labels) -> float:
        """Accuracy through client 0's segment (or full model for fl)."""
        return evaluate(self._eval_layers, features, labels)

    @property
    def server_opt(self) -> nn.OptimizerState | None:
        """View of the server segment's optimizer state (None for fl)."""
        return None if self.server is None else self.server.slot_optimizer(0)

    # -- shared plumbing ------------------------------------------------------

    def _validation_accuracy(self) -> float:
        return (0.0 if self.val_data is None  # else checked at build
                else evaluate(self._eval_layers, *self.val_data, validate=False))

    def _batches_for(self, client: ClientState, epoch: int) -> Array:
        """The client's batch order for ``epoch``, read-only; drawn once per scope."""
        cfg, orders = self.config, {} if _shared_orders is None else _shared_orders
        seed, cid, rows, size = cfg.seed, client.client_id, len(client.labels), cfg.batch_size
        if (key := (seed, epoch, cid, rows, size)) not in orders:
            orders[key] = _epoch_batches(rows, size, keyed_rng(seed, STREAM_BATCH, epoch, cid))
            orders[key].flags.writeable = False
        return orders[key]

    # -- the round engine -------------------------------------------------------

    def _parallel_round(self, batch_ix: dict[int, Array], active: list[int]) -> float:
        """One round over the client stack, a row per ``batch_ix`` entry
        (client id -> batch rows, ascending ids): every client, so row i is
        client i, or for ssl the one client holding the travelling segment."""
        rows = [self._first[cid] + ix for cid, ix in batch_ix.items()]
        return self._round(list(batch_ix), np.stack(rows), *_recipients(batch_ix, active))

    def _round(self, ids: list[int], rows: Array, averaged: Array, unicast: list[int]) -> float:
        """``_parallel_round`` in pool row numbers: row i is client ``ids[i]``'s
        batch; the cut gradients go out as ``_recipients`` of the turn says."""
        x, y = self._x.take(rows, 0), self._y.take(rows)
        cache = nn.forward(self._layers, x, validate=False)
        if self._chained:
            losses, upstream = nn.loss_softmax_ce(cache.output, y, validate=False)
            loss = splitting.combine_losses(self._server_weights, losses)
        else:
            loss, upstream, _ = splitting.server_gradients(
                self.server_layers, cache.output, y, self._server_weights, self._server_grads,
                validate=False)
            if len(averaged):
                upstream[averaged] = active_sum(upstream, averaged) / len(averaged)
        if self.server is not None:  # smashed rows up; broadcast, then unicast cut gradients down
            cut = cache.inputs[len(self.stack.layers)] if self._chained else cache.output
            nbytes = cut[0].nbytes
            self._log("up", "smashed", ids, nbytes)
            if len(averaged):
                self._log("down", "cut-grad", [None], nbytes)
            self._log("down", "cut-grad", unicast, nbytes)
        nn.backward(cache, upstream, self._grads, input_grad=False)
        self.buffer.step([self.eta_c, self.eta_s])
        self.steps += 1
        return loss

    def _local_weight_average(self) -> None:
        """LocAvg: delta-weighted, layer-wise average of client segments."""
        nbytes, everyone = self.stack.flat[0].nbytes, range(self.config.clients)
        self._log("up", "model-weights", everyone, nbytes)
        self.stack.average(self._delta_array)
        self._log("down", "model-weights", everyone, nbytes)


def train_monolithic(
    layers: list,
    features: Array,
    labels,
    batch_size: int,
    epochs: int,
    lr: float,
    optimizer: str = "adam",
    seed: int = 0,
) -> list[float]:
    """Plain minibatch training of an unsplit stack; per-epoch mean losses.

    Uses the same keyed batch streams as a single-client protocol run, so a
    one-client split run can be compared against it bitwise.
    """
    features = nn.as_tensor(features)
    labels = nn.as_labels(labels)
    state = nn.init_optimizer(optimizer, nn.collect_params(layers))
    epoch_losses = []
    for epoch in range(epochs):
        rng = keyed_rng(seed, STREAM_BATCH, epoch, 0)
        losses = []
        for ix in _epoch_batches(features.shape[0], batch_size, rng):
            cache = nn.forward(layers, features[ix])
            loss, up = nn.loss_softmax_ce(cache.output, labels[ix])
            grads, _ = nn.backward(cache, up)
            nn.optimizer_step(nn.collect_params(layers), nn.collect_grads(grads), state, lr)
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
    return epoch_losses
