"""Round-based engines for the split/federated training protocols.

Supported protocol kinds:

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

All seven kinds execute the same client-stacked round, ``_parallel_round``
(see ``SplitTrainer``), with the two mechanisms (learning-rate scaling,
gradient averaging) enabled or disabled, so the degenerate cases collapse
bitwise: sglr with active_fraction 0 and lr_exponent 0 runs exactly psl's
arithmetic.

All randomness flows through ``keyed_rng``: every consumer (weight init,
per-client batch shuffles, active-set sampling) owns an independent stream
derived from (seed, stream id, key...), so protocols that skip a mechanism
still draw identical batches.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn, splitting
from .comm import CommLedger
from .errors import DimensionError, InputError

Array = np.ndarray

PROTOCOL_KINDS = ("ssl", "psl", "fl", "sfl", "slr", "sgl", "sglr")

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
    phase: str = "always"
    seed: int = 0
    splitavg_mean: bool = True
    lr_scale_basis: str = "clients"

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise InputError(f"unknown protocol kind {self.kind!r}")
        if self.clients < 1:
            raise InputError("need at least one client")
        if not 0.0 <= self.active_fraction <= 1.0:
            raise InputError("active_fraction must lie in [0, 1]")
        if self.lr_exponent < 0:
            raise InputError("lr_exponent must be nonnegative")
        if self.base_lr <= 0:
            raise InputError("base_lr must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise InputError("batch_size and epochs must be at least 1")
        if self.optimizer not in ("sgd", "adam"):
            raise InputError(f"unknown optimizer {self.optimizer!r}")
        if self.lr_scale_basis not in ("clients", "batch"):
            raise InputError("lr_scale_basis must be 'clients' or 'batch'")
        parse_phase(self.phase)  # validates

    def effective_mechanisms(self) -> tuple[float, float]:
        """(phi, alpha) actually applied, given the protocol kind."""
        if self.kind in ("psl", "sfl"):
            return 0.0, 0.0
        if self.kind == "slr":
            return 0.0, self.lr_exponent
        if self.kind == "sgl":
            return self.active_fraction, 0.0
        if self.kind == "sglr":
            return self.active_fraction, self.lr_exponent
        return 0.0, 0.0  # ssl, fl


@dataclass
class ClientState:
    """One client's local data and data share, plus views of its slot in
    the trainer's client stack: ``layers`` and ``opt``."""

    client_id: int
    layers: list
    features: Array
    labels: np.ndarray
    delta: float
    stack: nn.LayerStack
    slot: int

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

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

    def __post_init__(self):
        if not 0.0 <= self.val_accuracy <= 1.0:
            raise InputError("accuracy must lie in [0, 1]")


# ---------------------------------------------------------------------------
# The four standalone mechanisms
# ---------------------------------------------------------------------------

def split_lr(
    base_lr: float,
    clients: int,
    exponent: float,
    batch_size: int | None = None,
    basis: str = "clients",
) -> tuple[float, float]:
    """Client and server learning rates under power-law scaling.

    Default form: eta_c = eta_0, eta_s = eta_0 * C**alpha. With
    ``basis="batch"`` the scaling uses the server's effective batch size
    instead: eta_s = eta_0 * (b * C)**alpha.
    """
    if clients < 1:
        raise InputError("clients must be >= 1")
    if exponent < 0:
        raise InputError("exponent must be nonnegative")
    eta_c = base_lr
    if basis == "clients":
        eta_s = base_lr * clients**exponent
    elif basis == "batch":
        if batch_size is None:
            raise InputError("batch basis requires batch_size")
        eta_s = base_lr * (batch_size * clients) ** exponent
    else:
        raise InputError("basis must be 'clients' or 'batch'")
    return eta_c, eta_s


def sample_active_clients(
    clients: int, fraction: float, rng: np.random.Generator
) -> list[int]:
    """Uniformly sample floor(fraction * clients) ids without replacement.

    Truncation (1.5 -> 1) rather than round-half-up; a small epsilon guards
    float fuzz so fractions meant to be integral stay integral. Returns a
    sorted id list.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InputError("fraction must lie in [0, 1]")
    count = int(math.floor(fraction * clients + 1e-9))
    if count == 0:
        return []
    return sorted(int(i) for i in rng.choice(clients, size=count, replace=False))


def split_avg(
    cut_grads: dict[int, Array],
    active: Sequence[int],
    mean: bool = True,
) -> tuple[Array | None, dict[int, Array]]:
    """Combine active clients' cut gradients; assign per-client gradients.

    Active clients all receive the combined gradient (arithmetic mean by
    default, the literal sum with ``mean=False``); inactive clients keep
    their own. Accumulation runs in ascending client id so the result is
    bitwise reproducible.
    """
    active = sorted(active)
    for cid in active:
        if cid not in cut_grads:
            raise InputError(f"active client {cid} has no cut gradient")
    common = None
    if active:
        shape = cut_grads[active[0]].shape
        total = np.zeros(shape)
        for cid in active:
            if cut_grads[cid].shape != shape:
                raise DimensionError("active cut gradients differ in shape")
            total += cut_grads[cid]
        common = total / len(active) if mean else total
    assignment = {
        cid: (common if cid in active else g) for cid, g in cut_grads.items()
    }
    return common, assignment


_PHASE_RE = re.compile(r"^(initial|final)\((0\.\d+|\.\d+|0?\.?\d*e-?\d+)\)$")


def parse_phase(spec: str) -> tuple[str, float]:
    """Parse a phase spec: 'always', 'never', 'initial(p)' or 'final(p)'."""
    if spec in ("always", "never"):
        return spec, 0.0
    m = _PHASE_RE.match(spec)
    if not m:
        raise InputError(f"bad phase spec {spec!r}")
    p = float(m.group(2))
    if not 0.0 < p < 1.0:
        raise InputError("phase fraction must lie in (0, 1)")
    return m.group(1), p


def phased_schedule(epoch: int, total_epochs: int, spec: str) -> bool:
    """Whether gradient averaging is enabled at ``epoch`` under ``spec``.

    'initial(p)': on for the first ceil(p*E) epochs.
    'final(p)': on from epoch floor((1-p)*E) onward.
    """
    kind, p = parse_phase(spec)
    if kind == "always":
        return True
    if kind == "never":
        return False
    if kind == "initial":
        return epoch < math.ceil(p * total_epochs)
    return epoch >= math.floor((1.0 - p) * total_epochs)


def evaluate(model, features: Array, labels) -> float:
    """Top-1 accuracy; ``model`` is a layer list or (client, server) pair."""
    if isinstance(model, tuple):
        client_seg, server_seg = model
        layers = list(client_seg) + list(server_seg)
    else:
        layers = list(model)
    features = nn.as_tensor(features)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise InputError("cannot evaluate on an empty dataset")
    logits = nn.forward(layers, features).output
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == labels))


# ---------------------------------------------------------------------------
# Trainer
# ---------------------------------------------------------------------------

def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[Array]:
    """Seeded shuffle, then full batches only (partial tail is skipped)."""
    perm = rng.permutation(n)
    rounds = n // batch_size
    return [perm[r * batch_size : (r + 1) * batch_size] for r in range(rounds)]


class SplitTrainer:
    """Drives one protocol over a set of clients and a shared server.

    ``client_data`` is one (features, labels) pair per client; delta weights
    come from the realized sample counts. The client segments are the rows
    of one ``nn.LayerStack`` and every kind runs ``_parallel_round`` over
    it: the psl family with every client per round, sfl adding LocAvg (the
    delta-weighted mean over the rows), fl likewise over full models with
    no server, and ssl over a single row that travels from client to
    client. All cross-client reductions run in ascending client id.
    """

    def __init__(
        self,
        model: splitting.SplitModel,
        client_data: Sequence[tuple[Array, np.ndarray]],
        config: ProtocolConfig,
        val_data: tuple[Array, np.ndarray] | None = None,
        ledger: CommLedger | None = None,
    ):
        if len(client_data) != config.clients:
            raise InputError(
                f"config says {config.clients} clients, got {len(client_data)}"
            )
        self.config = config
        self.model = model
        self.val_data = val_data
        self.ledger = ledger
        self.steps = 0

        total = sum(x.shape[0] for x, _ in client_data)
        if total == 0:
            raise InputError("no training data")

        full_model = config.kind == "fl"
        travelling = config.kind == "ssl"
        self.stack = nn.LayerStack(
            model.layers if full_model else model.client_segment,
            1 if travelling else config.clients,
            config.optimizer,
        )
        views = [self.stack.slot_layers(s) for s in range(len(self.stack.flat))]
        self.clients: list[ClientState] = []
        for cid, (x, y) in enumerate(client_data):
            slot = 0 if travelling else cid
            self.clients.append(
                ClientState(
                    client_id=cid,
                    layers=views[slot],
                    features=nn.as_tensor(x),
                    labels=np.asarray(y, dtype=np.int64),
                    delta=x.shape[0] / total,
                    stack=self.stack,
                    slot=slot,
                )
            )
        self.deltas = {c.client_id: c.delta for c in self.clients}
        self._delta_array = np.array([c.delta for c in self.clients])

        self.server, self.server_layers = None, None
        if not full_model:
            self.server = nn.LayerStack(model.server_segment, 1, config.optimizer)
            self.server_layers = self.server.slot_layers(0)

        self.eta_c, self.eta_s = split_lr(
            config.base_lr,
            config.clients,
            config.effective_mechanisms()[1],
            batch_size=config.batch_size,
            basis=config.lr_scale_basis,
        )

    # -- public API ---------------------------------------------------------

    def run(self, epochs: int | None = None) -> list[RoundMetrics]:
        return [self.run_epoch(e) for e in range(epochs or self.config.epochs)]

    def run_epoch(self, epoch: int) -> RoundMetrics:
        if self.config.kind == "ssl":
            loss, active = self._ssl_epoch(epoch), []
        else:
            loss, active = self._parallel_epoch(epoch)
        return RoundMetrics(
            epoch=epoch,
            train_loss=loss,
            val_accuracy=self._validation_accuracy(),
            server_lr=self.eta_s,
            active_ids=active,
            steps=self.steps,
        )

    def evaluate_on(self, features: Array, labels) -> float:
        """Accuracy through client 0's segment (or full model for fl)."""
        return evaluate((self.clients[0].layers, self.server_layers or []), features, labels)

    @property
    def server_opt(self) -> nn.OptimizerState | None:
        """View of the server segment's optimizer state (None for fl)."""
        return None if self.server is None else self.server.slot_optimizer(0)

    # -- shared plumbing ------------------------------------------------------

    def _validation_accuracy(self) -> float:
        if self.val_data is None:
            return 0.0
        return self.evaluate_on(*self.val_data)

    def _batches_for(self, client: ClientState, epoch: int) -> list[Array]:
        rng = keyed_rng(self.config.seed, STREAM_BATCH, epoch, client.client_id)
        return _epoch_batches(client.sample_count, self.config.batch_size, rng)

    def _log(self, direction, kind, client_id, nbytes, round_index):
        if self.ledger is not None:
            self.ledger.record(direction, kind, client_id, nbytes, round_index)

    # -- the round engine -------------------------------------------------------

    def _parallel_epoch(self, epoch: int) -> tuple[float, list[int]]:
        cfg = self.config
        phi, _ = cfg.effective_mechanisms()
        averaging_on = phi > 0 and phased_schedule(epoch, cfg.epochs, cfg.phase)
        active = (
            sample_active_clients(
                cfg.clients, phi, keyed_rng(cfg.seed, STREAM_ACTIVE, epoch)
            )
            if averaging_on
            else []
        )

        per_client = [self._batches_for(c, epoch) for c in self.clients]
        rounds = min(len(b) for b in per_client)
        losses = []
        for r in range(rounds):
            batch_ix = {c.client_id: per_client[c.client_id][r] for c in self.clients}
            losses.append(self._parallel_round(batch_ix, active))
            if cfg.kind in ("sfl", "fl"):
                self._local_weight_average()
        return float(np.mean(losses)) if losses else 0.0, active

    def _parallel_round(self, batch_ix: dict[int, Array], active: list[int]) -> float:
        """One round over the client stack, a row per ``batch_ix`` entry
        (client id -> batch rows, ascending ids): every client, so row i is
        client i, or for ssl the one client holding the travelling segment."""
        x = np.array([self.clients[cid].features[ix] for cid, ix in batch_ix.items()])
        y = np.array([self.clients[cid].labels[ix] for cid, ix in batch_ix.items()])
        cache = nn.forward(self.stack.layers, x)
        if self.server is None:
            losses, upstream = nn.loss_softmax_ce(cache.output, y)
            loss = splitting.combine_losses(self._delta_array, losses)
        else:
            row_bytes = cache.output[0].size * 8
            for cid in batch_ix:
                self._log("up", "smashed", cid, row_bytes, self.steps)
            weights = np.ones(1) if self.config.kind == "ssl" else self._delta_array
            loss, upstream, server_grads = splitting.server_gradients(
                self.server_layers, cache.output, y, weights
            )
            self.server.step(server_grads, self.eta_s)
            if active:
                common, _ = split_avg(
                    {cid: upstream[cid] for cid in active}, active, self.config.splitavg_mean
                )
                upstream[active] = common
                self._log("down", "cut-grad", None, common.size * 8, self.steps)
            for cid in batch_ix:
                if cid not in active:
                    self._log("down", "cut-grad", cid, row_bytes, self.steps)
        grads, _ = nn.backward(cache, upstream)
        self.stack.step(grads, self.eta_c)
        self.steps += 1
        return loss

    def _local_weight_average(self) -> None:
        """LocAvg: delta-weighted, layer-wise average of client segments."""
        nbytes = self.stack.flat.shape[1] * 8
        for client in self.clients:
            self._log("up", "model-weights", client.client_id, nbytes, self.steps)
        self.stack.average(self._delta_array)
        for client in self.clients:
            self._log("down", "model-weights", client.client_id, nbytes, self.steps)

    def _ssl_epoch(self, epoch: int) -> float:
        """Visit clients in id order; the segment travels client to client."""
        losses = []
        nbytes = self.stack.flat.shape[1] * 8
        for client in self.clients:
            for ix in self._batches_for(client, epoch):
                losses.append(self._parallel_round({client.client_id: ix}, []))
            # Hand the segment to the next client (cyclic at epoch end).
            nxt = (client.client_id + 1) % self.config.clients
            self._log("up", "model-weights", client.client_id, nbytes, self.steps)
            self._log("down", "model-weights", nxt, nbytes, self.steps)
        return float(np.mean(losses)) if losses else 0.0


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
    labels = np.asarray(labels, dtype=np.int64)
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
