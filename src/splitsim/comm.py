"""Analytic communication-overhead and training-time model, plus a byte
ledger that records what a simulated run actually transmitted.

Closed-form costs per epoch (sizes in MB, one epoch = one pass over the
|D| training samples), one total per method:

    method   total                    switches of its KINDS row
    fl       2*C*S_w                  no server
    ssl      2*D*S_L + 2*C*S_wc       travelling
    sfl      2*D*S_L + 2*C*S_wc       loc_avg
    sglr     (2-phi)*D*S_L + S_L      grad_avg
    psl      2*D*S_L                  none of these

S_L is the cut-layer output size per sample, S_w the full model, S_wc the
client segment. The sglr download side counts each inactive client's
unicast gradient (the (1-phi) share) plus the averaged gradient broadcast
once. psl is not in the published table; it is sglr at phi=0 minus the
broadcast term.
The cost model reads each method's row of ``protocols.KINDS``, the
switches the trainer obeys, and never its name.

Per-client cost is total / C. Training time is the compute time T plus
the MB moved at link rate R: the whole total for a travelling segment
(ssl), whose clients take turns, and one client's share for every other
method, whose clients send in parallel. These are the published
per-client and time rows; ``cost_rows`` lays them out and writes no CSV.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import InputError
from .protocols import KINDS, Kind

METHODS = ("fl", "ssl", "sfl", "sglr", "psl")

BYTES_PER_SCALAR = 8
MB = 1024 * 1024
RECONCILE_TOLERANCE = 0.01  # relative error up to which measured bytes match a formula


@dataclass
class CostParams:
    """Inputs to the closed-form calculators.

    cut_size_mb: S_L, cut-layer output per sample (MB)
    model_size_mb: S_w, full model (MB)
    client_size_mb: S_wc, client segment (MB)
    dataset_size: number of training samples |D|
    clients: |C|
    active_fraction: phi
    link_rate: R (MB/s)
    compute_time: T, one forward+backward pass (s)
    """

    cut_size_mb: float
    model_size_mb: float
    client_size_mb: float
    dataset_size: int
    clients: int
    active_fraction: float = 0.0
    link_rate: float = 1.0
    compute_time: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:
                raise InputError(f"{name} must be finite and nonnegative")
        if self.link_rate <= 0:
            raise InputError("link_rate must be positive")
        if self.clients < 1:
            raise InputError("clients must be >= 1")
        if self.active_fraction > 1.0:
            raise InputError("active_fraction must lie in [0, 1]")


def _switches(method: str) -> Kind:
    """``protocols.KINDS[method]``; the kinds that share a method's cost
    share the switches the cost model reads."""
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    return KINDS[method]


def total_comm(method: str, p: CostParams) -> float:
    """MB communicated per epoch across all clients."""
    d, c, sl, k = p.dataset_size, p.clients, p.cut_size_mb, _switches(method)
    if not k.server:
        return 2.0 * c * p.model_size_mb
    if k.grad_avg:
        return (2.0 - p.active_fraction) * d * sl + sl
    if k.travelling or k.loc_avg:
        return 2.0 * d * sl + 2.0 * c * p.client_size_mb
    return 2.0 * d * sl


def comm_per_client(method: str, p: CostParams) -> float:
    """MB communicated per client per epoch: the total over C."""
    return total_comm(method, p) / p.clients


def reduction_percent(method_a: str, method_b: str, p: CostParams) -> float:
    """Percentage reduction of a's total communication relative to b's."""
    base = total_comm(method_b, p)
    if base <= 0:
        raise InputError("reference method communicates nothing")
    return 100.0 * (1.0 - total_comm(method_a, p) / base)


def training_time(method: str, p: CostParams) -> float:
    """Seconds per epoch: compute plus the transfers at the link rate, all
    of the total for a travelling segment (its clients take turns), one
    client's share else."""
    mb = total_comm(method, p) if _switches(method).travelling else comm_per_client(method, p)
    return p.compute_time + mb / p.link_rate


COST_COLUMNS = ("name", "method", "clients", "active_fraction", "dataset_size", "cut_size_mb",
                "model_size_mb", "client_size_mb", "per_client_mb", "total_mb", "time_s")


def cost_rows(methods, settings) -> list[dict]:
    """One row of ``COST_COLUMNS`` per ``(name, CostParams)`` setting and
    method: the setting's geometry, then its costs to six decimals."""
    rows = []
    for name, p in settings:
        values = [getattr(p, col) for col in COST_COLUMNS[2:8]]
        for method in methods:
            costs = [f"{f(method, p):.6f}" for f in (comm_per_client, total_comm, training_time)]
            rows.append(dict(zip(COST_COLUMNS, [name, method, *values, *costs])))
    return rows


# ---------------------------------------------------------------------------
# Measured ledger
# ---------------------------------------------------------------------------

PAYLOAD_KINDS = ("smashed", "cut-grad", "model-weights")


@dataclass
class CommLedger:
    """Bytes a protocol run actually produced, 8 bytes per scalar, summed
    per ``(direction, kind, client_id)`` key; a client id of None marks a
    broadcast."""

    entries: Counter = field(default_factory=Counter)

    def record(self, direction, kind, client_id, nbytes):
        self.record_each(direction, kind, (client_id,), nbytes)

    def record_each(self, direction, kind, client_ids, nbytes):
        """One payload of ``nbytes`` for each of ``client_ids``."""
        if kind not in PAYLOAD_KINDS:
            raise InputError(f"unknown payload kind {kind!r}")
        if not nbytes >= 0:  # also NaN
            raise InputError("byte counts must be nonnegative")
        nbytes = int(nbytes)
        for cid in client_ids:
            self.entries[direction, kind, cid] += nbytes

    def total_bytes(self) -> int:
        return sum(self.entries.values())

    def bytes_by_kind(self) -> dict[str, int]:
        out = dict.fromkeys(PAYLOAD_KINDS, 0)
        for (_, kind, _), nbytes in self.entries.items():
            out[kind] += nbytes
        return out

    def broadcast_bytes(self) -> int:
        return sum(n for (_, _, cid), n in self.entries.items() if cid is None)


@dataclass
class ReconcileItem:
    kind: str
    measured_bytes: int
    expected_bytes: float

    @property
    def relative_error(self) -> float:
        if self.expected_bytes == 0:
            return 0.0 if self.measured_bytes == 0 else float("inf")
        return abs(self.measured_bytes - self.expected_bytes) / self.expected_bytes


@dataclass
class ReconcileReport:
    items: list[ReconcileItem]
    measured_total: int
    formula_total: float

    @property
    def mismatches(self) -> list[ReconcileItem]:
        return [i for i in self.items if i.relative_error > RECONCILE_TOLERANCE]

    @property
    def ok(self) -> bool:
        total = ReconcileItem("total", self.measured_total, self.formula_total)
        return not self.mismatches and total.relative_error <= RECONCILE_TOLERANCE


def reconcile(
    ledger: CommLedger,
    method: str,
    *,
    clients: int,
    rounds: int,
    batch_size: int,
    cut_width: int,
    active_count: int = 0,
    param_counts: dict[str, int] | None = None,
    epochs: int = 1,
) -> ReconcileReport:
    """Check measured bytes against the analytic model for a finished run.

    Expected per-kind counts come from the formulas evaluated on the run's
    own geometry (samples processed = clients*rounds*batch, S_L = cut width *
    8 bytes). The closed-form epoch total counts the averaged-gradient
    broadcast once per epoch; the per-kind expectation here counts it once
    per round, the run's physical payload, so the itemized comparison is
    exact while the formula total stays the published one, once per epoch.
    ssl hands its segment on once per client in each of the run's ``epochs``.
    """
    k = _switches(method)
    by_kind = ledger.bytes_by_kind()
    # Each client's cut rows go up every round; going down, the ``a``
    # averaging clients share one broadcast in place of a unicast each.
    a, sl_bytes = active_count if k.grad_avg else 0, cut_width * BYTES_PER_SCALAR
    items = [ReconcileItem(kind, by_kind[kind], per_round * rounds * batch_size * sl_bytes)
             for kind, per_round in (("smashed", clients), ("cut-grad", clients - a + (a > 0)))
             if k.server]

    # Each client's segment goes up and down after every round under LocAvg,
    # and once per epoch as a travelling segment's hand-off.
    exchanges = rounds if k.loc_avg else epochs if k.travelling else 0
    seg = (param_counts or {}).get("segment", 0) * BYTES_PER_SCALAR
    expected_weights = 2.0 * clients * exchanges * seg
    if k.loc_avg or k.travelling or by_kind["model-weights"]:
        items.append(ReconcileItem("model-weights", by_kind["model-weights"], expected_weights))

    formula = formula_total(method, clients=clients, rounds=rounds, batch_size=batch_size,
                            cut_width=cut_width, active_count=active_count,
                            param_counts=param_counts, epochs=epochs)
    return ReconcileReport(items=items, measured_total=ledger.total_bytes(), formula_total=formula)


def formula_total(method: str, *, clients: int, rounds: int, batch_size: int, cut_width: int,
                  active_count: int = 0, param_counts: dict[str, int] | None = None,
                  epochs: int = 1) -> float:
    """Closed-form bytes of a run of ``rounds`` rounds over ``epochs`` epochs:
    ``epochs`` times ``total_comm`` of one epoch of ``rounds / epochs``
    rounds, on the run's own S_L (cut width * 8 bytes), |D|, phi and sizes.
    A gradient-averaging method in which no client averages sends no
    broadcast, so it costs psl's total."""
    if _switches(method).grad_avg and not active_count:
        method = "psl"
    counts = param_counts or {}
    p = CostParams(
        cut_size_mb=cut_width * BYTES_PER_SCALAR / MB,
        model_size_mb=counts.get("model", 0) * BYTES_PER_SCALAR / MB,
        client_size_mb=counts.get("segment", 0) * BYTES_PER_SCALAR / MB,
        dataset_size=clients * rounds * batch_size / epochs,
        clients=clients,
        active_fraction=active_count / clients if clients else 0.0,
    )
    return epochs * total_comm(method, p) * MB
