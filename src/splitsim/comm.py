"""Analytic communication-overhead and training-time model, plus a byte
ledger that records what a simulated run actually transmitted.

Closed-form costs per epoch (sizes in MB, one epoch = one pass over the
|D| training samples):

    method   per client                          total
    fl       2*S_w                               2*C*S_w
    ssl      2*D*S_L/C + 2*S_wc                  2*D*S_L + 2*C*S_wc
    sfl      2*D*S_L/C + 2*S_wc                  2*D*S_L + 2*C*S_wc
    sglr     ((2-phi)*D*S_L + S_L)/C             (2-phi)*D*S_L + S_L
    psl      2*D*S_L/C                           2*D*S_L

S_L is the cut-layer output size per sample, S_w the full model, S_wc the
client segment. The sglr download side counts each inactive client's
unicast gradient (the (1-phi) share) plus the averaged gradient broadcast
once. psl is not in the published table; it is sglr at phi=0 minus the
broadcast term.

Training time adds compute T and link rate R; the ssl row multiplies the
model-exchange term by C while sfl's does not — both transcribed literally.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .errors import InputError

METHODS = ("fl", "ssl", "sfl", "sglr", "psl")

BYTES_PER_SCALAR = 8
MB = 1024 * 1024


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
        numeric = (
            self.cut_size_mb,
            self.model_size_mb,
            self.client_size_mb,
            self.dataset_size,
            self.link_rate,
            self.compute_time,
        )
        if any(v < 0 for v in numeric):
            raise InputError("cost parameters must be nonnegative")
        if self.clients < 1:
            raise InputError("clients must be >= 1")
        if not 0.0 <= self.active_fraction <= 1.0:
            raise InputError("active_fraction must lie in [0, 1]")


def comm_per_client(method: str, p: CostParams) -> float:
    """MB communicated per client per epoch."""
    d, c, sl = p.dataset_size, p.clients, p.cut_size_mb
    if method == "fl":
        return 2.0 * p.model_size_mb
    if method in ("ssl", "sfl"):
        return 2.0 * d * sl / c + 2.0 * p.client_size_mb
    if method == "sglr":
        return ((2.0 - p.active_fraction) * d * sl + sl) / c
    if method == "psl":
        return 2.0 * d * sl / c
    raise InputError(f"unknown method {method!r}")


def total_comm(method: str, p: CostParams) -> float:
    """MB communicated per epoch across all clients."""
    d, c, sl = p.dataset_size, p.clients, p.cut_size_mb
    if method == "fl":
        return 2.0 * c * p.model_size_mb
    if method in ("ssl", "sfl"):
        return 2.0 * d * sl + 2.0 * c * p.client_size_mb
    if method == "sglr":
        return (2.0 - p.active_fraction) * d * sl + sl
    if method == "psl":
        return 2.0 * d * sl
    raise InputError(f"unknown method {method!r}")


def reduction_percent(method_a: str, method_b: str, p: CostParams) -> float:
    """Percentage reduction of a's total communication relative to b's."""
    base = total_comm(method_b, p)
    if base <= 0:
        raise InputError("reference method communicates nothing")
    return 100.0 * (1.0 - total_comm(method_a, p) / base)


def training_time(method: str, p: CostParams) -> float:
    """Seconds per epoch: compute plus all transfers at the link rate."""
    if p.link_rate <= 0:
        raise InputError("link rate must be positive")
    d, c, sl, r, t = (
        p.dataset_size,
        p.clients,
        p.cut_size_mb,
        p.link_rate,
        p.compute_time,
    )
    if method == "fl":
        return t + 2.0 * p.model_size_mb / r
    if method == "ssl":
        return t + 2.0 * d * sl / r + 2.0 * c * p.client_size_mb / r
    if method == "sfl":
        return t + 2.0 * d * sl / (c * r) + 2.0 * p.client_size_mb / r
    if method == "sglr":
        return t + ((2.0 - p.active_fraction) * d * sl + sl) / (c * r)
    if method == "psl":
        return t + 2.0 * d * sl / (c * r)
    raise InputError(f"unknown method {method!r}")


def cost_table_csv(methods, params_list, names=None) -> str:
    """CSV of (name, method, params, per-client MB, total MB, time s) rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "name",
            "method",
            "clients",
            "active_fraction",
            "dataset_size",
            "cut_size_mb",
            "model_size_mb",
            "client_size_mb",
            "per_client_mb",
            "total_mb",
            "time_s",
        ]
    )
    for i, p in enumerate(params_list):
        name = names[i] if names else f"setting_{i}"
        for method in methods:
            writer.writerow(
                [
                    name,
                    method,
                    p.clients,
                    p.active_fraction,
                    p.dataset_size,
                    p.cut_size_mb,
                    p.model_size_mb,
                    p.client_size_mb,
                    f"{comm_per_client(method, p):.6f}",
                    f"{total_comm(method, p):.6f}",
                    f"{training_time(method, p):.6f}",
                ]
            )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Measured ledger
# ---------------------------------------------------------------------------

PAYLOAD_KINDS = ("smashed", "cut-grad", "model-weights")


@dataclass
class LedgerEntry:
    direction: str  # "up" | "down"
    kind: str
    client_id: int | None  # None marks a broadcast
    nbytes: int
    round_index: int


@dataclass
class CommLedger:
    """Byte counts a protocol run actually produced, 8 bytes per scalar."""

    entries: list[LedgerEntry] = field(default_factory=list)
    _total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._total = sum(e.nbytes for e in self.entries)

    def record(self, direction, kind, client_id, nbytes, round_index):
        if kind not in PAYLOAD_KINDS:
            raise InputError(f"unknown payload kind {kind!r}")
        if nbytes < 0:
            raise InputError("byte counts must be nonnegative")
        entry = LedgerEntry(direction, kind, client_id, int(nbytes), round_index)
        self.entries.append(entry)
        self._total += entry.nbytes

    def total_bytes(self) -> int:
        return self._total

    def bytes_by_kind(self) -> dict[str, int]:
        out = {k: 0 for k in PAYLOAD_KINDS}
        for e in self.entries:
            out[e.kind] += e.nbytes
        return out

    def bytes_by_client(self) -> dict[int | None, int]:
        out: dict[int | None, int] = {}
        for e in self.entries:
            out[e.client_id] = out.get(e.client_id, 0) + e.nbytes
        return out

    def broadcast_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries if e.client_id is None)


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
    method: str
    items: list[ReconcileItem]
    measured_total: int
    formula_total: float
    tolerance: float

    @property
    def mismatches(self) -> list[ReconcileItem]:
        return [i for i in self.items if i.relative_error > self.tolerance]

    @property
    def ok(self) -> bool:
        if self.mismatches:
            return False
        if self.formula_total == 0:
            return self.measured_total == 0
        rel = abs(self.measured_total - self.formula_total) / self.formula_total
        return rel <= self.tolerance


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
    tolerance: float = 0.01,
) -> ReconcileReport:
    """Check measured bytes against the analytic model for a finished run.

    Expected per-kind counts come from the formulas evaluated on the run's
    own geometry (samples processed = clients*rounds*batch, S_L = cut width *
    8 bytes). The closed-form epoch total counts the averaged-gradient
    broadcast once per epoch; the per-kind expectation here counts it once
    per round, the run's physical payload, so the itemized comparison is
    exact while the formula total stays the published one.
    """
    if method not in ("psl", "sglr", "fl", "sfl", "ssl"):
        raise InputError(f"unknown method {method!r}")
    sl_bytes = cut_width * BYTES_PER_SCALAR
    per_client_samples = rounds * batch_size
    d_total = clients * per_client_samples

    items: list[ReconcileItem] = []
    by_kind = ledger.bytes_by_kind()

    if method in ("psl", "sglr", "sfl", "ssl"):
        items.append(
            ReconcileItem("smashed", by_kind["smashed"], d_total * sl_bytes)
        )
        if method == "sglr":
            unicast = (clients - active_count) * per_client_samples * sl_bytes
            broadcast = (rounds * batch_size * sl_bytes) if active_count else 0
            expected_grad = unicast + broadcast
        else:
            expected_grad = d_total * sl_bytes
        items.append(ReconcileItem("cut-grad", by_kind["cut-grad"], expected_grad))

    expected_weights = 0.0
    if param_counts and "segment" in param_counts:
        seg = param_counts["segment"] * BYTES_PER_SCALAR
        if method == "sfl":
            expected_weights = 2.0 * clients * rounds * seg
        elif method == "ssl":
            expected_weights = 2.0 * clients * seg  # one hand-off per client
        elif method == "fl":
            expected_weights = 2.0 * clients * rounds * seg
    if method in ("sfl", "ssl", "fl") or by_kind["model-weights"]:
        items.append(
            ReconcileItem("model-weights", by_kind["model-weights"], expected_weights)
        )

    # Closed-form total for reference, using the run's own S_L and |D|.
    phi = active_count / clients if clients else 0.0
    p = CostParams(
        cut_size_mb=sl_bytes / MB,
        model_size_mb=(param_counts or {}).get("model", 0) * BYTES_PER_SCALAR / MB,
        client_size_mb=(param_counts or {}).get("segment", 0) * BYTES_PER_SCALAR / MB,
        dataset_size=d_total,
        clients=clients,
        active_fraction=phi,
    )
    formula_total = total_comm(method, p) * MB

    return ReconcileReport(
        method=method,
        items=items,
        measured_total=ledger.total_bytes(),
        formula_total=formula_total,
        tolerance=tolerance,
    )
