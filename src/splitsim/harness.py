"""Config-driven experiment execution, sweeps, and metrics emission.

An experiment config is one JSON object (see ``ExperimentConfig.from_dict``)
naming the protocol, the dataset (IDX files or the synthetic generator),
the dense model and its cut index, and the run id. Each field must hold
its declared type (``FIELD_TYPES``). Runs emit one JSON line per epoch plus
a one-row CSV summary with fixed columns, both led by ``run_header``; the
emitted bytes are a pure function of config and seed. Every CSV, the cost
report's too, goes through ``_write_csv``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import comm, data, nn, protocols, splitting
from .errors import ConfigError, InputError
from .leakage import draw_pairs, smashed_leakage_score
from .protocols import (
    STREAM_INIT,
    STREAM_PARTITION,
    STREAM_SYNTH,
    STREAM_VALSPLIT,
    ProtocolConfig,
    SplitTrainer,
    keyed_rng,
)


@dataclass
class DatasetSpec:
    kind: str = "synthetic"  # "synthetic" | "idx"
    classes: int = 4
    per_class: int = 500
    dim: int = 16
    separation: float = 3.0
    images: str | None = None
    labels: str | None = None
    per_client: int = 100
    validation: int = 200


@dataclass
class ModelSpec:
    hidden: list[int] = field(default_factory=lambda: [32, 16])
    cut_index: int = 2


# Most (feature, unit) pairs a run draws: ``draw_pairs`` makes two generator
# calls a pair, a few seconds' worth for this many.
MAX_LEAKAGE_PAIRS = 2**20


@dataclass
class LeakageSpec:
    enabled: bool = False
    bins: int = 16
    pairs: int = 64
    probe: int = 256


# Field annotation -> (the types a config value may have, what the error
# says it must be). A bool passes only as "bool": true is not a number.
FIELD_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "list[int]": (list, "a list of integers"),
}


def build_section(cls, payload, field: str):
    """``cls(**payload)``, with a payload that is no object or that ``cls``
    rejects raised as a ConfigError naming ``field``. An unknown key, a
    missing required field, a field not of its annotation's type per
    ``FIELD_TYPES`` (each entry of a ``list[int]`` a Python int) or a
    ``float`` field too large for a float is named as ``field.name``."""
    if not isinstance(payload, dict):
        raise ConfigError("must be an object", field=field)
    check_keys(payload, [f.name for f in fields(cls)], field, f"{field}.")
    for f in fields(cls):
        if f.name not in payload:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError("required", field=f"{field}.{f.name}")
            continue
        value, (types, what) = payload[f.name], FIELD_TYPES[f.type]
        if (not isinstance(value, types) or isinstance(value, bool) != (types is bool)
                or types is list and any(type(v) is not int for v in value)):
            raise ConfigError(f"must be {what}, got {value!r}", field=f"{field}.{f.name}")
        if f.type == "float":
            try:
                float(value)  # only a check: keeping the value writes an integer 1 as 1, not 1.0
            except OverflowError:
                raise ConfigError("is too large for a float", field=f"{field}.{f.name}") from None
    try:
        return cls(**payload)
    except InputError as exc:
        raise ConfigError(str(exc), field=field) from exc


def check_keys(raw: dict, keys, what: str, prefix: str = "") -> None:
    """Raise a ConfigError naming the first key of ``raw`` not in ``keys``,
    after ``prefix``."""
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key; {what} holds only {', '.join(keys)}",
                          field=prefix + unknown[0])


# Protocol kinds -> analytic cost-model rows.
COST_METHOD = {name: kind.cost for name, kind in protocols.KINDS.items()}
RUN_ID_CHARS = "A-Za-z0-9_.-"  # a run id names the run's files


@dataclass
class ExperimentConfig:
    protocol: ProtocolConfig
    dataset: DatasetSpec
    model: ModelSpec
    leakage: LeakageSpec
    run_id: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        check_keys(raw, [f.name for f in fields(ExperimentConfig)], "a config")
        proto, ds, model, leak = (
            build_section(cls, raw.get(name, {}), name)
            for name, cls in (("protocol", ProtocolConfig), ("dataset", DatasetSpec),
                              ("model", ModelSpec), ("leakage", LeakageSpec)))
        run_id = raw.get("run_id")
        if run_id is not None and not (isinstance(run_id, str)
                                       and re.fullmatch(f"[{RUN_ID_CHARS}]+", run_id)):
            raise ConfigError(f"must be a string of [{RUN_ID_CHARS}]+, got {run_id!r}",
                              field="run_id")

        cfg = ExperimentConfig(proto, ds, model, leak, run_id)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        ds = self.dataset
        if ds.kind not in ("synthetic", "idx"):
            raise ConfigError(f"unknown kind {ds.kind!r}", field="dataset.kind")
        if ds.validation < 0:
            raise ConfigError("must be nonnegative", field="dataset.validation")
        if min(self.model.hidden, default=1) < 1:
            raise ConfigError("every width must be at least 1", field="model.hidden")
        if ds.kind == "idx":
            for attr in ("images", "labels"):
                path = getattr(ds, attr)
                if not path:
                    raise ConfigError("required for idx datasets", field=f"dataset.{attr}")
                if not os.path.exists(path):
                    raise ConfigError(f"file not found: {path}", field=f"dataset.{attr}")
            rows = data.idx_count(ds.images, ds.labels)  # a bad header pair raises FormatError
        else:
            for name in ("classes", "per_class"):
                if getattr(ds, name) < 1:
                    raise ConfigError("must be at least 1", field=f"dataset.{name}")
            if ds.dim < ds.classes:
                raise ConfigError("dim must be >= classes", field="dataset.dim")
            if not 0.0 < ds.separation < np.inf:
                raise ConfigError("must be positive and finite", field="dataset.separation")
            rows = ds.classes * ds.per_class
            if 8 * rows * ds.dim > sys.maxsize:
                raise ConfigError(f"{rows} x {ds.dim} float64 features exceed the "
                                  f"{sys.maxsize} bytes an array can hold",
                                  field="dataset.per_class" if 8 * rows > sys.maxsize
                                  else "dataset.dim")
        available = rows - ds.validation
        if self.protocol.clients * ds.per_client > available:
            raise ConfigError(f"needs {self.protocol.clients * ds.per_client} training "
                              f"samples but only {available} remain after validation",
                              field="dataset.per_client")
        if ds.per_client < self.protocol.batch_size:
            raise ConfigError("per_client smaller than the batch size", field="dataset.per_client")
        n_layers = 2 * (len(self.model.hidden) + 1) - 1
        if not 1 <= self.model.cut_index < n_layers:
            raise ConfigError(f"must lie in [1, {n_layers})", field="model.cut_index")
        # The trainer's buffer holds a segment per client row, then the server's;
        # an IDX pair's widths are read only at load, so 1 bounds them below.
        kind = protocols.KINDS[self.protocol.kind]
        dim, classes = (ds.dim, ds.classes) if ds.kind == "synthetic" else (1, 1)
        widths = [dim, *self.model.hidden, classes]
        dense = [a * b + b for a, b in zip(widths, widths[1:])]
        total = sum(dense)
        segment = sum(dense[: (self.model.cut_index + 1) // 2]) if kind.server else total
        params = (1 if kind.travelling else self.protocol.clients) * segment + total - segment
        if 8 * params > sys.maxsize:
            raise ConfigError(f"a trainer buffer of {params} float64 parameters exceeds the "
                              f"{sys.maxsize} bytes an array can hold", field="model.hidden")
        leak = self.leakage
        probe_rows = min(leak.probe, ds.validation or rows)  # validation, else the data, caps it
        for name, value, least in (("bins", leak.bins, 2), ("pairs", leak.pairs, 1),
                                   ("probe", probe_rows, leak.bins)):
            if leak.enabled and value < least:
                raise ConfigError(f"needs at least {least}, got {value}", field=f"leakage.{name}")
        if leak.enabled and leak.pairs > MAX_LEAKAGE_PAIRS:
            raise ConfigError(f"must be at most {MAX_LEAKAGE_PAIRS}, got {leak.pairs}",
                              field="leakage.pairs")

    def resolved_run_id(self) -> str:
        if self.run_id:
            return self.run_id
        p = self.protocol
        return (
            f"{p.kind}-c{p.clients}-phi{p.active_fraction:g}"
            f"-a{p.lr_exponent:g}-seed{p.seed}"
        )

    def run_header(self) -> dict:
        """The fields that name the run, in the summary's column order; every
        metrics record and the summary row start from them."""
        p = self.protocol
        return {"run_id": self.resolved_run_id(), "protocol": p.kind, "clients": p.clients,
                "active_fraction": p.active_fraction, "lr_exponent": p.lr_exponent,
                "seed": p.seed}


@dataclass
class MetricsRecord:
    run_id: str
    seed: int
    epoch: int
    protocol: str
    clients: int
    active_fraction: float
    lr_exponent: float
    train_loss: float
    val_accuracy: float
    server_lr: float
    comm_bytes: int
    leakage_score: float | None = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[MetricsRecord]
    formula_total_bytes: float
    ledger: comm.CommLedger
    trainer: SplitTrainer

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].val_accuracy

    @property
    def final_loss(self) -> float:
        return self.records[-1].train_loss

    @property
    def total_comm_bytes(self) -> int:
        return self.ledger.total_bytes()

    def summary_row(self) -> dict:
        return {
            **self.config.run_header(),
            "epochs": self.config.protocol.epochs,
            "final_loss": self.final_loss,
            "final_accuracy": self.final_accuracy,
            "total_comm_bytes": self.total_comm_bytes,
            "formula_total_bytes": self.formula_total_bytes,
        }


def build_dataset(cfg: ExperimentConfig) -> tuple[list, data.Dataset, np.ndarray | None]:
    """(clients, validation, leakage probe) per the dataset spec, seeded from
    the run seed; clients and validation are views of one array, whose rows
    ``data.arrange`` moves once, synthetic shuffle included. The probe is the
    first validation rows, or without validation a copy of the first rows of
    the shuffled set; None with leakage off or for fl."""
    ds_spec = cfg.dataset
    seed = cfg.protocol.seed
    if ds_spec.kind == "idx":
        full = data.load_idx(ds_spec.images, ds_spec.labels)
        order = np.arange(len(full))
    else:
        full, order = data.synth_blocks(ds_spec.classes, ds_spec.per_class, ds_spec.dim,
                                        ds_spec.separation, seed=[seed, STREAM_SYNTH])
    leak = cfg.leakage.enabled and protocols.KINDS[cfg.protocol.kind].server
    head = slice(cfg.leakage.probe)
    probe = full.features[order[head]] if leak and not ds_spec.validation else None
    val, clients = data.arrange(
        full, ds_spec.validation, cfg.protocol.clients, ds_spec.per_client,
        val_seed=[seed, STREAM_VALSPLIT], part_seed=[seed, STREAM_PARTITION], order=order,
    )
    if leak and ds_spec.validation:
        probe = val.features[head]
    return clients, val, probe


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Execute one configured run; optionally write metrics files.

    Writes ``<run_id>.metrics.jsonl`` (one record per epoch),
    ``<run_id>.summary.csv`` and ``<run_id>.config.json`` under ``out_dir``.
    The closed form sums ``comm.formula_total`` of each epoch's own geometry.
    """
    clients, val, probe = build_dataset(cfg)
    client_data = [(c.features, c.labels) for c in clients]
    widths = [val.features.shape[1], *cfg.model.hidden, val.n_classes]
    layers = nn.build_mlp(widths, keyed_rng(cfg.protocol.seed, STREAM_INIT))
    model = splitting.SplitModel(layers, cfg.model.cut_index)
    ledger = comm.CommLedger()
    val_pair = (val.features, val.labels) if len(val) else None
    trainer = SplitTrainer(model, client_data, cfg.protocol, val_data=val_pair, ledger=ledger)

    records: list[MetricsRecord] = []
    header, p = cfg.run_header(), cfg.protocol
    cut_width = next(l.out_dim for l in reversed(model.client_segment) if isinstance(l, nn.Dense))
    geometry = dict(clients=p.clients, rounds=cfg.dataset.per_client // p.batch_size,
                    batch_size=p.batch_size, cut_width=cut_width,
                    param_counts={"segment": trainer.stack.flat.shape[1],
                                  "model": nn.param_count(model.layers)})
    pairs = None if probe is None else draw_pairs(probe.shape[1], cut_width, cfg.leakage.pairs,
                                                  cfg.protocol.seed)
    prev_bytes, formula = 0, 0.0
    for epoch in range(cfg.protocol.epochs):
        m = trainer.run_epoch(epoch)
        formula += comm.formula_total(COST_METHOD[p.kind], active_count=len(m.active_ids),
                                      **geometry)
        epoch_bytes = ledger.total_bytes() - prev_bytes
        prev_bytes = ledger.total_bytes()
        leak_value = None
        if probe is not None:
            leak_value = smashed_leakage_score(trainer.clients[0].layers, probe, cfg.leakage.bins,
                                               pairs=pairs)
        records.append(
            MetricsRecord(
                **header,
                epoch=epoch,
                train_loss=m.train_loss,
                val_accuracy=m.val_accuracy,
                server_lr=m.server_lr,
                comm_bytes=epoch_bytes,
                leakage_score=leak_value,
            )
        )

    result = ExperimentResult(
        config=cfg,
        records=records,
        formula_total_bytes=formula,
        ledger=ledger,
        trainer=trainer,
    )
    if out_dir is not None:
        write_metrics(result, out_dir)
    return result


def write_metrics(result: ExperimentResult, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = result.config.resolved_run_id()
    (out / f"{run_id}.metrics.jsonl").write_text(
        "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in result.records))
    with open(out / f"{run_id}.summary.csv", "w", newline="") as f:
        _write_csv(f, [result.summary_row()])
    (out / f"{run_id}.config.json").write_text(
        json.dumps(asdict(result.config), indent=2, sort_keys=True) + "\n")


def _write_csv(stream, rows: list[dict], columns=None) -> None:
    """Write ``rows`` to the text ``stream`` under a header of ``columns``,
    by default the first row's keys; the only CSV writer of the package."""
    writer = csv.DictWriter(stream, fieldnames=columns or list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def set_by_path(tree: dict, dotted: str, value) -> None:
    """Set a nested dict entry by dotted path, creating intermediate dicts."""
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError("path crosses a non-object value", field=dotted)
    node[parts[-1]] = value


def sweep(
    base: dict,
    grid: dict[str, list],
    seeds: list[int],
    out_dir=None,
) -> list[dict]:
    """Run the cross product of ``grid`` over ``seeds``; aggregate per cell.

    ``base`` is a raw experiment-config dict; grid keys are dotted paths into
    it, other than ``protocol.seed``, and grid values any JSON values. Returns
    one row per cell with per-seed finals plus mean and standard deviation,
    and writes ``sweep.csv`` when ``out_dir`` is given. Runs execute one
    after another in grid order. Runs whose ids collide (the default id does
    not encode every grid key) get their grid cell appended, and those that
    still collide (an experiment's own ``run_id``) their seed, so no run
    overwrites another's files.
    """
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("must be a non-empty object of non-empty lists", field="grid")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"must be a non-empty list, got {values!r}", field=f"grid.{key}")
        if key == "protocol.seed" or key == "protocol" and any(
                isinstance(v, dict) and "seed" in v for v in values):
            raise ConfigError("every run takes its seed from 'seeds'; list the seeds there",
                              field=f"grid.{key}")
    if (not isinstance(seeds, list) or not seeds
            or any(type(s) is not int or s < 0 for s in seeds)):
        raise ConfigError(f"must be a non-empty list of non-negative integers, got {seeds!r}",
                          field="seeds")

    keys = list(grid)
    cells = list(product(*(grid[k] for k in keys)))

    jobs = []
    for index, cell in enumerate(cells):
        # A deep copy of both, so setting the seed leaves the grid values as given.
        raw, values = json.loads(json.dumps([base, cell]))
        for key, value in zip(keys, values):
            set_by_path(raw, key, value)
        # Checked once, at the first seed: a base seed the sweep overrides is never read.
        set_by_path(raw, "protocol.seed", seeds[0])
        cfg = ExperimentConfig.from_dict(raw)
        jobs += [(index, replace(cfg, protocol=replace(cfg.protocol, seed=seed))) for seed in seeds]
    ids = [cfg.resolved_run_id() for _, cfg in jobs]
    for index, cfg in jobs:
        if ids.count(cfg.resolved_run_id()) > 1:
            suffix = "-".join(f"{k.rsplit('.', 1)[-1]}{v}" for k, v in zip(keys, cells[index]))
            cfg.run_id = cfg.resolved_run_id() + "-" + re.sub(f"[^{RUN_ID_CHARS}]+", "_", suffix)
    ids = [cfg.resolved_run_id() for _, cfg in jobs]
    for _, cfg in jobs:  # an experiment's own run_id is the same for every seed
        if ids.count(cfg.resolved_run_id()) > 1:
            cfg.run_id = f"{cfg.resolved_run_id()}-seed{cfg.protocol.seed}"
    if len({cfg.resolved_run_id() for _, cfg in jobs}) < len(jobs):
        raise ConfigError("sweep runs share a run id even with their grid cell and seed",
                          field="grid")

    run_dir = Path(out_dir) / "runs" if out_dir is not None else None
    finals: list[list] = [[] for _ in cells]  # by cell index: grid values need not hash
    with protocols.shared_batch_orders():
        for index, cfg in jobs:
            result = run_experiment(cfg, run_dir)
            finals[index].append((result.final_accuracy, result.final_loss))
            # Drop the trainer (all client data) and ledger before the next run.
            del result

    rows = []
    for cell, entries in zip(cells, finals):
        accs, losses = (np.array(column) for column in zip(*entries))
        rows.append({**dict(zip(keys, cell)), "seeds": len(entries),
                     "mean_final_accuracy": float(accs.mean()),
                     "std_final_accuracy": float(accs.std()),
                     "mean_final_loss": float(losses.mean())})

    if out_dir is not None:  # the runs have made the directory
        with open(Path(out_dir) / "sweep.csv", "w", newline="") as f:
            _write_csv(f, rows)
    return rows


# ---------------------------------------------------------------------------
# Cost report
# ---------------------------------------------------------------------------

REFERENCE_COST = comm.CostParams(
    cut_size_mb=0.024,
    model_size_mb=200.0,
    client_size_mb=67.0,
    dataset_size=50_000,
    clients=100,
    active_fraction=0.5,
)

DATASET_GRID = (50_000, 500_000, 2_000_000)

DEFAULT_COST_SETTINGS = [("reference-100clients", REFERENCE_COST)] + [
    (f"dataset-{d}", replace(REFERENCE_COST, dataset_size=d, link_rate=10.0, compute_time=1.0))
    for d in DATASET_GRID]


def emit_cost_report(methods=comm.METHODS, settings=None) -> str:
    """Cost CSV of ``methods`` over ``(name, CostParams)`` settings; by
    default the 100-client reference point, then a dataset-size grid at the
    same model sizes."""
    buf = io.StringIO()
    settings = DEFAULT_COST_SETTINGS if settings is None else settings
    _write_csv(buf, comm.cost_rows(methods, settings), comm.COST_COLUMNS)
    return buf.getvalue()
