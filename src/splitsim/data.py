"""Dataset ingestion (IDX binary format; ``idx_count`` checks a pair's
headers without reading a payload), a synthetic generator, IID
partitioning, and validation splits. Everything is seed-deterministic.
Rows move in place (``permute_rows``), so a run keeps one copy of its data,
and a run's set-up moves each row once: ``arrange`` composes the synthetic
shuffle (``synth_blocks``) with its validation and partition draws."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError
from .nn import as_labels

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
ROW_BLOCK_BYTES = 1 << 22  # ``permute_rows`` moves at most this much per block


@dataclass
class Dataset:
    """Feature matrix [N, d] with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = as_labels(self.labels)
        if self.features.ndim != 2 or len(self.labels) != self.features.shape[0]:
            raise InputError("features must be [N, d] with one label per row")
        if self.labels.size and self.labels.max() >= self.n_classes:
            raise InputError("label value exceeds class count")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.n_classes)


def _read_be32(f, path) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: truncated header")
    return struct.unpack(">I", raw)[0]


def _read_idx_dims(f, path, magic: int, name: str) -> list[int]:
    """The header dims of the IDX file open as ``f``, as many as the low byte
    of ``magic`` says (3 for images, 1 for labels)."""
    got = _read_be32(f, path)
    if got != magic:
        raise FormatError(f"{path}: bad {name} magic 0x{got:08x}")
    return [_read_be32(f, path) for _ in range(magic & 0xFF)]


def idx_count(images_path, labels_path) -> int:
    """The image count of an IDX pair, read from both headers, which must
    agree; no pixel or label is read."""
    with open(images_path, "rb") as f:
        count = _read_idx_dims(f, images_path, IDX_IMAGE_MAGIC, "image")[0]
    with open(labels_path, "rb") as f:
        labels = _read_idx_dims(f, labels_path, IDX_LABEL_MAGIC, "label")[0]
    if labels != count:
        raise FormatError(f"image count {count} does not match label count {labels}")
    return count


def _read_idx(path, magic: int, name: str, payload: str) -> np.ndarray:
    """The uint8 payload of one IDX file, shaped by its header."""
    with open(path, "rb") as f:
        dims = _read_idx_dims(f, path, magic, name)
        # Never ask for more than the file holds: a corrupt header may claim 2**96 bytes.
        raw = f.read(min(math.prod(dims), os.fstat(f.fileno()).st_size))
        if len(raw) != math.prod(dims):
            raise FormatError(f"{path}: truncated {payload} data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Read an MNIST-style IDX image/label file pair.

    Pixels are scaled to [0, 1] and flattened row-major to d = rows*cols.
    """
    pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image", "pixel")
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label", "label")
    count, rows, cols = pixels.shape
    if len(labels) != count:
        raise FormatError(f"image count {count} does not match label count {len(labels)}")
    features = pixels.reshape(count, rows * cols).astype(np.float64)
    features /= 255.0
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(features, labels, n_classes)


def write_idx(images_path, labels_path, images: np.ndarray, labels) -> None:
    """Write uint8 images [N, rows, cols] and labels as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3 or images.shape[0] != labels.shape[0]:
        raise InputError("images must be [N, rows, cols] with matching labels")
    for path, magic, array in ((images_path, IDX_IMAGE_MAGIC, images),
                               (labels_path, IDX_LABEL_MAGIC, labels)):
        with open(path, "wb") as f:
            f.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
            f.write(array.tobytes())


def synth_dataset(
    n_classes: int,
    per_class: int,
    dim: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Unit-variance Gaussian blobs whose class means are pairwise
    ``separation`` apart (means sit at separation/sqrt(2) along distinct
    axes, so dim must be >= n_classes), in a seeded shuffled order."""
    blocks, order = synth_blocks(n_classes, per_class, dim, separation, seed)
    permute_rows(blocks.features, order)
    return Dataset(blocks.features, blocks.labels[order], n_classes)


def synth_blocks(n_classes, per_class, dim, separation, seed) -> tuple[Dataset, np.ndarray]:
    """``synth_dataset`` before its shuffle: the class blocks in class order and
    the shuffle order, so that ``arrange`` can compose it with its own draws."""
    if not 0.0 < separation < np.inf:
        raise InputError("separation must be positive and finite")
    if dim < n_classes:
        raise InputError("dim must be at least n_classes for equidistant means")
    rng = np.random.default_rng(seed)
    scale = separation / np.sqrt(2.0)
    features = np.empty((n_classes * per_class, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    for k in range(n_classes):
        mean = np.zeros(dim)
        mean[k] = scale
        block = features[k * per_class : (k + 1) * per_class]
        # Same bits as mean + rng.normal(size=...): normal(0, 1) is 0.0 + z.
        np.add(rng.standard_normal(out=block), mean, out=block)
    return Dataset(features, labels, n_classes), rng.permutation(len(labels))


def permute_rows(a: np.ndarray, order: np.ndarray) -> None:
    """``a[:] = a[order]`` in place for a permutation ``order``, one block of
    destination rows (at most ``ROW_BLOCK_BYTES``) at a time: the rows a block
    takes are staged, and the rows it displaces move into the freed slots."""
    n = len(order)
    rows = max(1, ROW_BLOCK_BYTES // max(1, a[:1].nbytes))
    at, pos = np.arange(n), np.arange(n)  # original row at a slot; slot of a row
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        src = pos[order[start:stop]]  # all >= start: earlier slots are final
        staged = a[src]
        displaced = np.ones(stop - start, dtype=bool)
        displaced[src[src < stop] - start] = False
        moved, freed = np.flatnonzero(displaced) + start, src[src >= stop]
        a[freed] = a[moved]
        at[freed] = at[moved]
        pos[at[freed]] = freed
        a[start:stop] = staged


def partition_iid(dataset: Dataset, clients: int, per_client: int, seed: int) -> list[np.ndarray]:
    """Each client's row indices into ``dataset``: disjoint uniform draws
    without replacement, ``per_client`` each. Callers use ``arrange``; this
    stays only because the benchmark's tracer names it: ROADMAP item 18's
    PR B deletes it once item 10's benchmark change stops tracing it."""
    drawn = partition_draw(len(dataset), clients, per_client, seed)
    return [drawn[i * per_client : (i + 1) * per_client] for i in range(clients)]


def split_validation(dataset: Dataset, n_val: int, seed: int) -> tuple[Dataset, Dataset]:
    """Uniformly draw ``n_val`` rows out as the validation set, as copies.
    Callers use ``arrange``; this stays only because the benchmark's tracer
    names it: ROADMAP item 18's PR B deletes it once item 10's benchmark
    change stops tracing it."""
    perm = validation_draw(len(dataset), n_val, seed)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


def partition_draw(n: int, clients: int, per_client: int, seed) -> np.ndarray:
    """``partition_iid``'s permutation: client i takes entries [i*per_client, (i+1)*per_client)."""
    need = clients * per_client
    if need > n:
        raise InputError(f"need {need} samples for {clients} clients but dataset has {n}")
    return np.random.default_rng(seed).permutation(n)


def validation_draw(n: int, n_val: int, seed) -> np.ndarray:
    """``split_validation``'s permutation: the first ``n_val`` entries are validation."""
    if n_val >= n:
        raise InputError("validation size must be smaller than the dataset")
    return np.random.default_rng(seed).permutation(n)


def arrange(dataset: Dataset, n_val: int, clients: int, per_client: int,
            val_seed, part_seed, order=None) -> tuple[Dataset, list[Dataset]]:
    """Move the rows in place into [validation | client 0 | ... | client C-1 |
    unused] and return (validation, clients) as views of ``dataset``. The rows
    are those ``split_validation`` (skipped if ``n_val`` is 0) then
    ``partition_iid`` draw with the same seeds from ``dataset`` taken in
    ``order`` (a pending shuffle such as ``synth_blocks``'), which is composed
    with the draws so that every row moves once."""
    n = len(dataset)
    drawn = validation_draw(n, n_val, val_seed) if n_val else np.arange(n)
    drawn[n_val:] = drawn[n_val:][partition_draw(n - n_val, clients, per_client, part_seed)]
    if order is not None:
        drawn = order[drawn]
    permute_rows(dataset.features, drawn)
    permute_rows(dataset.labels, drawn)
    starts = [n_val + i * per_client for i in range(clients)]
    return dataset.subset(slice(n_val)), [dataset.subset(slice(s, s + per_client)) for s in starts]
