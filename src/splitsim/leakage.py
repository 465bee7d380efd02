"""Mutual-information leakage proxy between raw inputs and smashed data.

The estimator is the plug-in histogram MI in nats:

    I(X;Y) = sum_{x,y} P(x,y) * log( P(x,y) / (P(x) P(y)) )

over an equal-width binning of each variable's observed range; empty cells
contribute nothing. The per-cell terms are sorted before summation, which
makes I(X;Y) and I(Y;X) bitwise identical (same term multiset).

An honest-but-curious server sees the smashed activations; the leakage
score of a client segment is the mean MI over sampled
(input feature, smashed unit) scalar pairs, so lower scores mean the cut
output tells the server less about the raw input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nn
from .errors import DimensionError, InputError
from .protocols import STREAM_LEAKAGE, keyed_rng

Array = np.ndarray


@dataclass
class MIEstimate:
    """Histogram MI in nats, clamped at zero."""

    value: float
    bins: int
    samples: int
    degenerate: bool = False

    def __post_init__(self):
        if self.bins < 2:
            raise InputError("need at least 2 bins")


def mi_from_joint(joint: Array) -> float:
    """MI in nats of a joint histogram (counts or probabilities).

    Cell terms are accumulated in sorted order: transposing the joint
    permutes but never changes the terms, so symmetry holds bitwise.
    """
    # Canonical C layout: a transposed view must take the exact same
    # arithmetic path as an equal contiguous array, or bitwise symmetry
    # breaks in the reductions below.
    joint = np.ascontiguousarray(joint, dtype=np.float64)
    if joint.ndim != 2:
        raise DimensionError("joint histogram must be 2-D")
    total = joint.sum()
    if total <= 0:
        raise InputError("joint histogram is empty")
    p = joint / total
    # Marginals are summed in sorted order over a forced-contiguous buffer:
    # both the sort order and the reduction path are then independent of
    # whether the caller's joint arrived transposed, which keeps
    # mi(x, y) == mi(y, x) bitwise.
    def marginal(m):
        return np.sort(np.ascontiguousarray(m), axis=1).sum(axis=1)

    px = marginal(p)
    py = marginal(p.T)
    ix, iy = np.nonzero(p)
    terms = p[ix, iy] * np.log(p[ix, iy] / (px[ix] * py[iy]))
    value = float(np.sort(terms).sum())
    return max(value, 0.0)


def bin_index(column: Array, bins: int) -> Array | None:
    """Equal-width bin of every entry over the column's observed range,
    exactly as ``np.histogram2d`` bins it (the maximum falls in the last
    bin); None for a constant column, which has no observable range."""
    if bins < 2 or len(column) < bins:
        raise InputError("need at least 2 bins and as many samples as bins")
    lo, hi = column.min(), column.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError("samples must be finite")
    if lo == hi:
        return None
    edges = np.linspace(lo, hi, bins + 1)
    index = np.searchsorted(edges, column, side="right") - 1
    index[column == edges[-1]] -= 1
    return index


def joint_histogram(ix: Array, iy: Array, bins: int) -> Array:
    """[bins, bins] counts of the (x bin, y bin) pairs from ``bin_index``."""
    return np.bincount(ix * bins + iy, minlength=bins * bins).reshape(bins, bins)


def _binned_mi(ix: Array | None, iy: Array | None, bins: int) -> float:
    return 0.0 if ix is None or iy is None else mi_from_joint(joint_histogram(ix, iy, bins))


def mutual_information(x: Sequence[float], y: Sequence[float], bins: int = 16) -> MIEstimate:
    """Plug-in MI between two scalar sample vectors.

    Equal-width bins over each variable's observed range. A constant
    variable has no observable range; the estimate is 0 and flagged
    degenerate.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(y):
        raise DimensionError("x and y must have the same length")
    ix, iy = bin_index(x, bins), bin_index(y, bins)
    return MIEstimate(_binned_mi(ix, iy, bins), bins, len(x), degenerate=ix is None or iy is None)


@dataclass
class LeakageScore:
    value: float
    pairs: int
    bins: int


def smashed_leakage_score(
    client_layers,
    probe_features: Array,
    bins: int = 16,
    n_pairs: int = 64,
    seed: int = 0,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> LeakageScore:
    """Mean pairwise MI between input features and cut-layer units.

    Pairs are ``n_pairs`` random (feature index, unit index) draws from a
    seeded stream unless given explicitly. Each column is binned and each
    distinct pair scored once; a pair's MI equals ``mutual_information``.
    Accumulation follows the pair list order, so scores are deterministic.
    """
    probe_features = nn.as_tensor(probe_features)
    if probe_features.shape[0] == 0:
        raise InputError("probe dataset is empty")
    smashed = nn.forward(client_layers, probe_features).output
    d_in = probe_features.shape[1]
    d_out = smashed.shape[1]
    if pairs is None:
        rng = keyed_rng(seed, STREAM_LEAKAGE)
        pairs = [
            (int(rng.integers(d_in)), int(rng.integers(d_out)))
            for _ in range(n_pairs)
        ]
    x_bins = {f: bin_index(probe_features[:, f], bins) for f in {f for f, _ in pairs}}
    y_bins = {u: bin_index(smashed[:, u], bins) for u in {u for _, u in pairs}}
    mi = {(f, u): _binned_mi(x_bins[f], y_bins[u], bins) for f, u in {*map(tuple, pairs)}}
    values = [mi[f, u] for f, u in pairs]
    return LeakageScore(value=float(np.mean(values)), pairs=len(pairs), bins=bins)
