"""Mutual-information leakage proxy between raw inputs and smashed data.

The estimator is the plug-in histogram MI in nats:

    I(X;Y) = sum_{x,y} P(x,y) * log( P(x,y) / (P(x) P(y)) )

over an equal-width binning of each variable's observed range; empty cells
contribute nothing. The per-cell terms are sorted before summation, which
makes I(X;Y) and I(Y;X) bitwise identical (same term multiset).

An honest-but-curious server sees the smashed activations; the leakage score
of a client segment is the mean MI over the (input feature, smashed unit)
pairs it is given (``draw_pairs`` samples them), so lower scores mean the
cut output tells the server less about the raw input. A score bins every
column it needs in one pass (``bin_columns``) and scores every distinct pair
on one [pairs, bins, bins] stack (``mi_from_joints``); ``mi_from_joint``
is its one-joint case.
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
    degenerate: bool = False


def mi_from_joints(joints: Array) -> Array:
    """MI in nats of each joint histogram (counts or probabilities) in a
    [pairs, bins, bins] stack, each with ``mi_from_joint``'s arithmetic.

    Marginals and cell terms are summed in sorted order: transposing a joint
    permutes but never changes its terms, so for counts, whose total is
    exact in any order, symmetry holds bitwise.
    """
    # Canonical C layout: a transposed view must take the exact same
    # arithmetic path as an equal contiguous array, or bitwise symmetry
    # breaks in the reductions below.
    joints = np.ascontiguousarray(joints, dtype=np.float64)
    if joints.ndim != 3:
        raise DimensionError("joint histograms must be 2-D, stacked as [pairs, bins, bins]")
    total = joints.sum(axis=(1, 2))
    if not (total > 0).all():
        raise InputError("joint histogram is empty")
    p = joints / total[:, None, None]

    def marginal(m):  # sorted over a forced-contiguous buffer, as for p itself
        return np.sort(np.ascontiguousarray(m), axis=2).sum(axis=2)

    px = marginal(p)
    py = marginal(p.transpose(0, 2, 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # empty cells, dropped below
        cells = p * np.log(p / (px[:, :, None] * py[:, None, :]))
    # Each joint's terms ascending; empty cells sort last and are never summed.
    cells = np.where(p > 0, cells, np.inf).reshape(len(p), p.shape[1] * p.shape[2])
    terms = np.sort(cells, axis=1)
    # A row sum of a [g, m] array takes a 1-D sum's pairwise path for m terms,
    # so the joints are summed together per count of nonempty cells.
    counts = np.count_nonzero(p, axis=(1, 2))
    value = np.empty(len(p))
    for m in np.unique(counts):
        rows = counts == m
        value[rows] = terms[rows, :m].sum(axis=1)
    return np.maximum(value, 0.0)


def mi_from_joint(joint: Array) -> float:
    """MI in nats of one joint histogram (counts or probabilities), clamped at 0."""
    return float(mi_from_joints(np.asarray(joint)[None])[0])


def bin_columns(columns: Array, bins: int) -> tuple[Array, Array]:
    """Equal-width bin of every entry of each column of ``columns`` [n, k]
    over that column's observed range, exactly as ``np.histogram2d`` bins it
    (the maximum falls in the last bin), plus the mask of constant columns,
    which have no observable range and whose bins mean nothing."""
    if bins < 2 or len(columns) < bins:
        raise InputError("need at least 2 bins and as many samples as bins")
    lo, hi = columns.min(axis=0), columns.max(axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise InputError("samples must be finite")
    # np.linspace(lo, hi, bins + 1) per column, with its path for a step
    # that underflows to 0.
    delta = hi - lo
    step, at = delta / bins, np.arange(bins + 1.0)[:, None]
    edges = np.where(step == 0, at / bins * delta, at * step) + lo
    # searchsorted(edges, v, "right") - 1, less 1 at the maximum, counts the
    # inner edges at or below v.
    index = np.zeros(columns.shape, dtype=np.intp)
    for edge in edges[1:-1]:
        index += edge <= columns
    return index, lo == hi


def joint_histogram(ix: Array, iy: Array, bins: int) -> Array:
    """[bins, bins] counts of the (x bin, y bin) pairs of two bin columns; for
    [n, pairs] bin columns, a [pairs, bins, bins] stack, one joint per pair."""
    codes = (ix * bins + iy).reshape(len(ix), -1)
    cells = bins * bins * codes.shape[1]
    codes = codes + np.arange(0, cells, bins * bins)
    return np.bincount(codes.ravel(), minlength=cells).reshape(ix.shape[1:] + (bins, bins))


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
    index, constant = bin_columns(np.column_stack([x, y]), bins)
    degenerate = bool(constant.any())
    value = 0.0 if degenerate else mi_from_joint(joint_histogram(index[:, 0], index[:, 1], bins))
    return MIEstimate(value, degenerate=degenerate)


def draw_pairs(d_in: int, d_out: int, n_pairs: int, seed: int) -> list[tuple[int, int]]:
    """``n_pairs`` (feature index, unit index) draws from the seeded leakage stream."""
    rng = keyed_rng(seed, STREAM_LEAKAGE)
    return [(int(rng.integers(d_in)), int(rng.integers(d_out))) for _ in range(n_pairs)]


def smashed_leakage_score(
    client_layers,
    probe_features: Array,
    bins: int,
    pairs: Sequence[tuple[int, int]],
) -> float:
    """Mean MI over the given (feature index, unit index) ``pairs`` between
    input features and cut-layer units. The columns the pairs use are binned
    in one pass, and every distinct pair's joint is counted and scored at
    once; a pair's MI equals ``mutual_information``. The mean follows the
    pair list order, so scores are deterministic. An empty pair list, or a
    pair outside the (features, units) widths, raises ``InputError``.
    """
    probe_features = nn.as_tensor(probe_features)
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    if probe_features.shape[0] == 0:
        raise InputError("probe dataset is empty")
    if len(pairs) == 0:
        raise InputError("need at least one (feature, unit) pair")
    smashed = nn.forward(client_layers, probe_features).output
    shape = (probe_features.shape[1], smashed.shape[1])
    outside = ((pairs < 0) | (pairs >= shape)).any(axis=1)
    if outside.any():
        feature, unit = pairs[outside.argmax()]
        raise InputError(f"pair ({feature}, {unit}) lies outside the (features, units) "
                         f"widths {shape}")
    codes = np.ravel_multi_index(pairs.T, shape)
    distinct, which = np.unique(codes, return_inverse=True)
    features, x = np.unique(distinct // shape[1], return_inverse=True)
    units, y = np.unique(distinct % shape[1], return_inverse=True)
    index, constant = bin_columns(
        np.column_stack([probe_features[:, features], smashed[:, units]]), bins)
    y = y + len(features)
    live = ~(constant[x] | constant[y])
    mi = np.zeros(len(distinct))
    mi[live] = mi_from_joints(joint_histogram(index[:, x[live]], index[:, y[live]], bins))
    return float(np.mean(mi[which]))
