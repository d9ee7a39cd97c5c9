"""Weighted, mergeable quantile sketch with arcsine tail scaling.

A digest summarizes a weighted empirical distribution as two sorted arrays:
cluster means (ascending) and cluster weights. The arcsine scale function
keeps clusters small near the tails and allows them to grow near the median,
which bounds both the maximal normalized cluster mass and the uniform CDF
error by sin(pi/delta).

Digests built from disjoint datasets merge by concatenating their arrays as
weighted samples and rebuilding at the same compression level (the merging
digest of Dunning & Ertl, arXiv:1902.04023).

``build_digest_arrays`` is the one builder; ``merge`` rebuilds through the
same private ``_build_from_arrays``, so a wrapper around the public builder
(the benchmark's tracer) counts client builds only. ``digest_fields`` and
``digest_from_fields`` are the one wire codec: the digest part of a
federation message line.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# A sample joins the current cluster iff its scale span stays within this.
_SPAN = 1.0 + 1e-12


class DigestError(ValueError):
    """Invalid input to digest construction or deserialization."""


class Digest:
    """Sorted cluster arrays: ``means()`` ascending, ``weights()`` positive.

    Immutable after construction: the arrays are read-only float64 copies.
    """

    __slots__ = ("_means", "_weights", "compression", "total_weight")

    def __init__(self, means, weights, compression: float, total_weight: float):
        means = np.array(means, dtype=float)
        weights = np.array(weights, dtype=float)
        if means.ndim != 1 or means.shape != weights.shape:
            raise DigestError("means and weights must be 1-d arrays of equal length")
        means.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "_means", means)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "compression", float(compression))
        object.__setattr__(self, "total_weight", float(total_weight))

    def __setattr__(self, name, value):
        raise AttributeError("Digest is immutable")

    def __len__(self) -> int:
        return self._means.size

    def means(self) -> np.ndarray:
        return self._means

    def weights(self) -> np.ndarray:
        return self._weights

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digest):
            return NotImplemented
        return (
            self.compression == other.compression
            and self.total_weight == other.total_weight
            and np.array_equal(self._means, other._means)
            and np.array_equal(self._weights, other._weights)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Digest(clusters={len(self)}, compression={self.compression!r}, "
            f"total_weight={self.total_weight!r})"
        )


def _cluster_starts(r: np.ndarray, delta: float) -> np.ndarray:
    """First sample of every cluster of the greedy pass over scale positions.

    A cluster starting at s has left edge r[s-1] (-delta/4, the scale of
    quantile 0, for s = 0) and ends at the first i > s with
    r[i] - left > _SPAN. One searchsorted proposes an
    end for every possible start, and each end steps forward until it fails
    that exact test. The followed clusters are then checked as a whole: an
    index inside one that fails the test (searchsorted rounded past it, or
    rounding in arcsin made r dip by an ulp) becomes the end of its cluster.
    """
    n = r.size
    left = np.concatenate(([-delta / 4.0], r[:-1]))
    idx = np.arange(n)
    end = np.clip(np.searchsorted(r, left + _SPAN, side="right"), idx + 1, n)
    while True:
        fwd = np.flatnonzero(end < n)
        fwd = fwd[r[end[fwd]] - left[fwd] <= _SPAN]
        if not fwd.size:
            break
        end[fwd] += 1

    ends = end.tolist()
    while True:
        starts = []
        s = 0
        while s < n:
            starts.append(s)
            s = ends[s]
        starts = np.array(starts)
        owner = np.repeat(starts, np.diff(np.append(starts, n)))
        bad = np.flatnonzero((r - left[owner] > _SPAN) & (owner != idx))
        if not bad.size:
            return starts
        ends[owner[bad[0]]] = int(bad[0])


def _build_from_arrays(
    values: np.ndarray,
    weights: np.ndarray,
    delta: float,
    total: float | None = None,
) -> Digest:
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.size == 0:
        raise DigestError("cannot build a digest from zero samples")
    if delta < 2.0:
        raise DigestError(f"compression {delta!r} must be >= 2")
    if not np.all(np.isfinite(values)):
        raise DigestError("sample values must be finite")
    if not (np.all(weights > 0.0) and np.all(np.isfinite(weights))):
        raise DigestError("sample weights must be positive and finite")

    if total is None:
        # summed in input order so rebuilds are deterministic
        total = float(np.sum(weights))

    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    q = np.minimum(np.cumsum(w) / total, 1.0)
    # r[i] = scale at the right boundary after absorbing sample i
    r = (delta / (2.0 * math.pi)) * np.arcsin(2.0 * q - 1.0)

    starts = _cluster_starts(r, delta)
    lengths = np.diff(np.append(starts, v.size))
    # Incremental weighted mean (bounds rounding drift over merge chains),
    # one step per position within a cluster across all clusters that long.
    # Longest clusters first, so the clusters still absorbing form a prefix.
    by_len = np.argsort(-lengths, kind="stable")
    first = starts[by_len]
    longer = np.searchsorted(-lengths[by_len], -np.arange(1, lengths.max()), side="left")
    cur_mean = v[first]
    cur_w = w[first]
    for j, k in enumerate(longer.tolist(), start=1):
        pos = first[:k] + j
        wj = w[pos]
        cw = cur_w[:k]
        cw += wj
        cur_mean[:k] += (wj / cw) * (v[pos] - cur_mean[:k])
    means = np.empty_like(cur_mean)
    cl_weights = np.empty_like(cur_w)
    means[by_len] = cur_mean
    cl_weights[by_len] = cur_w
    return Digest(means, cl_weights, compression=delta, total_weight=total)


def build_digest_arrays(
    values: np.ndarray,
    weights: np.ndarray,
    delta: float,
    total: float | None = None,
) -> Digest:
    """Greedy single pass over value-sorted samples.

    Ties in value keep input order (stable sort). A sample joins the current
    cluster iff the cluster's scale span stays at most one unit; a sample
    that alone exceeds the span still forms a singleton cluster, in which
    case the mass bound degrades to max(sin(pi/delta), max_i w_i/W).
    """
    return _build_from_arrays(values, weights, delta, total=total)


def merge(digests: Sequence[Digest], delta: float) -> Digest:
    """Concatenate all cluster arrays as weighted samples and rebuild at delta.

    Total weight is the exact sum of the input totals (fixed summation order:
    digest order, then cluster order).
    """
    if len(digests) == 0:
        raise DigestError("cannot merge zero digests")
    values = np.concatenate([d.means() for d in digests])
    weights = np.concatenate([d.weights() for d in digests])
    total = 0.0
    for d in digests:
        total += d.total_weight
    return _build_from_arrays(values, weights, delta, total=total)


def max_cluster_mass(digest: Digest) -> float:
    """Maximum normalized cluster mass; controls the uniform CDF error."""
    return float(np.max(digest.weights()) / digest.total_weight)


def digest_fields(digest: Digest) -> dict:
    """Wire fields: {"compression": d, "clusters": [[mean, weight], ...]}."""
    return {
        "compression": digest.compression,
        "clusters": np.column_stack((digest.means(), digest.weights())).tolist(),
    }


def digest_from_fields(compression, clusters) -> Digest:
    """Validate parsed wire fields and build the digest they describe.

    The total weight is the sequential sum of the cluster weights.
    """
    try:
        compression = float(compression)
        pairs = np.array(clusters, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DigestError(f"malformed digest payload: {exc}") from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        if pairs.size == 0:
            raise DigestError("digest has no clusters")
        raise DigestError(f"clusters must be [mean, weight] pairs, got shape {pairs.shape}")
    if not (math.isfinite(compression) and np.isfinite(pairs).all()):
        raise DigestError("compression, means and weights must be finite")
    if compression <= 0.0:
        raise DigestError("compression must be positive")
    means, weights = pairs[:, 0], pairs[:, 1]
    if not np.all(weights > 0.0):
        raise DigestError("nonpositive cluster weight")
    if np.any(means[1:] < means[:-1]):
        raise DigestError("clusters not sorted by mean")
    with np.errstate(over="ignore"):
        total = np.cumsum(weights)[-1]
    if not math.isfinite(total):
        raise DigestError("cluster weights sum to infinity")
    return Digest(means, weights, compression=compression, total_weight=total)

