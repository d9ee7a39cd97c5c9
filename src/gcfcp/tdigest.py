"""Weighted, mergeable quantile sketch with arcsine tail scaling.

A digest summarizes a weighted empirical distribution as two sorted arrays:
cluster means (ascending) and cluster weights. The arcsine scale function
keeps clusters small near the tails and allows them to grow near the median,
which bounds both the maximal normalized cluster mass and the uniform CDF
error by sin(pi/delta).

Digests built from disjoint datasets merge by concatenating their arrays as
weighted samples and rebuilding at the same compression level (the merging
digest of Dunning & Ertl, arXiv:1902.04023).

``_build_segments`` builds the digests of disjoint segments in one pass: a
federation client sketches all its atoms with one call, and the server merges
a round with one more. ``build_digest_arrays`` and ``merge`` are one segment.
Its caller sorts the samples by (segment, value): the order among tied values
moves cumulative weights and cluster edges unless the tied samples weigh the
same, so ``build_digest_arrays`` and ``merge`` sort stably.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# A sample joins the current cluster iff its scale span stays within this.
_SPAN = 1.0 + 1e-12


class DigestError(ValueError):
    """Invalid input to digest construction."""


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


def _cluster_starts(r: np.ndarray, delta: float, bounds: np.ndarray) -> np.ndarray:
    """First sample of every cluster of the greedy pass over scale positions.

    ``bounds`` holds each segment's first sample, then r.size. A cluster at s
    has left edge r[s-1] (-delta/4, quantile 0's scale, at a segment start)
    and ends at its segment's end or the first i > s with r[i] - left > _SPAN.
    One searchsorted per segment proposes an end for every start, and each
    steps forward until it fails that exact test. The followed clusters are
    then checked as a whole: an index inside one that fails the test
    (searchsorted rounded past it, or arcsin rounding made r dip) ends it.
    """
    n = r.size
    left = np.concatenate(([-delta / 4.0], r[:-1]))
    left[bounds[:-1]] = -delta / 4.0
    stop = np.repeat(bounds[1:], np.diff(bounds))
    idx = np.arange(n)
    cuts = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    end = np.concatenate([a + np.searchsorted(r[a:b], left[a:b] + _SPAN, side="right") for a, b in cuts])
    end = np.maximum(end, idx + 1)  # searchsorted keeps each end within its segment
    while True:
        fwd = np.flatnonzero(end < stop)
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


def _build_segments(v: np.ndarray, w: np.ndarray, delta: float, sizes, totals):
    """Cluster means and weights of samples sorted by (segment, value), and
    each segment's cluster count. ``sizes`` and ``totals`` hold each segment's
    samples and weight; its clusters equal a build on it alone."""
    if v.size == 0:
        raise DigestError("cannot build a digest from zero samples")
    if not 2.0 <= delta < math.inf:
        raise DigestError(f"compression {delta!r} must be finite and >= 2")
    if not np.all(np.isfinite(v)):
        raise DigestError("sample values must be finite")
    if not (np.all(w > 0.0) and np.all(np.isfinite(w))):
        raise DigestError("sample weights must be positive and finite")
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    # r[i] = scale at the right boundary after absorbing sample i
    r = np.concatenate([
        (delta / (2.0 * math.pi)) * np.arcsin(2.0 * np.minimum(np.cumsum(w[a:b]) / total, 1.0) - 1.0)
        for a, b, total in zip(bounds[:-1].tolist(), bounds[1:].tolist(), totals)
    ])

    # an empty segment starts no cluster
    starts = _cluster_starts(r, delta, np.append(bounds[:-1][np.diff(bounds) > 0], v.size))
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
    back = np.argsort(by_len)
    return cur_mean[back], cur_w[back], np.diff(np.searchsorted(starts, bounds))


def _build_one(values: np.ndarray, weights: np.ndarray, delta: float, total: float) -> Digest:
    """One segment: the samples in stable value order, then one build."""
    order = np.argsort(values, kind="stable")
    means, cl_weights, _ = _build_segments(values[order], weights[order], delta, [values.size], [total])
    return Digest(means, cl_weights, compression=delta, total_weight=total)


def build_digest_arrays(values: np.ndarray, weights: np.ndarray, delta: float) -> Digest:
    """Greedy single pass over value-sorted samples.

    Ties in value keep input order (stable sort). A sample joins the current
    cluster iff the cluster's scale span stays at most one unit; a sample
    that alone exceeds the span still forms a singleton cluster, in which
    case the mass bound degrades to max(sin(pi/delta), max_i w_i/W).
    """
    weights = np.asarray(weights, dtype=float)
    return _build_one(np.asarray(values, dtype=float), weights, delta, float(np.sum(weights)))


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
    return _build_one(values, weights, delta, total)
