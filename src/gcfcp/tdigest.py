"""Weighted, mergeable quantile sketch with arcsine tail scaling.

A digest summarizes a weighted empirical distribution as two sorted arrays:
cluster means (ascending) and cluster weights. The arcsine scale function
keeps clusters small near the tails and allows them to grow near the median,
which bounds both the maximal normalized cluster mass and the uniform CDF
error by sin(pi/delta).

Digests built from disjoint datasets merge by concatenating their arrays as
weighted samples and rebuilding at the same compression level (the merging
digest of Dunning & Ertl, arXiv:1902.04023).

``_build_segments`` builds the digests of disjoint segments of weighted
samples in one pass: the federation server merges a round with one call, and
``build_digest_arrays`` and ``merge`` are one segment. ``_count_segments`` is
that pass for samples that all weigh the same, from integer counts: a client
sketches all its atoms with one call, and each cluster's weight is its sample
count, which the server scales by the client's weight. A segment's clusters
and total depend on its samples alone: its scale positions are its running
weight over that sum's last entry (k / L for the k-th of L equal samples).
Its caller sorts the samples by (segment, value): the order among tied values
moves cumulative weights and cluster edges unless the tied samples weigh the
same, so ``build_digest_arrays`` and ``merge`` sort stably. Each cluster's
mean is its samples' share-weighted sum (a sample's share is its weight over
the cluster's), clamped to the range of their values.

Each segment finds its cluster starts by the greedy rule in a loop over its
samples, except that a segment longer than ``_WALK_AFTER * delta`` whose scale
positions are nondecreasing (arcsin rounding can make them dip) is walked with
one bisect per cluster. Both give the same starts.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

# A sample joins the current cluster iff its scale span stays within this.
_SPAN = 1.0 + 1e-12
# A segment longer than this many times delta has its cluster starts walked:
# a walk costs about one bisect per cluster (about delta / 2 of them), the
# loop one step per sample.
_WALK_AFTER = 12


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


def _cluster_starts(r: np.ndarray, delta: float, heads: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """First sample of every cluster of the greedy pass over scale positions.

    ``heads`` and ``ends`` bound each non-empty segment. A cluster at s has
    left edge r[s-1] (-delta/4, quantile 0's scale, at a segment start) and
    ends at its segment's end or the first i > s with r[i] - left > _SPAN.
    A segment longer than _WALK_AFTER * delta whose r is nondecreasing is
    walked cluster by cluster; the others take the rule itself, one sample at
    a time, which holds for any r. Both read the segment through a memoryview.
    """
    starts = []
    for a, b in zip(heads.tolist(), ends.tolist()):
        seg = r[a:b]
        walk = b - a > _WALK_AFTER * delta and (seg[1:] >= seg[:-1]).all()
        starts += (_walk_starts if walk else _greedy_starts)(memoryview(seg), a, delta)
    return np.array(starts)


def _greedy_starts(rs: memoryview, a: int, delta: float) -> list[int]:
    """The cluster starts of one segment's scale positions ``rs``, offset by
    its first sample ``a``: the greedy rule itself, which holds for any r."""
    starts, left, prev = [a], -delta / 4.0, rs[0]
    for i, x in enumerate(rs[1:], start=a + 1):
        if x - left > _SPAN:
            starts.append(i)
            left = prev
        prev = x
    return starts


def _walk_starts(rs: memoryview, a: int, delta: float) -> list[int]:
    """The cluster starts of one segment whose scale positions ``rs`` are
    nondecreasing, offset by its first sample ``a``.

    One bisect per cluster on the memoryview proposes its end, and the exact test moves
    the end to the first sample that fails it. As r - left is nondecreasing in r, every
    sample before that end passes: these are the greedy starts.
    """
    starts, left, s, m = [a], -delta / 4.0, 0, len(rs)
    while True:
        i = bisect.bisect_right(rs, left + _SPAN, s + 1)
        while i < m and rs[i] - left <= _SPAN:
            i += 1
        while i > s + 1 and rs[i - 1] - left > _SPAN:
            i -= 1
        if i >= m:
            return starts
        starts.append(a + i)
        left, s = rs[i - 1], i


def _segments(v: np.ndarray, delta: float, sizes):
    """Both builders' checks, then each segment's size, first sample and end."""
    if v.size == 0:
        raise DigestError("cannot build a digest from zero samples")
    if not 2.0 <= delta < math.inf:
        raise DigestError(f"compression {delta!r} must be finite and >= 2")
    if not np.isfinite(v).all():
        raise DigestError("sample values must be finite")
    sizes = np.asarray(sizes)
    ends = sizes.cumsum()
    return sizes, ends - sizes, ends


def _clusters(v: np.ndarray, q: np.ndarray, delta: float, sizes, heads, ends):
    """Cluster starts and sample counts at quantile positions ``q``; each segment's cluster count."""
    r = (delta / (2.0 * math.pi)) * np.arcsin(2.0 * q - 1.0)  # the scale after absorbing each sample
    full = sizes > 0
    starts = _cluster_starts(r, delta, heads[full], ends[full])
    lengths = np.concatenate((starts[1:], [v.size])) - starts
    return starts, lengths, starts.searchsorted(ends) - starts.searchsorted(heads)


def _means(v: np.ndarray, w: float | np.ndarray, weights: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each cluster's sum of shares (``w`` over its weight) times values, clamped to their range."""
    share = w / weights.repeat(lengths)
    # a sum that rounds past float range is clamped back into the cluster's range
    with np.errstate(over="ignore"):
        means = np.add.reduceat(share * v, starts)
    return np.minimum(np.maximum(means, v[starts]), v[starts + lengths - 1])


def _count_segments(v: np.ndarray, delta: float, sizes):
    """``_build_segments`` at unit weights, bit for bit, with sample counts (int64) as cluster
    weights and no totals: the k-th of a segment's L samples has quantile position k / L."""
    sizes, heads, ends = _segments(v, delta, sizes)
    q = (np.arange(1, v.size + 1) - heads.repeat(sizes)) / sizes.repeat(sizes)
    starts, lengths, counts = _clusters(v, q, delta, sizes, heads, ends)
    return _means(v, 1.0, lengths, starts, lengths), lengths, counts


def _build_segments(v: np.ndarray, w: np.ndarray, delta: float, sizes):
    """Cluster means and weights of samples sorted by (segment, value), weighing ``w``, and each
    segment's cluster count and total weight (``sizes`` holds its sample count): a segment's
    clusters and total equal a build on it alone, and a total past float range raises."""
    sizes, heads, ends = _segments(v, delta, sizes)
    if not ((w > 0.0).all() and np.isfinite(w).all()):
        raise DigestError("sample weights must be positive and finite")
    full = sizes > 0
    totals = np.zeros(sizes.size)
    with np.errstate(over="ignore"):  # a sum past float range is rejected below
        totals[full] = np.add.reduceat(w, heads[full])
        cum = np.concatenate([w[a:b].cumsum() for a, b in zip(heads.tolist(), ends.tolist())])
    if not (np.isfinite(totals).all() and np.isfinite(cum).all()):
        raise DigestError("a segment's total weight must be finite")
    starts, lengths, counts = _clusters(v, cum / cum[ends - 1].repeat(sizes), delta, sizes, heads, ends)
    weights = np.add.reduceat(w, starts)
    return _means(v, w, weights, starts, lengths), weights, counts, totals


def _build_one(values: np.ndarray, weights: np.ndarray, delta: float) -> Digest:
    """One segment: the samples in stable value order, then one build."""
    order = np.argsort(values, kind="stable")
    means, cl_weights, _, (total,) = _build_segments(values[order], weights[order], delta, [values.size])
    return Digest(means, cl_weights, compression=delta, total_weight=total)


def build_digest_arrays(values: np.ndarray, weights: np.ndarray, delta: float) -> Digest:
    """Greedy single pass over value-sorted samples.

    Ties in value keep input order (stable sort). A sample joins the current
    cluster iff the cluster's scale span stays at most one unit; a sample
    that alone exceeds the span still forms a singleton cluster, in which
    case the mass bound degrades to max(sin(pi/delta), max_i w_i/W).
    """
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    if values.ndim != 1 or values.shape != weights.shape:
        raise DigestError("values and weights must be 1-d arrays of equal length")
    return _build_one(values, weights, delta)


def merge(digests: Sequence[Digest], delta: float) -> Digest:
    """Concatenate all cluster arrays as weighted samples and rebuild at delta;
    the total weight is one sum of those cluster weights."""
    if len(digests) == 0:
        raise DigestError("cannot merge zero digests")
    values = np.concatenate([d.means() for d in digests])
    weights = np.concatenate([d.weights() for d in digests])
    return _build_one(values, weights, delta)
