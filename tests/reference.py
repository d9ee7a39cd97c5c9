"""References the library's faster paths must reproduce.

The per-group membership test of one point, and the per-row and per-sample
formulations of atom stratification, digest construction, the wire codec and
server assembly: the library runs vectorized versions, and the tests compare
the two bit for bit.

The solver's ratio test as array operations over the basis rows: the
library runs it as a loop in Python floats, and the tests compare the two
bit for bit.

The solver's first start with every column at 0 and the artificial columns
basic, and the bisection on the test score: the library starts from a
per-atom quantile crash and walks the breakpoints of the test score instead,
and the tests compare the two within stated tolerances.

Oracles the tests measure the library against: the arcsine scale function,
a digest's step CDF, quantile and maximum cluster mass, and the pinball loss.
"""

import base64
import hashlib
import json
import math
import struct
import zlib

import numpy as np

from gcfcp.conformal import DegenerateGroupError, EmptySetError
from gcfcp.groups import CoveringError, Interval, membership_matrix
from gcfcp.pinball import AugmentedQrSolver, SimplexBasis
from gcfcp.tdigest import DigestError


def scale(q, delta):
    """Arcsine scale function mapping a quantile to cluster-size units.

    Strictly increasing on [0, 1]; the full range spans delta/2 units, so a
    unit span corresponds to the maximal admissible cluster.
    """
    if not 0.0 <= q <= 1.0:
        raise DigestError(f"quantile {q!r} outside [0, 1]")
    if delta <= 0.0:
        raise DigestError(f"compression {delta!r} must be positive")
    return (delta / (2.0 * math.pi)) * math.asin(2.0 * q - 1.0)


def approx_cdf(digest, t):
    """Step-CDF estimate: normalized mass of clusters with mean <= t."""
    means = digest.means()
    weights = digest.weights()
    return float(np.sum(weights[means <= t]) / digest.total_weight)


def approx_quantile(digest, u):
    """Smallest cluster mean whose cumulative normalized mass reaches u."""
    if not 0.0 < u <= 1.0:
        raise DigestError(f"quantile level {u!r} outside (0, 1]")
    cum = np.cumsum(digest.weights())
    target = u * digest.total_weight
    idx = int(np.searchsorted(cum, target * (1.0 - 1e-12), side="left"))
    idx = min(idx, len(digest) - 1)
    return digest.means()[idx]


def max_cluster_mass(digest):
    """Maximum normalized cluster mass; controls the uniform CDF error."""
    return float(np.max(digest.weights()) / digest.total_weight)


def pinball_loss(theta, s, alpha):
    """Asymmetric absolute loss; minimized over constants at the (1-alpha)-quantile."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha!r} outside (0, 1)")
    if s >= theta:
        return (1.0 - alpha) * (s - theta)
    return alpha * (theta - s)


def reference_membership(x, family):
    """Bit g is set iff the scalar covariate x lies in group g, tested one
    group at a time."""
    bits = []
    for g in family.groups:
        if isinstance(g, Interval):
            above = x >= g.lo if g.lo_closed else x > g.lo
            below = x <= g.hi if g.hi_closed else x < g.hi
            bits.append(int(above and below))
        else:
            bits.append(int(int(x) in g.labels))
    if not any(bits):
        raise CoveringError(f"covariate value {x!r} is outside every group of the family")
    return tuple(bits)


def reference_atoms(covariates, family):
    """Per-row dict grouping: {pattern tuple: [row indices]}, keys sorted."""
    mat = membership_matrix(covariates, family)
    atoms = {}
    for i, row in enumerate(mat):
        atoms.setdefault(tuple(int(b) for b in row), []).append(i)
    return dict(sorted(atoms.items()))


def reference_clusters(values, weights, delta, total=None):
    """Greedy pass one sample at a time: returns (means, weights, sizes,
    total), ``sizes`` holding each cluster's number of samples."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if total is None:
        total = float(np.sum(weights))
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    q = np.minimum(np.cumsum(w) / total, 1.0)
    r = (delta / (2.0 * math.pi)) * np.arcsin(2.0 * q - 1.0)
    means, cl_weights, sizes = [], [], []
    r_left = -delta / 4.0
    cur_mean = v[0]
    cur_w = w[0]
    size = 1
    for i in range(1, v.size):
        if r[i] - r_left <= 1.0 + 1e-12:
            cur_w += w[i]
            cur_mean += (w[i] / cur_w) * (v[i] - cur_mean)
            size += 1
        else:
            means.append(cur_mean)
            cl_weights.append(cur_w)
            sizes.append(size)
            r_left = r[i - 1]
            cur_mean = v[i]
            cur_w = w[i]
            size = 1
    means.append(cur_mean)
    cl_weights.append(cur_w)
    sizes.append(size)
    return np.array(means), np.array(cl_weights), sizes, total


def reference_build(values, weights, delta, total=None):
    """Greedy pass one sample at a time: returns (means, weights, total)."""
    means, cl_weights, _, total = reference_clusters(values, weights, delta, total)
    return means, cl_weights, total


def reference_merge(parts, delta):
    """Pool (means, weights, total) triples in order and rebuild at delta."""
    total = 0.0
    for _, _, t in parts:
        total += t
    return reference_build(
        np.concatenate([m for m, _, _ in parts]),
        np.concatenate([w for _, w, _ in parts]),
        delta,
        total=total,
    )


def count_width(n):
    """Bytes per sample count on the wire: the smallest of 1, 2, 4 and 8
    that holds n."""
    for width in (1, 2, 4, 8):
        if n < 256**width:
            return width
    raise ValueError(f"n = {n} needs more than 8 bytes")


def reference_line(client_id, n, pi, delta, fingerprint, atoms, clusters, width=None):
    """One client wire line, packed value by value.

    ``atoms`` are code strings and ``clusters`` one list of (mean, sample
    count) pairs per atom; any values, valid or not, are packed as given,
    the counts at ``width`` bytes (by default the width n needs).
    """
    width = count_width(n) if width is None else width
    means = [m for pairs in clusters for m, _ in pairs]
    sizes = [c for pairs in clusters for _, c in pairs]
    raw = b"".join(struct.pack("<d", v) for v in means)
    raw += b"".join(c.to_bytes(width, "little") for c in sizes)
    data = base64.b64encode(raw)
    header = {
        "client_id": client_id,
        "n": n,
        "pi": pi,
        "delta": delta,
        "family": fingerprint,
        "atoms": list(atoms),
        "counts": [len(pairs) for pairs in clusters],
        "crc32": zlib.crc32(data),
        "data": data.decode("ascii"),
    }
    return json.dumps(header, separators=(",", ":"))


def uniform_weight(w, size):
    """The weight of ``size`` samples that each weigh ``w``, added one by one."""
    total = 0.0
    for _ in range(size):
        total += w
    return total


def reference_round(datasets, family, delta):
    """Client lines, then the server's per-atom merge, all with loops.

    Returns (wire lines, coreset entries, {atom: (means, weights, total)}).
    """
    fingerprint = hashlib.sha256(repr(family).encode("utf-8")).hexdigest()[:16]
    lines = []
    for ds in datasets:
        w = ds.pi / (ds.n + 1)
        scores = np.asarray(ds.scores, dtype=float)
        atoms = reference_atoms(ds.covariates, family) if ds.n and ds.pi else {}
        codes, clusters = [], []
        for atom, idx in atoms.items():
            means, _, sizes, _ = reference_clusters(
                scores[idx], np.full(len(idx), w), delta, total=len(idx) * w
            )
            codes.append("".join(str(b) for b in atom))
            clusters.append(list(zip(means.tolist(), sizes)))
        lines.append(
            reference_line(ds.client_id, ds.n, float(ds.pi), float(delta), fingerprint, codes, clusters)
        )
    by_atom = {}
    for line in lines:
        obj = json.loads(line)
        raw = base64.b64decode(obj["data"])
        w = obj["pi"] / (obj["n"] + 1)
        width = count_width(obj["n"])
        size = sum(obj["counts"])
        start = 0
        for code, count in zip(obj["atoms"], obj["counts"]):
            means, weights, total = [], [], 0.0
            for i in range(start, start + count):
                means.append(struct.unpack_from("<d", raw, 8 * i)[0])
                at = 8 * size + width * i
                weights.append(uniform_weight(w, int.from_bytes(raw[at : at + width], "little")))
                total += weights[-1]
            start += count
            atom = tuple(int(b) for b in code)
            by_atom.setdefault(atom, []).append((np.array(means), np.array(weights), total))
    per_atom = {atom: reference_merge(parts, delta) for atom, parts in sorted(by_atom.items())}
    entries = [
        (atom, m, w)
        for atom, (means, weights, _) in per_atom.items()
        for m, w in zip(means, weights)
    ]
    return lines, entries, per_atom


def reference_ratio_test(solver, col, sgn, tmax):
    """``AugmentedQrSolver._ratio_test`` with numpy over the basis rows: the
    leaving row (-1 for a bound flip) and the length of the move."""
    dxB = -sgn * col
    loB, upB = solver._lo[solver._basis], solver._up[solver._basis]
    leave = -1
    neg = np.flatnonzero(dxB < -1e-11)
    if neg.size:
        ratios = np.maximum(solver._xB[neg] - loB[neg], 0.0) / -dxB[neg]
        k = int(np.argmin(ratios))
        if ratios[k] < tmax - 1e-13:
            tmax, leave = float(ratios[k]), int(neg[k])
    pos = np.flatnonzero(dxB > 1e-11)
    if pos.size:
        ratios = np.maximum(upB[pos] - solver._xB[pos], 0.0) / dxB[pos]
        k = int(np.argmin(ratios))
        if ratios[k] < tmax - 1e-13:
            tmax, leave = float(ratios[k]), int(pos[k])
    return leave, tmax


def artificial_basis_at_zero(n_cal, d):
    """The start with the d artificial columns basic and every column at 0."""
    columns = n_cal + 1 + d
    return SimplexBasis(np.arange(columns - d, columns), np.zeros(columns))


def reference_threshold_search(data, test_feature, alpha, tol=1e-6):
    """Bisection on the test score to ``tol`` over ``data.default_bracket()``
    from the artificial basis at 0; the bracket's upper end if the test dual
    stays below its bound there."""
    lo, hi = data.default_bracket()
    column_mass = data.features.T @ data.weights
    dead = tuple(int(g) for g in np.flatnonzero(column_mass <= 0.0))
    if dead:
        raise DegenerateGroupError(dead)
    n_cal, d = data.features.shape
    solver = AugmentedQrSolver(
        data.features,
        data.scores,
        data.weights,
        alpha,
        test_feature,
        data.test_weight,
        start_basis=artificial_basis_at_zero(n_cal, d),
    )
    bound = data.test_weight * (1.0 - alpha) - 1e-9
    if solver.solve_at(lo).eta_test >= bound:
        raise EmptySetError(f"test dual already at its bound at score {lo}")
    if solver.solve_at(hi).eta_test < bound:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if solver.solve_at(mid).eta_test < bound:
            lo = mid
        else:
            hi = mid
    return lo
