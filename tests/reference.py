"""References the library's faster paths must reproduce.

The per-group membership test of one point, and the per-row and per-sample
formulations of atom stratification, digest construction, the wire codec and
server assembly: the library runs vectorized versions, and the tests compare
the two bit for bit, except a cluster's mean and weight. The reference sums
those exactly, as fractions rounded once, and the tests hold the library's
sums within the bound ``reference_clusters`` states.

The solver's ratio test as array operations over the basis rows: the
library runs it as a loop in Python floats, and the tests compare the two
bit for bit.

The solver's first start with every column at 0 and the artificial columns
basic, and the bisection on the test score: the library starts from a
per-atom quantile crash and walks the breakpoints of the test score instead,
and the tests compare the two within stated tolerances. ``ArtificialStart``
replaces the crash by that start, or by any other point a test gives it.

The crash that sorted the rows itself, by atom from a stable sort by
descending score: the library's crash reads the rows in the calibration
layout instead, and the tests compare the two bit for bit on laid-out rows.

The threshold search solved one below the lowest calibration score before
it walks up the breakpoints: the library starts the walk at the
calibration-only fit instead, and the tests hold it within a few ulp.

Oracles the tests measure the library against: the arcsine scale function,
a digest's step CDF, quantile and maximum cluster mass, the pinball loss,
and the dataset and score CSVs read one row at a time by the csv module and
Python's ``int`` and ``float``, which the library reads with numpy's C
parser.
"""

import base64
import hashlib
import json
import math
import struct
import zlib
from fractions import Fraction

import numpy as np

from gcfcp.conformal import DegenerateGroupError, EmptySetError
from gcfcp.datagen import IngestError, csv_rows
from gcfcp.federation import client_datasets
from gcfcp.groups import CoveringError, Interval, membership_matrix, sort_atoms
from gcfcp.pinball import AugmentedQrSolver
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


def dyadic_sum(ratios):
    """The exact sum, as a Fraction, of the fractions p / r given as integer
    pairs (p, r) whose denominators r are powers of two, as floats' are."""
    ratios = list(ratios)
    den = max(r for _, r in ratios)
    return Fraction(sum(p * (den // r) for p, r in ratios), den)


def reference_clusters(values, weights, delta):
    """Greedy pass one sample at a time over the scale positions of the
    running weight divided by its last entry, with each cluster's mean and
    weight, and the total, summed exactly as fractions and rounded once.

    Returns (means, weights, sizes, reach, total): ``sizes`` holds each
    cluster's number of samples and ``reach`` max(|first|, |last|) of its
    value-sorted samples, which bounds |v| over the cluster.

    The library's mean of a cluster of weight W lies within 8 eps * reach of
    it, and its weight within 8 eps * W, eps being ``np.finfo(float).eps``;
    so does its total, one ``np.add.reduceat`` of all the w_i, within 8 eps of
    this one. Its weight is one ``np.add.reduceat`` of the w_i, and its mean sums
    fl(fl(w_i / W') v_i), W' the weight it summed: the relative error of W'
    enters the mean once, each share and product rounds once (eps * reach
    together), the mean's sum adds its own error, and the clamp to [first,
    last] only moves a mean towards the exact one. Numpy adds up to 16 terms
    in order per accumulator and pairs longer runs, so a sum of positive
    terms errs by at most about 5.7 eps at 128 terms, and by half an eps
    more per doubling; errors of either sign mostly cancel. Clusters of 64
    to 128 near-equal values come closest: over 120 000 of them, the worst
    mean was 6.8 eps * reach (one weighted mean in a hundred passed 4 eps)
    and the worst weight 4.7 eps * W. A running mean rounds once per sample
    in order, so its error grows with the cluster's length: it reaches 30
    eps for a mean and 14 eps for a weight on the tests' data, and 16 eps
    for a weight on those clusters.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    q = cum / cum[-1]
    r = (delta / (2.0 * math.pi)) * np.arcsin(2.0 * q - 1.0)
    starts = [0]
    r_left = -delta / 4.0
    for i in range(1, v.size):
        if r[i] - r_left > 1.0 + 1e-12:
            starts.append(i)
            r_left = r[i - 1]
    means, cl_weights, reach = [], [], []
    for a, b in zip(starts, starts[1:] + [v.size]):
        wr = [x.as_integer_ratio() for x in w[a:b].tolist()]
        vr = [x.as_integer_ratio() for x in v[a:b].tolist()]
        cl_w = dyadic_sum(wr)
        cl_wv = dyadic_sum((p * q, r * s) for (p, r), (q, s) in zip(wr, vr))
        means.append(float(cl_wv / cl_w))
        cl_weights.append(float(cl_w))
        reach.append(max(abs(v[a]), abs(v[b - 1])))
    sizes = np.diff(starts + [v.size]).tolist()
    total = float(dyadic_sum(x.as_integer_ratio() for x in w.tolist()))
    return np.array(means), np.array(cl_weights), sizes, np.array(reach), total


def reference_merge(digests, delta):
    """Pool the digests' clusters in order as weighted samples and rebuild
    at delta."""
    return reference_clusters(
        np.concatenate([d.means() for d in digests]),
        np.concatenate([d.weights() for d in digests]),
        delta,
    )


def reference_read_dataset(path, pi=()):
    """The client datasets of a dataset CSV, read row by row by the csv
    module and Python's ``int`` and ``float``; an error names its row's
    number in the file (header = 1)."""
    ids, xs, scores = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_rows(fh)
        header = next(reader, None)
        if header != ["client_id", "x", "y", "score"]:
            raise IngestError(f"bad dataset header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise IngestError(f"row {lineno}: expected 4 fields")
            try:
                cid, x, _, score = int(row[0]), float(row[1]), float(row[2]), float(row[3])
            except ValueError as exc:
                raise IngestError(f"row {lineno}: {exc}") from exc
            ids.append(cid)
            xs.append(x)
            scores.append(score)
    if not ids:
        raise IngestError("dataset has no rows")
    return client_datasets(ids, xs, scores, pi)


def reference_ingest_scores(path):
    """The rows of a score CSV as (client_id, predicted_label, true_label,
    scores) tuples, read row by row by the csv module and Python's ``int``
    and ``float``; an error names its row's number in the file (header = 1),
    and the first rule a row breaks, its labels checked before its scores."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("empty file") from None
        fixed = ["client_id", "predicted_label", "true_label"]
        if header[: len(fixed)] != fixed:
            raise IngestError(f"bad header {header!r}")
        score_cols = header[len(fixed) :]
        if score_cols != [f"score_{i}" for i in range(len(score_cols))] or not score_cols:
            raise IngestError(f"bad score columns {score_cols!r}")
        n_labels = len(score_cols)
        records = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestError(f"row {lineno}: expected {len(header)} fields")
            try:
                client_id = int(row[0])
                predicted = int(row[1])
                true_label = int(row[2])
                scores = tuple(float(v) for v in row[3:])
            except ValueError as exc:
                raise IngestError(f"row {lineno}: {exc}") from exc
            if not 0 <= true_label < n_labels or not 0 <= predicted < n_labels:
                raise IngestError(f"row {lineno}: label out of range")
            for s in scores:
                if not -1e-6 <= s <= 1.0 + 1e-6:
                    raise IngestError(f"row {lineno}: score {s} outside [0, 1]")
            records.append((client_id, predicted, true_label, scores))
    return records


def count_bits(sizes):
    """Bits per sample count on the wire: the fewest that hold every count,
    0 without counts."""
    bits = 0
    while any(c >> bits for c in sizes):
        bits += 1
    return bits


def reference_fingerprint(family):
    """The wire's family fingerprint as README defines it: the first 16 hex
    digits of sha256 over the family's repr, written out here group by
    group: interval bounds as float reprs (-0.0 as 0.0) and ends as
    booleans, label sets with their integer labels ascending."""
    texts = []
    for g in family.groups:
        if isinstance(g, Interval):
            lo, hi = float(g.lo) + 0.0, float(g.hi) + 0.0
            texts.append(f"Interval(lo={lo!r}, hi={hi!r}, lo_closed={bool(g.lo_closed)}, hi_closed={bool(g.hi_closed)})")
        else:
            texts.append("LabelSet(labels=frozenset({" + ", ".join(str(y) for y in sorted(map(int, g.labels))) + "}))")
    text = "GroupFamily(groups=(" + ", ".join(texts) + ("," if len(texts) == 1 else "") + "))"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_line(client_id, n, pi, delta, fingerprint, atoms, clusters, bits=None):
    """One client wire line, packed value by value.

    ``atoms`` are code strings and ``clusters`` one list of (mean, sample
    count) pairs per atom; any values, valid or not, are packed as given,
    each count cut to its low ``bits`` bits (by default the ``count_bits``
    of the counts) and put at bit i * bits of one integer, count i of the
    line's counts.
    """
    means = [m for pairs in clusters for m, _ in pairs]
    sizes = [c for pairs in clusters for _, c in pairs]
    bits = count_bits(sizes) if bits is None else bits
    stream = 0
    for i, c in enumerate(sizes):
        stream |= (c & (2**bits - 1)) << (i * bits)
    raw = b"".join(struct.pack("<d", v) for v in means)
    raw += stream.to_bytes(-(-len(sizes) * bits // 8), "little")
    data = base64.b64encode(raw)
    header = {
        "client_id": client_id,
        "n": n,
        "pi": pi,
        "delta": delta,
        "family": fingerprint,
        "atoms": list(atoms),
        "counts": [len(pairs) for pairs in clusters],
        "bits": bits,
        "crc32": "%08x" % zlib.crc32(data),
        "data": data.decode("ascii"),
    }
    return json.dumps(header, separators=(",", ":"))


def reference_round(datasets, family, delta, lines):
    """Each client's clusters, then the server's per-atom merge of the wire
    ``lines`` read value by value, all with loops.

    A client sketches each atom's scores at unit weight, so quantile
    positions j / L. The merge weighs a cluster of c samples of client k as
    the exact product c * pi_k / (n_k + 1), rounded once, and pools each
    atom's clusters in message order, so the server's edges are the loop's
    on the means the lines carry. Returns (lines, clients, per_atom): the
    lines packing the means each of ``lines`` carries with the loop's atoms,
    counts and sample counts; per client, the ``reference_clusters`` of each
    atom's scores in atom order; and per atom, ascending, the
    ``reference_clusters`` of the merge.
    """
    fingerprint = reference_fingerprint(family)
    ref_lines, clients, by_atom = [], [], {}
    for ds, line in zip(datasets, lines):
        scores = np.asarray(ds.scores, dtype=float)
        atoms = reference_atoms(ds.covariates, family) if ds.n and ds.pi else {}
        refs = [reference_clusters(scores[idx], np.ones(len(idx)), delta) for idx in atoms.values()]
        clients.append(refs)

        obj = json.loads(line)
        raw = base64.b64decode(obj["data"])
        size, bits = sum(obj["counts"]), obj["bits"]
        means = [struct.unpack_from("<d", raw, 8 * i)[0] for i in range(size)]
        stream = int.from_bytes(raw[8 * size :], "little")
        sizes = [stream >> (i * bits) & (2**bits - 1) for i in range(size)]
        packed, start = [], 0
        for ref in refs:
            packed.append(list(zip(means[start : start + len(ref[2])], ref[2])))
            start += len(ref[2])
        codes = ["".join(str(b) for b in atom) for atom in atoms]
        ref_lines.append(reference_line(ds.client_id, ds.n, float(ds.pi), float(delta), fingerprint, codes, packed))

        start, w = 0, Fraction(obj["pi"] / (obj["n"] + 1))
        for code, count in zip(obj["atoms"], obj["counts"]):
            weights = [float(Fraction(c) * w) for c in sizes[start : start + count]]
            by_atom.setdefault(tuple(int(b) for b in code), []).append((means[start : start + count], weights))
            start += count
    per_atom = {}
    for atom, parts in sorted(by_atom.items()):
        weights = [x for _, ws in parts for x in ws]
        per_atom[atom] = reference_clusters([m for ms, _ in parts for m in ms], weights, delta)
    return ref_lines, clients, per_atom


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


class ArtificialStart(AugmentedQrSolver):
    """``AugmentedQrSolver`` whose first solve starts from ``point`` (every
    column at 0 when none is given) in place of the per-atom crash, with the
    artificial columns basic. A value of ``point`` on a bound sets that
    column's direction; the crossover moves every one inside its box."""

    def __init__(self, *args, point=None):
        self._point = point
        super().__init__(*args)

    def _crash(self, features):
        return np.zeros(len(self._c)) if self._point is None else self._point.copy()


def reference_crash(solver, features):
    """``AugmentedQrSolver._crash`` for rows in any order: the atoms found by
    ``sort_atoms`` from a stable sort by descending score, each at its
    weighted (1 - alpha)-quantile split."""
    order, starts = sort_atoms(features.T != 0.0, np.argsort(-solver._s[:-1], kind="stable"))
    w = solver._w[order]
    sizes = np.diff(np.append(starts, len(order)))
    cum = np.cumsum(w)
    through = cum - np.repeat((cum - w)[starts], sizes)
    target = solver.alpha * np.repeat(through[starts + sizes - 1], sizes)
    x = np.zeros(len(solver._c))
    x[order] = np.clip(target - (through - w) - solver.alpha * w, solver._lo[order], solver._up[order])
    return x


def _check_column_mass(data):
    column_mass = data.features.T @ data.weights
    dead = tuple(int(g) for g in np.flatnonzero(column_mass <= 0.0))
    if dead:
        raise DegenerateGroupError(dead)


def reference_walk_from_lo(data, test_feature, alpha):
    """``threshold_search`` as a solve one below the lowest score, from the
    crash, then the breakpoint walk up to S* and one verifying solve; +inf
    reads as ``default_bracket()[1]``. EmptySetError when the test dual is at
    its bound at that low end."""
    lo, hi = data.default_bracket()
    _check_column_mass(data)
    solver = AugmentedQrSolver(data.features, data.scores, data.weights, alpha, test_feature, data.test_weight)
    bound = data.test_weight * (1.0 - alpha) - 1e-9
    if solver.solve_at(lo).eta_test >= bound:
        raise EmptySetError(f"test dual already at its bound at score {lo}")
    s_star = solver.raise_test_score(bound)
    solver.solve_at(min(solver.test_score, s_star))
    return hi if s_star == math.inf else s_star


def reference_threshold_search(data, test_feature, alpha, tol=1e-6, widenings=16):
    """Bisection on the test score to ``tol`` from the artificial basis at 0
    (``ArtificialStart``).

    The bracket starts as ``data.default_bracket()``; while the test dual
    stays below its bound at the upper end, the bracket moves up to twice
    its width from the lower end, at most ``widenings`` times. If the dual
    never reaches its bound, this reads as S* = +inf: the library's
    ``default_bracket()[1]``."""
    lo, hi = data.default_bracket()
    _check_column_mass(data)
    solver = ArtificialStart(data.features, data.scores, data.weights, alpha, test_feature, data.test_weight)
    bound = data.test_weight * (1.0 - alpha) - 1e-9
    if solver.solve_at(lo).eta_test >= bound:
        raise EmptySetError(f"test dual already at its bound at score {lo}")
    width = hi - lo
    for _ in range(widenings):
        if solver.solve_at(hi).eta_test >= bound:
            break
        lo, hi, width = hi, hi + width, 2.0 * width
    else:
        return data.default_bracket()[1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if solver.solve_at(mid).eta_test < bound:
            lo = mid
        else:
            hi = mid
    return lo
