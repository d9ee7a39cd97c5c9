"""Loop references the array-native federation path must reproduce exactly.

These are the per-row and per-sample formulations of atom stratification,
digest construction, the wire codec and server assembly. The library runs
vectorized versions; the tests compare the two bit for bit.
"""

import json
import math

import numpy as np

from gcfcp.groups import membership_matrix


def reference_atoms(covariates, family):
    """Per-row dict grouping: {pattern tuple: [row indices]}, keys sorted."""
    mat = membership_matrix(covariates, family)
    atoms = {}
    for i, row in enumerate(mat):
        atoms.setdefault(tuple(int(b) for b in row), []).append(i)
    return dict(sorted(atoms.items()))


def reference_build(values, weights, delta, total=None):
    """Greedy pass one sample at a time: returns (means, weights, total)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if total is None:
        total = float(np.sum(weights))
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    q = np.minimum(np.cumsum(w) / total, 1.0)
    r = (delta / (2.0 * math.pi)) * np.arcsin(2.0 * q - 1.0)
    means, cl_weights = [], []
    r_left = -delta / 4.0
    cur_mean = v[0]
    cur_w = w[0]
    for i in range(1, v.size):
        if r[i] - r_left <= 1.0 + 1e-12:
            cur_w += w[i]
            cur_mean += (w[i] / cur_w) * (v[i] - cur_mean)
        else:
            means.append(cur_mean)
            cl_weights.append(cur_w)
            r_left = r[i - 1]
            cur_mean = v[i]
            cur_w = w[i]
    means.append(cur_mean)
    cl_weights.append(cur_w)
    return np.array(means), np.array(cl_weights), total


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


def reference_round(datasets, family, delta):
    """Client lines, then the server's per-atom merge, all with loops.

    Returns (wire lines, coreset entries, {atom: (means, weights, total)}).
    """
    lines = []
    for ds in datasets:
        if ds.n == 0:
            continue
        w = ds.pi / (ds.n + 1)
        scores = np.asarray(ds.scores, dtype=float)
        for atom, idx in reference_atoms(ds.covariates, family).items():
            means, weights, _ = reference_build(
                scores[idx], np.full(len(idx), w), delta, total=len(idx) * w
            )
            lines.append(
                json.dumps(
                    {
                        "client_id": ds.client_id,
                        "atom": "".join(str(b) for b in atom),
                        "compression": float(delta),
                        "clusters": [[m, cw] for m, cw in zip(means, weights)],
                    }
                )
            )
    by_atom = {}
    for line in lines:
        obj = json.loads(line)
        means, weights, total = [], [], 0.0
        for mean, weight in obj["clusters"]:
            means.append(float(mean))
            weights.append(float(weight))
            total += float(weight)
        atom = tuple(int(b) for b in obj["atom"])
        by_atom.setdefault(atom, []).append((np.array(means), np.array(weights), total))
    per_atom = {atom: reference_merge(parts, delta) for atom, parts in sorted(by_atom.items())}
    entries = [
        (atom, m, w)
        for atom, (means, weights, _) in per_atom.items()
        for m, w in zip(means, weights)
    ]
    return lines, entries, per_atom
