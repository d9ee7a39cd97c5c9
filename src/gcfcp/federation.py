"""Simulated one-shot client/server protocol.

Each client sketches its local scores in one pass, one segment per non-empty
atom, with uniform per-sample weight pi_k / (n_k + 1), and sends one wire
line. It sketches its scores in ``enumerate_atoms`` order, tied scores in any
order: every score weighs the same, so their order changes no bit of the
sketch. The line is a JSON object with the header fields

    client_id  int     the client's id, unique within the round
    n          int     n_k, the number of the client's scores
    pi         float   pi_k, the client's mixture weight
    delta      float   the compression every digest was built at
    family     str     the first 16 hex digits of sha256 over repr(family)
    atoms      [str]   the atom codes ("1100": the membership bits), ascending
    counts     [int]   the number of clusters of each atom, in atom order
    crc32      int     zlib.crc32 of the ASCII text of ``data``

and one payload field, ``data``: the base64 of one little-endian float64
array holding all the client's cluster means (atom after atom, ascending
within an atom) and then all its cluster weights, in the same order. A client
without scores, or with pi_k = 0, sends the header with no atoms and empty
data. Floats survive the wire bit for bit.

The client's sketch raises DigestError on a compression that is not finite
and at least 2. ``message_from_json`` checks each line on its own and raises
ProtocolError on a malformed header (a delta that is not finite and at least
2 among them), a checksum, base64 or length mismatch, a non-finite value, a
nonpositive weight, means out of order within an atom, or weights that sum
to infinity, in all or in one atom. ``server_assemble``
checks the round: it raises ProtocolError on a repeated client, a family
fingerprint or atom length other than the round's, a delta other than the
first message's, mixture weights that do not sum to 1, and a client whose
cluster weights do not sum to pi_k n_k / (n_k + 1). It takes delta from the
first header and the test weight sum_k pi_k / (n_k + 1) from all of them,
and merges every atom across clients in one more sketch pass at that delta,
whose clusters are the rows of the coreset used by the quantile regression.
That pass sorts the received clusters stably by (atom, mean): tied means from
different clients carry different weights, and keep message order.
Serialization is exercised for real so the byte accounting is honest, even
though everything runs in-process.
"""

from __future__ import annotations

import base64
import json
import math
import re
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import AtomKey, GroupFamily, enumerate_atoms
from .tdigest import Digest, _build_segments

_WEIGHT_TOL = 1e-9
_FIELDS = ("client_id", "n", "pi", "delta", "family", "atoms", "counts", "crc32", "data")
_ATOM_CODE = re.compile("[01]*1[01]*")


class ProtocolError(ValueError):
    """Inconsistent federation configuration or malformed message."""


@dataclass(frozen=True)
class ClientDataset:
    client_id: int
    covariates: np.ndarray
    scores: np.ndarray
    pi: float

    def __post_init__(self):
        if len(self.covariates) != len(self.scores):
            raise ProtocolError("covariates and scores must have equal length")
        if not np.all(np.isfinite(np.asarray(self.scores, dtype=float))):
            raise ProtocolError("scores must be finite")
        if not 0.0 <= self.pi <= 1.0:
            raise ProtocolError(f"mixture weight {self.pi!r} outside [0, 1]")

    @property
    def n(self) -> int:
        return len(self.scores)

    @property
    def sample_weight(self) -> float:
        return self.pi / (self.n + 1)


@dataclass(frozen=True, eq=False)
class ClientMessage:
    """One client's wire line as fields; ``means`` and ``weights`` hold ``data``."""

    client_id: int
    n: int
    pi: float
    delta: float
    family: str
    atoms: tuple[AtomKey, ...]
    counts: tuple[int, ...]
    means: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class Coreset:
    """Server-side union of per-atom merged digests.

    ``entries`` is a read-only structured array with one row per merged
    cluster and fields ``atom`` (int8, shape (d,): the membership bits),
    ``mean`` and ``weight``; atoms follow in lexicographic bit order.
    """

    entries: np.ndarray
    per_atom_digests: dict[AtomKey, Digest]

    @property
    def total_weight(self) -> float:
        """Sequential sum of the row weights, in row order."""
        return float(np.cumsum(self.entries["weight"])[-1])

    def __len__(self) -> int:
        return len(self.entries)


def _family_fingerprint(family: GroupFamily) -> str:
    """First 16 hex digits of sha256 over ``repr(family)``."""
    import hashlib  # loads OpenSSL, about 4 ms: paid by the first round, not by every import

    return hashlib.sha256(repr(family).encode("utf-8")).hexdigest()[:16]


def test_term_weight(datasets: Sequence[ClientDataset]) -> float:
    """Weight of the augmented test entry: sum_k pi_k / (n_k + 1)."""
    return float(sum(d.sample_weight for d in datasets))


def check_mixture(pis: Iterable[float]) -> None:
    """Raise ProtocolError unless the mixture weights pi_k sum to 1 (a NaN
    sum does not)."""
    mixture = sum(pis)
    if not abs(mixture - 1.0) <= _WEIGHT_TOL:
        raise ProtocolError(f"mixture weights sum to {mixture!r}, expected 1")


def client_datasets(client_ids, covariates, scores, pi: Sequence[float] = ()) -> list[ClientDataset]:
    """One ClientDataset per distinct client id, ids ascending, each holding
    its rows in input order; ``pi`` gives the mixture weights in id order,
    uniform when empty."""
    ids, inverse, counts = np.unique(np.asarray(client_ids), return_inverse=True, return_counts=True)
    pi = tuple(pi) or tuple(1.0 / ids.size for _ in range(ids.size))
    if len(pi) != ids.size:
        raise ProtocolError(f"{len(pi)} mixture weights for {ids.size} clients")
    covariates, scores = np.asarray(covariates), np.asarray(scores)
    rows = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    return [ClientDataset(cid, covariates[r], scores[r], p) for cid, r, p in zip(ids.tolist(), rows, pi)]


def client_build_messages(
    dataset: ClientDataset, family: GroupFamily, delta: float
) -> ClientMessage:
    """The client's one message: one sketch pass with weight pi_k / (n_k + 1)
    per score and one segment per non-empty atom (none without scores or
    without mixture weight)."""
    atoms, counts, means, weights = (), (), np.empty(0), np.empty(0)
    if dataset.n and dataset.pi:
        order, bits, sizes = enumerate_atoms(dataset.covariates, family, dataset.scores)
        w = dataset.sample_weight
        scores = np.asarray(dataset.scores, dtype=float)[order]
        means, weights, counts = _build_segments(scores, np.full(scores.size, w), delta, sizes, sizes * w)
        atoms, counts = tuple(map(tuple, bits.tolist())), tuple(counts.tolist())
    return ClientMessage(
        client_id=int(dataset.client_id),
        n=dataset.n,
        pi=float(dataset.pi),
        delta=float(delta),
        family=_family_fingerprint(family),
        atoms=atoms,
        counts=counts,
        means=means,
        weights=weights,
    )


def message_to_json(message: ClientMessage) -> str:
    """The message's one wire line; see the module docstring."""
    payload = np.concatenate((message.means, message.weights)).astype("<f8", copy=False)
    data = base64.b64encode(payload.tobytes())
    header = {
        "client_id": message.client_id,
        "n": message.n,
        "pi": message.pi,
        "delta": message.delta,
        "family": message.family,
        "atoms": ["".join(map(str, atom)) for atom in message.atoms],
        "counts": list(message.counts),
        "crc32": zlib.crc32(data),
        "data": data.decode("ascii"),
    }
    return json.dumps(header, separators=(",", ":"))


def _is_int(value) -> bool:
    return type(value) is int


def _is_real(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def message_from_json(line: str) -> ClientMessage:
    """Parse one client line and check it on its own; see the module docstring."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed client message: {exc}") from exc
    if not isinstance(obj, dict) or obj.keys() != set(_FIELDS):
        raise ProtocolError(f"a client message holds exactly the fields {', '.join(_FIELDS)}")
    client_id, n, pi, delta = obj["client_id"], obj["n"], obj["pi"], obj["delta"]
    codes, counts, data = obj["atoms"], obj["counts"], obj["data"]
    if not (_is_int(client_id) and _is_int(n) and n >= 0):
        raise ProtocolError(f"client id {client_id!r} and n {n!r} must be integers, n >= 0")
    if not (_is_real(pi) and 0.0 <= pi <= 1.0):
        raise ProtocolError(f"client {client_id}: pi {pi!r} outside [0, 1]")
    if not (_is_real(delta) and delta >= 2.0):
        raise ProtocolError(f"client {client_id}: delta {delta!r} not finite and at least 2")
    if not isinstance(obj["family"], str):
        raise ProtocolError(f"client {client_id}: family fingerprint must be a string")
    if not (
        isinstance(codes, list)
        and all(isinstance(c, str) and _ATOM_CODE.fullmatch(c) for c in codes)
        and len({len(c) for c in codes}) <= 1
        and all(a < b for a, b in zip(codes, codes[1:]))
    ):
        raise ProtocolError(f"client {client_id}: invalid atom codes {codes!r}")
    if not (
        isinstance(counts, list)
        and len(counts) == len(codes)
        and all(_is_int(c) and c > 0 for c in counts)
        and sum(counts) <= n
    ):
        raise ProtocolError(
            f"client {client_id}: invalid cluster counts {counts!r} for {len(codes)} atoms, n = {n}"
        )
    if not (isinstance(data, str) and _is_int(obj["crc32"])):
        raise ProtocolError(f"client {client_id}: data must be a string and crc32 an integer")
    try:
        text = data.encode("ascii")
        if zlib.crc32(text) != obj["crc32"]:
            raise ValueError("checksum mismatch")
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ProtocolError(f"client {client_id}: corrupt payload: {exc}") from exc
    size = sum(counts)
    if len(raw) != 16 * size:
        raise ProtocolError(
            f"client {client_id}: payload of {len(raw)} bytes, counts need {16 * size}"
        )

    values = np.frombuffer(raw, dtype="<f8")
    means, weights = values[:size], values[size:]
    ends = np.cumsum(counts, dtype=np.int64)
    if not np.isfinite(values).all():
        raise ProtocolError(f"client {client_id}: means and weights must be finite")
    if not np.all(weights > 0.0):
        raise ProtocolError(f"client {client_id}: nonpositive cluster weight")
    down = means[1:] < means[:-1]
    down[ends[:-1] - 1] = False  # pairs that straddle two atoms
    if down.any():
        raise ProtocolError(f"client {client_id}: clusters not sorted by mean")
    with np.errstate(over="ignore"):  # the client's sum is inf if any atom's is
        if size and not math.isfinite(weights.cumsum()[-1]):
            raise ProtocolError(f"client {client_id}: cluster weights sum to infinity")
    return ClientMessage(
        client_id=client_id,
        n=n,
        pi=float(pi),
        delta=float(delta),
        family=obj["family"],
        atoms=tuple(tuple(map(int, code)) for code in codes),
        counts=tuple(counts),
        means=means,
        weights=weights,
    )


def server_assemble(messages: Sequence[ClientMessage], family: GroupFamily) -> tuple[Coreset, float]:
    """The coreset and the test weight of a round, from its messages alone.

    Checks the round (see the module docstring) and merges it in one sketch
    pass at the first message's delta, one segment per atom whose total adds
    each client's sequential sum of the atom's weights in message order. The
    test weight is sum_k pi_k / (n_k + 1) over the headers, in message order.
    """
    if not messages:
        raise ProtocolError("server received no messages")
    fingerprint, d = _family_fingerprint(family), len(family)
    first, delta = messages[0].client_id, messages[0].delta
    totals: dict[AtomKey, float] = {}
    senders: set[int] = set()
    for m in messages:
        if m.client_id in senders:
            raise ProtocolError(f"duplicate message for client {m.client_id}")
        senders.add(m.client_id)
        if m.family != fingerprint:
            raise ProtocolError(
                f"client {m.client_id} sent family {m.family!r}, round uses {fingerprint!r}"
            )
        if m.delta != delta:
            raise ProtocolError(
                f"client {m.client_id} sent delta {m.delta!r}, client {first} sent {delta!r}"
            )
        if any(len(atom) != d for atom in m.atoms):
            raise ProtocolError(f"client {m.client_id} sent atoms of another length than {d}")
        ends = np.cumsum(m.counts, dtype=np.int64).tolist()
        sums = [float(m.weights[end - c : end].cumsum()[-1]) for c, end in zip(m.counts, ends)]
        mass = sum(sums)
        expected = m.pi * m.n / (m.n + 1)
        if not abs(mass - expected) <= _WEIGHT_TOL * expected:
            raise ProtocolError(
                f"client {m.client_id} sent weight {mass!r}, pi n / (n + 1) is {expected!r}"
            )
        for atom, atom_sum in zip(m.atoms, sums):
            totals[atom] = totals.get(atom, 0.0) + atom_sum
    check_mixture(m.pi for m in messages)
    if not totals:
        raise ProtocolError("no client sent any scores")
    atoms = sorted(totals)
    segment = {atom: i for i, atom in enumerate(atoms)}
    segments = np.repeat([segment[a] for m in messages for a in m.atoms], [c for m in messages for c in m.counts])
    values = np.concatenate([m.means for m in messages])
    order = np.lexsort((values, segments))  # stable: see the module docstring
    means, weights, counts = _build_segments(
        values[order],
        np.concatenate([m.weights for m in messages])[order],
        delta,
        np.bincount(segments, minlength=len(atoms)),
        [totals[atom] for atom in atoms],
    )
    entries = np.empty(means.size, dtype=[("atom", np.int8, (d,)), ("mean", float), ("weight", float)])
    entries["atom"] = np.repeat(np.array(atoms, dtype=np.int8), counts, axis=0)
    entries["mean"], entries["weight"] = means, weights
    entries.flags.writeable = False
    ends = np.cumsum(counts)[:-1]
    split = zip(atoms, np.split(means, ends), np.split(weights, ends))
    per_atom = {atom: Digest(mu, wt, delta, totals[atom]) for atom, mu, wt in split}
    test_weight = float(sum(m.pi / (m.n + 1) for m in messages))
    return Coreset(entries=entries, per_atom_digests=per_atom), test_weight


@dataclass(frozen=True)
class FederationRound:
    coreset: Coreset
    messages: tuple[ClientMessage, ...]
    wire_bytes: int
    test_weight: float


def run_round(
    datasets: Sequence[ClientDataset], family: GroupFamily, delta: float
) -> FederationRound:
    """Full protocol round with explicit serialization at the client boundary."""
    lines = [message_to_json(client_build_messages(ds, family, delta)) for ds in datasets]
    received = tuple(message_from_json(line) for line in lines)
    coreset, test_weight = server_assemble(received, family)
    return FederationRound(
        coreset=coreset,
        messages=received,
        wire_bytes=sum(len(line.encode("utf-8")) for line in lines),
        test_weight=test_weight,
    )
