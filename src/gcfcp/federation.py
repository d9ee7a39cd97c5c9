"""Simulated one-shot client/server protocol.

Each client stratifies its local scores by atom, builds one digest per
non-empty atom with uniform per-sample weight pi_k / (n_k + 1), and sends one
wire line: a JSON object with the header fields

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
without scores sends the header with no atoms and empty data. Floats survive
the wire bit for bit.

The server decodes each line with one ``json.loads``, one base64 decode and
one ``np.frombuffer``, and raises ProtocolError on a malformed header, a
checksum, base64 or length mismatch, a non-finite value, a nonpositive
weight, means out of order within an atom, or an atom whose weights sum to
infinity. Across a round it raises ProtocolError on a repeated client, a
family fingerprint or delta other than the round's, mixture weights that do
not sum to 1, and a client whose cluster weights do not sum to
pi_k n_k / (n_k + 1). From the headers it takes the test weight
sum_k pi_k / (n_k + 1). It merges the digests per atom at the same
compression level by concatenating their arrays, and concatenates the merged
arrays into the coreset used by the quantile regression: one structured
array with one row per merged cluster. Serialization is exercised for real
so the byte accounting is honest, even though everything runs in-process.
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

from . import tdigest
from .groups import AtomKey, GroupFamily, enumerate_atoms
from .tdigest import Digest

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


@dataclass(frozen=True)
class ClientMessage:
    """One client's wire message: its header and one digest per atom."""

    client_id: int
    n: int
    pi: float
    delta: float
    family: str
    atoms: tuple[AtomKey, ...]
    digests: tuple[Digest, ...]


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
    """Raise ProtocolError unless the mixture weights pi_k sum to 1."""
    mixture = sum(pis)
    if abs(mixture - 1.0) > _WEIGHT_TOL:
        raise ProtocolError(f"mixture weights sum to {mixture!r}, expected 1")


def client_stratify(
    dataset: ClientDataset, family: GroupFamily
) -> dict[AtomKey, np.ndarray]:
    """Partition local scores by the membership pattern of their covariate."""
    atoms = enumerate_atoms(dataset.covariates, family)
    scores = np.asarray(dataset.scores, dtype=float)
    return {atom: scores[idx] for atom, idx in atoms.items()}


def client_build_messages(
    dataset: ClientDataset, family: GroupFamily, delta: float
) -> ClientMessage:
    """The client's one message: a digest of the pre-scaled weights per
    non-empty atom, in atom order (none for a client without scores)."""
    w = dataset.sample_weight
    strata = client_stratify(dataset, family) if dataset.n else {}
    digests = [
        tdigest.build_digest_arrays(scores, np.full(scores.size, w), delta, total=scores.size * w)
        for scores in strata.values()
    ]
    return ClientMessage(
        client_id=int(dataset.client_id),
        n=dataset.n,
        pi=float(dataset.pi),
        delta=float(delta),
        family=_family_fingerprint(family),
        atoms=tuple(strata),
        digests=tuple(digests),
    )


def message_to_json(message: ClientMessage) -> str:
    """The message's one wire line; see the module docstring."""
    arrays = [d.means() for d in message.digests] + [d.weights() for d in message.digests]
    payload = np.concatenate(arrays).astype("<f8", copy=False) if arrays else np.empty(0)
    data = base64.b64encode(payload.tobytes())
    header = {
        "client_id": message.client_id,
        "n": message.n,
        "pi": message.pi,
        "delta": message.delta,
        "family": message.family,
        "atoms": ["".join(map(str, atom)) for atom in message.atoms],
        "counts": [len(d) for d in message.digests],
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
    if not (_is_real(pi) and 0.0 <= pi <= 1.0 and _is_real(delta) and delta > 0.0):
        raise ProtocolError(
            f"client {client_id}: pi {pi!r} outside [0, 1], or delta {delta!r} not positive"
        )
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
    digests = []
    with np.errstate(over="ignore"):
        for start, end in zip([0, *ends[:-1].tolist()], ends.tolist()):
            atom_weights = weights[start:end]
            total = atom_weights.cumsum()[-1]
            if not math.isfinite(total):
                raise ProtocolError(f"client {client_id}: cluster weights sum to infinity")
            digests.append(Digest(means[start:end], atom_weights, float(delta), total))
    return ClientMessage(
        client_id=client_id,
        n=n,
        pi=float(pi),
        delta=float(delta),
        family=obj["family"],
        atoms=tuple(tuple(map(int, code)) for code in codes),
        digests=tuple(digests),
    )


def server_assemble(
    messages: Sequence[ClientMessage], family: GroupFamily, delta: float
) -> tuple[Coreset, float]:
    """The coreset and the test weight of a round, from its messages alone.

    Checks the round (see the module docstring), merges per-atom digests
    across clients and concatenates them into the coreset. The test weight
    is sum_k pi_k / (n_k + 1) over the headers, in message order.
    """
    if not messages:
        raise ProtocolError("server received no messages")
    fingerprint, d = _family_fingerprint(family), len(family)
    by_atom: dict[AtomKey, list[Digest]] = {}
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
                f"client {m.client_id} sent delta {m.delta!r}, round uses {delta!r}"
            )
        if any(len(atom) != d for atom in m.atoms):
            raise ProtocolError(f"client {m.client_id} sent atoms of another length than {d}")
        mass = sum(digest.total_weight for digest in m.digests)
        expected = m.pi * m.n / (m.n + 1)
        if not abs(mass - expected) <= _WEIGHT_TOL * expected:
            raise ProtocolError(
                f"client {m.client_id} sent weight {mass!r}, pi n / (n + 1) is {expected!r}"
            )
        for atom, digest in zip(m.atoms, m.digests):
            by_atom.setdefault(atom, []).append(digest)
    check_mixture(m.pi for m in messages)
    if not by_atom:
        raise ProtocolError("no client sent any scores")
    per_atom = {
        atom: tdigest.merge(digests, delta)
        for atom, digests in sorted(by_atom.items())
    }
    sizes = [len(digest) for digest in per_atom.values()]
    dtype = np.dtype([("atom", np.int8, (d,)), ("mean", float), ("weight", float)])
    entries = np.empty(sum(sizes), dtype=dtype)
    entries["atom"] = np.repeat(np.array(list(per_atom), dtype=np.int8), sizes, axis=0)
    entries["mean"] = np.concatenate([digest.means() for digest in per_atom.values()])
    entries["weight"] = np.concatenate([digest.weights() for digest in per_atom.values()])
    entries.flags.writeable = False
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
    coreset, test_weight = server_assemble(received, family, delta)
    return FederationRound(
        coreset=coreset,
        messages=received,
        wire_bytes=sum(len(line.encode("utf-8")) for line in lines),
        test_weight=test_weight,
    )
