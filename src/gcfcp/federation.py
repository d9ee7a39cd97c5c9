"""Simulated one-shot client/server protocol.

Clients stratify local scores by atom, build one digest per non-empty atom
with uniform per-sample weight pi_k / (n_k + 1), and ship each digest's sorted
(means, weights) arrays as one JSON line. The server parses each line once
into arrays, rejects inconsistent batches, merges digests per atom at the same
compression level by concatenating their arrays, and concatenates the merged
arrays into the coreset used by the quantile regression: one structured array
with one row per merged cluster. Serialization is exercised for real so the
byte accounting is honest, even though everything runs in-process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tdigest
from .groups import AtomKey, GroupFamily, enumerate_atoms
from .tdigest import Digest

_WEIGHT_TOL = 1e-9


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
class DigestMessage:
    client_id: int
    atom: AtomKey
    digest: Digest


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


def validate_mixture(datasets: Sequence[ClientDataset]) -> None:
    total = sum(d.pi for d in datasets)
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ProtocolError(f"mixture weights sum to {total!r}, expected 1")


def test_term_weight(datasets: Sequence[ClientDataset]) -> float:
    """Weight of the augmented test entry: sum_k pi_k / (n_k + 1)."""
    return float(sum(d.sample_weight for d in datasets))


def client_stratify(
    dataset: ClientDataset, family: GroupFamily
) -> dict[AtomKey, np.ndarray]:
    """Partition local scores by the membership pattern of their covariate."""
    atoms = enumerate_atoms(dataset.covariates, family)
    scores = np.asarray(dataset.scores, dtype=float)
    return {atom: scores[idx] for atom, idx in atoms.items()}


def client_build_messages(
    dataset: ClientDataset, family: GroupFamily, delta: float
) -> list[DigestMessage]:
    """One message per non-empty atom; digests carry the pre-scaled weights."""
    if dataset.n == 0:
        return []
    w = dataset.sample_weight
    messages = []
    for atom, scores in client_stratify(dataset, family).items():
        digest = tdigest.build_digest_arrays(
            scores, np.full(scores.size, w), delta, total=scores.size * w
        )
        messages.append(
            DigestMessage(client_id=dataset.client_id, atom=atom, digest=digest)
        )
    return messages


def message_to_json(message: DigestMessage) -> str:
    return json.dumps(
        {
            "client_id": message.client_id,
            "atom": "".join(str(b) for b in message.atom),
            **tdigest.digest_fields(message.digest),
        }
    )


def message_from_json(payload: str) -> DigestMessage:
    try:
        obj = json.loads(payload)
        client_id = int(obj["client_id"])
        atom = tuple(int(b) for b in obj["atom"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed digest message: {exc}") from exc
    if any(b not in (0, 1) for b in atom) or not any(atom):
        raise ProtocolError(f"invalid atom pattern {obj.get('atom')!r}")
    digest = tdigest.digest_from_fields(obj.get("compression"), obj.get("clusters"))
    return DigestMessage(client_id=client_id, atom=atom, digest=digest)


def server_assemble(messages: Sequence[DigestMessage], delta: float) -> Coreset:
    """Merge per-atom digests across clients and concatenate them into the coreset.

    Rejects a batch whose atoms differ in length, whose digests were built at
    another compression than delta, or that repeats a (client, atom) pair.
    """
    if not messages:
        raise ProtocolError("server received no messages")
    dims = {len(m.atom) for m in messages}
    if len(dims) != 1:
        raise ProtocolError(f"inconsistent atom dimensions across messages: {dims}")
    by_atom: dict[AtomKey, list[Digest]] = {}
    senders: set[tuple[int, AtomKey]] = set()
    for m in messages:
        if m.digest.compression != delta:
            raise ProtocolError(
                f"client {m.client_id} sent compression {m.digest.compression!r}, "
                f"round uses {delta!r}"
            )
        if (m.client_id, m.atom) in senders:
            raise ProtocolError(f"duplicate message for client {m.client_id}, atom {m.atom}")
        senders.add((m.client_id, m.atom))
        by_atom.setdefault(m.atom, []).append(m.digest)
    per_atom = {
        atom: tdigest.merge(digests, delta)
        for atom, digests in sorted(by_atom.items())
    }
    sizes = [len(digest) for digest in per_atom.values()]
    dtype = np.dtype([("atom", np.int8, (dims.pop(),)), ("mean", float), ("weight", float)])
    entries = np.empty(sum(sizes), dtype=dtype)
    entries["atom"] = np.repeat(np.array(list(per_atom), dtype=np.int8), sizes, axis=0)
    entries["mean"] = np.concatenate([digest.means() for digest in per_atom.values()])
    entries["weight"] = np.concatenate([digest.weights() for digest in per_atom.values()])
    entries.flags.writeable = False
    return Coreset(entries=entries, per_atom_digests=per_atom)


@dataclass(frozen=True)
class FederationRound:
    coreset: Coreset
    messages: tuple[DigestMessage, ...]
    wire_bytes: int
    test_weight: float


def run_round(
    datasets: Sequence[ClientDataset], family: GroupFamily, delta: float
) -> FederationRound:
    """Full protocol round with explicit serialization at the client boundary."""
    validate_mixture(datasets)
    lines = []
    for dataset in datasets:
        for message in client_build_messages(dataset, family, delta):
            lines.append(message_to_json(message))
    received = tuple(message_from_json(line) for line in lines)
    coreset = server_assemble(received, delta)
    return FederationRound(
        coreset=coreset,
        messages=received,
        wire_bytes=sum(len(line.encode("utf-8")) for line in lines),
        test_weight=test_term_weight(datasets),
    )

