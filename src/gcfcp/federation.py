"""Simulated one-shot client/server protocol.

Each client sketches its local scores in one pass from integer counts, one
segment per non-empty atom, and sends one wire line. It sketches each atom's
scores in value order, as ``enumerate_atoms`` gives them, with -0.0 read as
0.0: every score weighs the same, so the line depends on the client's rows
as a multiset, not on their order. The line is a JSON object
with the header fields

    client_id  int     the client's id, unique within the round
    n          int     n_k, the number of the client's scores
    pi         float   pi_k, the client's mixture weight
    delta      float   the compression every digest was built at
    family     str     the first 16 hex digits of sha256 over repr(family),
                       equal for families that compare equal (groups.py)
    atoms      [str]   the atom codes ("1100": the membership bits), ascending
    counts     [int]   the number of clusters of each atom, in atom order
    bits       int     the bit length of the largest sample count, 0 without
                       clusters
    crc32      str     zlib.crc32 of the ASCII text of ``data``, 8 lowercase
                       hex digits

and one payload field, ``data``: the base64 of all the client's cluster
means as little-endian float64 (atom after atom, ascending within an atom),
then each cluster's sample count in the same order in ``bits`` bits, count i
at bit i * bits, least significant bit first, the last byte's unused high
bits 0: 8 * sum(counts) + ceil(sum(counts) * bits / 8) bytes. A line's
length depends only on its header and the shape of its sketch, not on the
bits of its means. Every score of a client weighs w = pi_k / (n_k + 1), so a
cluster of L scores weighs L * w, rounded once. A client without scores, or
with pi_k = 0, sends the header with no atoms, bits 0 and empty data. Means
survive the wire bit for bit.

The client's sketch raises DigestError on a compression that is not finite
and at least 2. ``message_from_json`` checks each line on its own and raises
ProtocolError on a malformed header (a repeated field, a delta that is not
finite and at least 2, an n of 2**53 or more, and a bits outside [0, 53] or
0 exactly when there are clusters, among them), a checksum, base64 or length
mismatch, padding bits that are not 0, a non-finite mean, means out of order
within an atom, a count of 0, counts that do not sum to n_k, a largest count
of fewer bits than ``bits`` (so each message has one line), atoms with a
sample weight pi_k / (n_k + 1) of 0, or a cluster of more than one sample that
holds more than sin(pi/delta) of its atom's samples (the sketch's mass
bound, within 1e-9 relative; ``_check_mass_bound`` derives it).
``server_assemble`` checks the round: it raises ProtocolError on a repeated
client, a family fingerprint or atom length other than the round's, a delta
other than the first message's, mixture weights that do not sum to 1, and a
client whose cluster weights (``cluster_weights``) do not sum to
pi_k n_k / (n_k + 1). It takes delta from the first header and
the test weight sum_k pi_k / (n_k + 1) from all of them, and merges every
atom across clients in one more sketch pass at that delta, whose clusters are
the rows of the coreset used by the quantile regression.
That pass sorts the received clusters stably by (atom, mean), which tied means
from different clients, carrying different weights, leave in message order:
a radix sort of the atom ids, then per atom a stable sort of the means, which
merges the clients' runs, each already in mean order.
Serialization is exercised for real so the byte accounting is honest, even
though everything runs in-process.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import re
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import AtomKey, GroupFamily, decode_json, enumerate_atoms
from .tdigest import Digest, _build_segments, _count_segments

_WEIGHT_TOL = 1e-9
_MASS_TOL = 1e-9  # relative slack of the mass bound over sin(pi/delta) * L
_MAX_N = 2**53  # every n below it, and every count, is exact as a float
_MAX_BITS = 53  # the counts sum to n < 2**53, so each fits in 53 bits
_POWERS = 1 << np.arange(_MAX_BITS, dtype=np.int64)  # the weight of each bit of a count
_FIELDS = ("client_id", "n", "pi", "delta", "family", "atoms", "counts", "bits", "crc32", "data")
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
    """One client's wire line as fields; ``means`` and ``sizes`` (each
    cluster's sample count, int64) hold ``data``."""

    client_id: int
    n: int
    pi: float
    delta: float
    family: str
    atoms: tuple[AtomKey, ...]
    counts: tuple[int, ...]
    means: np.ndarray
    sizes: np.ndarray


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


@functools.lru_cache
def _family_fingerprint(family: GroupFamily) -> str:
    """First 16 hex digits of sha256 over ``repr(family)``, which is equal
    for families that compare equal."""
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
    """The client's one message: one counting sketch pass (``_count_segments``)
    with one segment per non-empty atom (none without scores or without
    mixture weight), so each cluster's weight is its sample count."""
    atoms, counts, means, sizes = (), (), np.empty(0), np.empty(0, dtype=np.int64)
    if dataset.n and dataset.pi:
        values, bits, rows = enumerate_atoms(dataset.covariates, family, dataset.scores)
        values += 0.0  # -0.0 reads as 0.0, so the line does not depend on row order
        means, sizes, counts = _count_segments(values, delta, rows)
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
        sizes=sizes,
    )


def _pack_counts(sizes: np.ndarray, bits: int) -> bytes:
    """Each count in ``bits`` bits, count i at bit i * bits, least
    significant bit first; the last byte's unused high bits are 0."""
    octets = sizes.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.packbits(np.unpackbits(octets, axis=1, count=bits, bitorder="little"), bitorder="little").tobytes()


def _unpack_counts(packed: np.ndarray, size: int, bits: int) -> np.ndarray:
    """The ``size`` counts of ``bits`` bits each that ``_pack_counts`` wrote
    into the uint8 array ``packed``, as int64."""
    planes = np.unpackbits(packed, count=size * bits, bitorder="little").reshape(size, bits)
    return planes @ _POWERS[:bits]


def message_to_json(message: ClientMessage) -> str:
    """The message's one wire line; see the module docstring."""
    sizes = message.sizes
    bits = int(sizes.max()).bit_length() if sizes.size else 0
    data = base64.b64encode(message.means.astype("<f8", copy=False).tobytes() + _pack_counts(sizes, bits))
    header = {
        "client_id": message.client_id,
        "n": message.n,
        "pi": message.pi,
        "delta": message.delta,
        "family": message.family,
        "atoms": ["".join(map(str, atom)) for atom in message.atoms],
        "counts": list(message.counts),
        "bits": bits,
        "crc32": f"{zlib.crc32(data):08x}",
    }
    # data is the last field and base64 needs no JSON escaping, so this is
    # json.dumps of the whole object without escaping the payload
    head = json.dumps(header, separators=(",", ":"))
    return f'{head[:-1]},"data":"{data.decode("ascii")}"}}'


def _is_int(value) -> bool:
    return type(value) is int


def _is_real(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _check_mass_bound(client_id, sizes: np.ndarray, counts, ends: np.ndarray, delta: float) -> None:
    """Raise ProtocolError unless every cluster holds at most
    max(1, sin(pi/delta) * L * (1 + _MASS_TOL)) samples, L its atom's sample count.

    An honest client meets it. The k-th of an atom's L scores sits at
    quantile k/L, on the scale r(q) = delta/(2 pi) arcsin(2q - 1). A cluster
    of c > 1 samples after the j-th admits its last one only if
    r((j + c)/L) - r(j/L) <= ``tdigest._SPAN`` = 1 + 1e-12. Inverting,
    q(r + 1) - q(r) = sin(pi/delta) cos(2 pi (r + 1/2)/delta): one scale unit
    spans at most sin(pi/delta) of quantile, at the median. So c/L <=
    sin(pi/delta) up to _SPAN's 1e-12 and the rounding of arcsin, which
    _MASS_TOL covers; a cluster of one sample may exceed it on its own.
    """
    heads = ends - counts
    largest = np.maximum.reduceat(sizes, heads).tolist()
    atom_sizes = np.add.reduceat(sizes, heads).tolist()
    sin = math.sin(math.pi / delta)
    if any(c > 1 and c > sin * L * (1.0 + _MASS_TOL) for c, L in zip(largest, atom_sizes)):
        raise ProtocolError(
            f"client {client_id}: a cluster holds more than sin(pi/delta) of its atom's samples"
        )


def message_from_json(line: str) -> ClientMessage:
    """Parse one client line and check it on its own; see the module docstring."""
    try:
        obj = decode_json(line)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise ProtocolError(f"malformed client message: {exc}") from exc
    if not isinstance(obj, dict) or obj.keys() != set(_FIELDS):
        raise ProtocolError(f"a client message holds exactly the fields {', '.join(_FIELDS)}")
    client_id, n, pi, delta = obj["client_id"], obj["n"], obj["pi"], obj["delta"]
    codes, counts, data = obj["atoms"], obj["counts"], obj["data"]
    if not (_is_int(client_id) and _is_int(n) and 0 <= n < _MAX_N):
        raise ProtocolError(f"client id {client_id!r} and n {n!r} must be integers, 0 <= n < 2**53")
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
    size, bits = sum(counts), obj["bits"]
    if not (_is_int(bits) and 0 <= bits <= _MAX_BITS and (bits > 0) == (size > 0)):
        raise ProtocolError(
            f"client {client_id}: bits {bits!r} must be an integer in [1, {_MAX_BITS}] with clusters, 0 without"
        )
    if not (isinstance(data, str) and isinstance(obj["crc32"], str)):
        raise ProtocolError(f"client {client_id}: data and crc32 must be strings")
    try:
        text = data.encode("ascii")
        if f"{zlib.crc32(text):08x}" != obj["crc32"]:  # 8 lowercase hex digits
            raise ValueError("checksum mismatch")
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ProtocolError(f"client {client_id}: corrupt payload: {exc}") from exc
    length = 8 * size + (size * bits + 7) // 8
    if len(raw) != length:
        raise ProtocolError(f"client {client_id}: payload of {len(raw)} bytes, counts and bits need {length}")
    packed = np.frombuffer(raw, dtype=np.uint8, offset=8 * size)
    if size * bits % 8 and packed[-1] >> size * bits % 8:
        raise ProtocolError(f"client {client_id}: padding bits after the last count are not 0")

    means = np.frombuffer(raw, dtype="<f8", count=size)
    sizes = _unpack_counts(packed, size, bits)
    ends = np.cumsum(counts, dtype=np.int64)
    if not np.isfinite(means).all():
        raise ProtocolError(f"client {client_id}: means must be finite")
    down = means[1:] < means[:-1]
    down[ends[:-1] - 1] = False  # pairs that straddle two atoms
    if down.any():
        raise ProtocolError(f"client {client_id}: clusters not sorted by mean")
    if size and not pi / (n + 1) > 0.0:
        raise ProtocolError(f"client {client_id}: atoms with sample weight pi / (n + 1) = 0")
    if not sizes.all():
        raise ProtocolError(f"client {client_id}: a cluster of 0 samples")
    if size:
        # each count is below 2**bits, so an int64 sum of fewer than 2**(63 - bits) counts cannot wrap
        total = int(sizes.sum()) if size.bit_length() + bits <= 63 else sum(sizes.tolist())
        if total != n:
            raise ProtocolError(f"client {client_id}: sample counts do not sum to n = {n}")
        if int(sizes.max()).bit_length() != bits:  # one line per message
            raise ProtocolError(f"client {client_id}: the largest count needs fewer bits than {bits}")
        _check_mass_bound(client_id, sizes, counts, ends, delta)
    return ClientMessage(
        client_id=client_id,
        n=n,
        pi=float(pi),
        delta=float(delta),
        family=obj["family"],
        atoms=tuple(tuple(map(int, code)) for code in codes),
        counts=tuple(counts),
        means=means,
        sizes=sizes,
    )


def cluster_weights(messages: Sequence[ClientMessage]) -> list[np.ndarray]:
    """Each message's cluster weights: a cluster of L samples weighs
    L * pi_k / (n_k + 1), the exact product rounded once."""
    return [m.sizes * (m.pi / (m.n + 1)) for m in messages]


def server_assemble(messages: Sequence[ClientMessage], family: GroupFamily) -> tuple[Coreset, float]:
    """The coreset and the test weight of a round, from its messages alone.

    Checks the round (see the module docstring) and merges it in one sketch
    pass at the first message's delta over the ``cluster_weights``, one
    segment per atom, whose total is the sum of the atom's weights. The test
    weight is sum_k pi_k / (n_k + 1) over the headers, in message order.
    """
    if not messages:
        raise ProtocolError("server received no messages")
    fingerprint, d = _family_fingerprint(family), len(family)
    first, delta = messages[0].client_id, messages[0].delta
    senders: set[int] = set()
    client_weights = cluster_weights(messages)
    for m, w in zip(messages, client_weights):
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
        mass = float(np.sum(w))
        expected = m.pi * m.n / (m.n + 1)
        if not abs(mass - expected) <= _WEIGHT_TOL * expected:
            raise ProtocolError(
                f"client {m.client_id} sent weight {mass!r}, pi n / (n + 1) is {expected!r}"
            )
    check_mixture(m.pi for m in messages)
    atoms = sorted({atom for m in messages for atom in m.atoms})
    if not atoms:
        raise ProtocolError("no client sent any scores")
    segment = {atom: i for i, atom in enumerate(atoms)}
    ids = np.array([segment[a] for m in messages for a in m.atoms], dtype=np.min_scalar_type(len(atoms)))
    segments = np.repeat(ids, [c for m in messages for c in m.counts])
    sizes = np.bincount(segments, minlength=len(atoms))
    # stable (atom, mean) order: see the module docstring
    order = np.argsort(segments, kind="stable")
    values = np.concatenate([m.means for m in messages])
    by_atom = values[order]
    ends = np.cumsum(sizes).tolist()
    for a, b in zip([0, *ends], ends):
        order[a:b] = order[a:b][np.argsort(by_atom[a:b], kind="stable")]
    means, weights, counts, totals = _build_segments(values[order], np.concatenate(client_weights)[order], delta, sizes)
    entries = np.empty(means.size, dtype=[("atom", np.int8, (d,)), ("mean", float), ("weight", float)])
    entries["atom"] = np.repeat(np.array(atoms, dtype=np.int8), counts, axis=0)
    entries["mean"], entries["weight"] = means, weights
    entries.flags.writeable = False
    ends = np.cumsum(counts)[:-1]
    split = zip(atoms, np.split(means, ends), np.split(weights, ends), totals.tolist())
    per_atom = {atom: Digest(mu, wt, delta, total) for atom, mu, wt, total in split}
    test_weight = float(sum(m.pi / (m.n + 1) for m in messages))
    return Coreset(entries=entries, per_atom_digests=per_atom), test_weight


@dataclass(frozen=True)
class FederationRound:
    coreset: Coreset
    messages: tuple[ClientMessage, ...]  # as the server decoded them
    lines: tuple[str, ...]  # the wire lines the clients sent, one per client
    wire_bytes: int
    test_weight: float


def run_round(
    datasets: Sequence[ClientDataset], family: GroupFamily, delta: float
) -> FederationRound:
    """Full protocol round with explicit serialization at the client boundary."""
    lines = tuple(message_to_json(client_build_messages(ds, family, delta)) for ds in datasets)
    received = tuple(message_from_json(line) for line in lines)
    coreset, test_weight = server_assemble(received, family)
    return FederationRound(
        coreset=coreset,
        messages=received,
        lines=lines,
        wire_bytes=sum(len(line.encode("utf-8")) for line in lines),
        test_weight=test_weight,
    )
