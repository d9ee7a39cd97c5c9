import base64
import json
import math
import re
import string
import struct
import zlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcfcp.conformal import CalibrationData, threshold_search
from gcfcp.datagen import SynthConfig, sample_covariates
from gcfcp.federation import (
    _FIELDS,
    ClientDataset,
    ProtocolError,
    _family_fingerprint,
    client_build_messages,
    cluster_weights,
    message_from_json,
    message_to_json,
    run_round,
    server_assemble,
)
from gcfcp.federation import test_term_weight as term_weight
from gcfcp.groups import SINGLE_GROUP, GroupFamily, Interval, LabelSet, enumerate_atoms, family_from_json, interval_family
from gcfcp.tdigest import Digest, _build_segments, build_digest_arrays
from conftest import SUM_TOL, assert_close_to_reference, recorded_cluster_sizes
from reference import (
    approx_quantile,
    count_bits,
    reference_clusters,
    reference_fingerprint,
    reference_line,
    reference_round,
)

FOUR_INTERVALS = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])
FINGERPRINT = reference_fingerprint(FOUR_INTERVALS)
ATOM_CODES = ["0001", "0011", "0110", "1000", "1100"]


def crafted(clusters, **header):
    """A wire line of client 1 under FOUR_INTERVALS at delta 25, one
    (mean, sample count) list per atom, atoms in ``ATOM_CODES`` order; n is
    the sum of the counts unless given."""
    fields = dict(
        client_id=1, n=sum(c for pairs in clusters for _, c in pairs), pi=1.0, delta=25.0,
        fingerprint=FINGERPRINT, atoms=ATOM_CODES[: len(clusters)],
    )
    fields.update(header)
    return reference_line(clusters=clusters, **fields)


def edited(line, **fields):
    """The line with header fields replaced; the checksum follows new data."""
    obj = json.loads(line)
    obj.update(fields)
    if isinstance(fields.get("data"), str):
        obj["crc32"] = "%08x" % zlib.crc32(fields["data"].encode("utf-8"))
    return json.dumps(obj, separators=(",", ":"))


# the checksum of crafted([[(1.0, 1)]]): it has hex letters
ONE_CLUSTER_CRC = json.loads(crafted([[(1.0, 1)]]))["crc32"]


def weights_of(message):
    """The message's cluster weights, as the server rebuilds them."""
    return cluster_weights([message])[0]


def uniform_clients(rng, sizes, lo=0.0, hi=5.0):
    pi = 1.0 / len(sizes)
    return [
        ClientDataset(k + 1, rng.uniform(lo, hi, n), rng.random(n) * 2, pi)
        for k, n in enumerate(sizes)
    ]


class TestClientSide:
    def test_sample_weight_arithmetic(self):
        ds = ClientDataset(1, np.zeros(10), np.zeros(10), 0.5)
        assert ds.sample_weight == pytest.approx(10 * 0.5 / 11 / 10)
        assert ds.n * ds.sample_weight == pytest.approx(0.4545454545, abs=1e-9)

    def test_stratify_single_atom(self):
        ds = ClientDataset(1, np.full(7, 0.5), np.arange(7.0), 1.0)
        msg = client_build_messages(ds, FOUR_INTERVALS, 4.0)
        assert msg.atoms == ((1, 0, 0, 0),)
        assert msg.counts == (len(msg.means),) and len(msg.means) <= 7
        assert msg.sizes.sum() == 7
        assert math.fsum(weights_of(msg)) == pytest.approx(7 / 8, abs=1e-15)

    def test_client1_mass_concentrates_low_atoms(self):
        config = SynthConfig(seed=11)
        x = sample_covariates(config, 1, 1000)
        _, atoms, sizes = enumerate_atoms(x, FOUR_INTERVALS, np.zeros(1000))
        low = sum(
            size for atom, size in zip(atoms.tolist(), sizes.tolist()) if atom in ([1, 0, 0, 0], [1, 1, 0, 0])
        )
        assert low >= 0.95 * 1000

    def test_message_weights(self):
        rng = np.random.default_rng(0)
        ds = ClientDataset(3, rng.uniform(0, 5, 10), rng.random(10), 0.5)
        msg = client_build_messages(ds, FOUR_INTERVALS, 100.0)
        assert (msg.client_id, msg.n, msg.pi, msg.delta) == (3, 10, 0.5, 100.0)
        assert msg.family == FINGERPRINT
        _, atoms, sizes = enumerate_atoms(ds.covariates, FOUR_INTERVALS, ds.scores)
        assert list(msg.atoms) == sorted(map(tuple, atoms.tolist()))
        assert sum(msg.counts) == len(msg.means) == len(msg.sizes)
        weights = weights_of(msg)
        assert math.fsum(weights) == pytest.approx(10 * 0.5 / 11, abs=1e-12)
        ends = np.cumsum(msg.counts)
        for size, count, end in zip(sizes.tolist(), msg.counts, ends, strict=True):
            # each atom carries its own samples, 0.5 / 11 of weight per score
            assert msg.sizes[end - count : end].sum() == size
            assert math.fsum(weights[end - count : end]) == pytest.approx(size * 0.5 / 11, abs=1e-15)
            assert np.all(np.diff(msg.means[end - count : end]) >= 0)

    def test_empty_client_sends_header_only(self):
        ds = ClientDataset(1, np.array([]), np.array([]), 1.0)
        msg = client_build_messages(ds, FOUR_INTERVALS, 100.0)
        assert (msg.n, msg.atoms, msg.counts, msg.means.size, msg.sizes.size) == (0, (), (), 0, 0)
        obj = json.loads(message_to_json(msg))
        assert (obj["atoms"], obj["counts"], obj["data"]) == ([], [], "")

    def test_lossless_digest_matches_weighted_quantile(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        ds = ClientDataset(1, np.full(40, 2.5), scores, 1.0)
        msg = client_build_messages(ds, FOUR_INTERVALS, 2500.0)
        digest = Digest(msg.means, weights_of(msg), msg.delta, math.fsum(weights_of(msg)))
        assert msg.counts == (40,) and set(msg.sizes) == {1}  # every sample its own cluster
        s = np.sort(scores)
        for u in (0.1, 0.5, 0.9):
            exact = s[min(int(math.ceil(u * 40)) - 1, 39)]
            assert approx_quantile(digest, u) == pytest.approx(exact)


class TestWire:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        ds = ClientDataset(2, rng.uniform(0, 5, 200), rng.random(200), 1.0)
        msg = client_build_messages(ds, FOUR_INTERVALS, 50.0)
        line = message_to_json(msg)
        back = message_from_json(line)
        assert (back.client_id, back.n, back.pi, back.delta, back.family) == (
            msg.client_id, msg.n, msg.pi, msg.delta, msg.family
        )
        assert back.atoms == msg.atoms and len(back.atoms) > 1
        assert back.counts == msg.counts
        assert np.array_equal(back.means, msg.means)
        assert np.array_equal(back.sizes, msg.sizes)
        assert weights_of(back).tobytes() == weights_of(msg).tobytes()
        assert message_to_json(back) == line

    def test_wire_schema(self):
        ds = ClientDataset(7, np.array([0.5]), np.array([1.25]), 1.0)
        line = message_to_json(client_build_messages(ds, FOUR_INTERVALS, 25.0))
        data = base64.b64encode(struct.pack("<dB", 1.25, 1))
        assert line == json.dumps(
            {
                "client_id": 7,
                "n": 1,
                "pi": 1.0,
                "delta": 25.0,
                "family": FINGERPRINT,
                "atoms": ["1000"],
                "counts": [1],
                "bits": 1,
                "crc32": "%08x" % zlib.crc32(data),
                "data": data.decode("ascii"),
            },
            separators=(",", ":"),
        )

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "{}",
            "[]",
            crafted([[(1.0, 1)]]).replace('"n":1', '"n":1,"extra":0'),
            edited(crafted([[(1.0, 1)]]), client_id="1"),
            edited(crafted([[(1.0, 1)]]), client_id=True),
            edited(crafted([[(1.0, 1)]]), n=-1),
            edited(crafted([[(1.0, 1)]]), n=2**53),
            edited(crafted([[(1.0, 1)]]), n=10**400),
            edited(crafted([[(1.0, 1)]]), n=1.0),
            edited(crafted([[(1.0, 1)]]), pi=1.5),
            edited(crafted([[(1.0, 1)]]), pi=None),
            edited(crafted([[(1.0, 1)]]), delta=0.0),
            edited(crafted([[(1.0, 1)]]), family=16),
            crafted([[(1.0, 1)]], atoms=["0000"]),
            crafted([[(1.0, 1)]], atoms=["10x0"]),
            crafted([[(1.0, 1)]], atoms=[""]),
            crafted([[(1.0, 1)]], atoms=[1000]),
            crafted([[(1.0, 1)], [(1.0, 1)]], atoms=["1000", "0100"]),
            crafted([[(1.0, 1)], [(1.0, 1)]], atoms=["1000", "1000"]),
            crafted([[(1.0, 1)], [(1.0, 1)]], atoms=["100", "1100"]),
            crafted([[(1.0, 1), (2.0, 1)]], n=1),
            edited(crafted([[(1.0, 1)]]), counts=[0]),
            edited(crafted([[(1.0, 1)]]), counts=[2], n=2),
            edited(crafted([[(1.0, 1)]]), counts=[1, 1], n=2),
            edited(crafted([[(1.0, 1)]]), counts=1),
            edited(crafted([[(1.0, 1)]]), crc32=int(ONE_CLUSTER_CRC, 16)),
            edited(crafted([[(1.0, 1)]]), crc32=ONE_CLUSTER_CRC.upper()),
            edited(crafted([[(1.0, 1)]]), crc32="0" + ONE_CLUSTER_CRC),
            edited(crafted([[(1.0, 1)]]), crc32=ONE_CLUSTER_CRC[1:]),
            edited(crafted([[(1.0, 1)]]), crc32="00000000"),
            edited(crafted([[(1.0, 1)]]), crc32=None),
            crafted([[(1.0, 1)]], bits=54),
            crafted([[(1.0, 2), (2.0, 5), (3.0, 3)]], delta=2.0, bits=2),  # 5 does not fit
            crafted([[(1.0, 2), (2.0, 5), (3.0, 3)]], delta=2.0, bits=4),  # not the fewest
            crafted([[(1.0, 1)]], bits=0),
            crafted([], n=0, bits=1),
            edited(crafted([[(1.0, 1)]]), bits=1.0),
            edited(crafted([[(1.0, 1)]]), bits=True),
            edited(crafted([[(1.0, 1)]]), bits="1"),
            edited(crafted([[(1.0, 1)]]), bits=None),
            edited(crafted([[(1.0, 1)]]), bits=-1),
            edited(crafted([[(1.0, 1)]]), data="AAAA!AAAAAAAAAAAAAAAAAAAAAA="),
            edited(crafted([[(1.0, 1)]]), data="AAAAAAAAAAA="),
            edited(crafted([[(1.0, 1)]]), data="AAAAAAAAAAAAAAAAAAAAAAAAAAé="),
            edited(crafted([[(1.0, 1)]]), data=["AAAA"]),
        ],
    )
    def test_rejects_malformed(self, line):
        with pytest.raises(ProtocolError):
            message_from_json(line)

    def test_rejects_deep_nesting(self):
        # the JSON decoder runs out of stack, which is no error of the caller's
        with pytest.raises(ProtocolError, match="malformed client message"):
            message_from_json("[" * 100_000)

    def test_rejects_repeated_field(self):
        # json alone keeps a repeated field's last value: client 1 here
        line = crafted([[(1.0, 1)]])
        assert line.startswith('{"client_id":1,') and message_from_json(line).client_id == 1
        with pytest.raises(ProtocolError, match="malformed client message: repeated key 'client_id'"):
            message_from_json('{"client_id":7,' + line[1:])

    @pytest.mark.parametrize(
        "clusters",
        [
            [[(math.nan, 1)]],
            [[(1.0, 1), (-math.inf, 1)]],
            [[(1.0, 1)], [(math.inf, 1)]],
        ],
    )
    def test_rejects_non_finite_clusters(self, clusters):
        with pytest.raises(ProtocolError, match="finite"):
            message_from_json(crafted(clusters))

    @pytest.mark.parametrize("n", [2**53, 2**53 + 1, 2**64, 10**400])
    def test_rejects_n_of_2_to_the_53_or_more(self, n):
        # before, n = 10**400 decoded and server_assemble raised OverflowError
        # at pi * n / (n + 1)
        with pytest.raises(ProtocolError, match=r"2\*\*53"):
            message_from_json(crafted([[(1.0, 1)]], n=n))

    def test_rejects_counts_whose_sum_wraps(self):
        # 2 049 counts of at most 53 bits whose 64-bit sum wraps around to n
        n = 2**32
        sizes = [2**53 - 1] * 2048 + [n + 2048]
        assert sum(sizes) == 2**64 + n and count_bits(sizes) == 53
        with pytest.raises(ProtocolError, match="sum to n"):
            message_from_json(crafted([[(float(i), c) for i, c in enumerate(sizes)]], n=n))

    @pytest.mark.parametrize("sizes, top", [([1], 7), ([1, 1, 3], 7), ([2, 1, 1, 1, 3, 1, 1], 7), ([1, 1, 3], 6)])
    def test_rejects_a_set_padding_bit(self, sizes, top):
        line = crafted([[(float(i), c) for i, c in enumerate(sizes)]], delta=2.0)
        assert message_from_json(line).sizes.tolist() == sizes
        assert 0 < len(sizes) * count_bits(sizes) % 8 <= top
        raw = bytearray(base64.b64decode(json.loads(line)["data"]))
        raw[-1] |= 1 << top  # a bit of the last byte after the last count
        with pytest.raises(ProtocolError, match="padding"):
            message_from_json(edited(line, data=base64.b64encode(raw).decode("ascii")))

    def test_accepts_n_below_2_to_the_53(self):
        n = 2**53 - 1
        line = crafted([[(1.0, 1), (2.0, n - 1)]], n=n, delta=2.0)  # delta 2 bounds no cluster's mass
        back = message_from_json(line)
        assert back.sizes.tolist() == [1, n - 1] and message_to_json(back) == line

    @pytest.mark.parametrize("delta", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_delta(self, delta):
        line = crafted([[(1.0, 1)]]).replace('"delta":25.0', f'"delta":{delta}')
        with pytest.raises(ProtocolError, match="delta"):
            message_from_json(line)

    @pytest.mark.parametrize("delta", ["1.0", "1.9999999999999998", "0.5"])
    def test_rejects_delta_below_2(self, delta):
        line = crafted([[(1.0, 1)]]).replace('"delta":25.0', f'"delta":{delta}')
        with pytest.raises(ProtocolError, match="delta"):
            message_from_json(line)

    def test_rejects_unsorted_means_and_zero_counts(self):
        with pytest.raises(ProtocolError, match="sorted"):
            message_from_json(crafted([[(2.0, 1), (1.0, 1)]]))
        with pytest.raises(ProtocolError, match="0 samples"):
            message_from_json(crafted([[(1.0, 0), (2.0, 2)]]))
        # means restart at each atom
        assert message_from_json(crafted([[(2.0, 1)], [(1.0, 1)]]))

    def test_rejects_one_cluster_per_atom(self):
        # 500 scores over 5 atoms, each atom sent as one cluster, one of 117
        # samples: the weights are exact, the sketch's resolution is gone
        line = crafted([[(0.5, 117)], [(0.5, 100)], [(0.5, 100)], [(0.5, 100)], [(0.5, 83)]])
        with pytest.raises(ProtocolError, match=r"client 1: a cluster holds more than sin\(pi/delta\)"):
            message_from_json(line)

    @pytest.mark.parametrize(
        "delta, sizes, ok",
        [
            (250.0, [31] * 79 + [18], True),  # 31 <= sin(pi/250) * 2467 = 31.0004
            (250.0, [32] + [31] * 78 + [17], False),
            (25.0, [1], True),  # a single sample may hold more than sin(pi/25) of its atom
            (25.0, [1, 1], True),
            (25.0, [2], False),
            (2.0, [7], True),  # sin(pi/2) = 1 bounds nothing
        ],
    )
    def test_mass_bound_edge(self, delta, sizes, ok):
        line = crafted([[(float(i), c) for i, c in enumerate(sizes)]], delta=delta)
        if ok:
            assert message_from_json(line).sizes.tolist() == sizes
        else:
            with pytest.raises(ProtocolError, match="sin"):
                message_from_json(line)

    def test_wire_bytes(self):
        rng = np.random.default_rng(3)
        ds = ClientDataset(1, rng.uniform(0, 5, 3000), rng.random(3000), 1.0)
        small = run_round([ds], FOUR_INTERVALS, 125.0).wire_bytes
        big = run_round([ds], FOUR_INTERVALS, 250.0).wire_bytes
        assert 1.5 <= big / small <= 2.5

    def test_identical_clients_scale_linearly(self):
        rng = np.random.default_rng(4)
        x, s = rng.uniform(0, 5, 500), rng.random(500)
        one = run_round([ClientDataset(1, x, s, 1.0)], FOUR_INTERVALS, 100.0).wire_bytes
        many = sum(
            run_round([ClientDataset(k, x, s, 1.0)], FOUR_INTERVALS, 100.0).wire_bytes
            for k in range(1, 6)
        )
        assert many == pytest.approx(5 * one, rel=0.05)


def random_round(seed, sizes, delta, one_group):
    """Clients of the given sizes under a Dirichlet mixture; one may be empty."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(len(sizes)))
    datasets = [
        ClientDataset(k + 1, rng.uniform(0, 5, n), rng.exponential(size=n), float(p))
        for k, (n, p) in enumerate(zip(sizes, pi))
    ]
    return datasets, SINGLE_GROUP if one_group else FOUR_INTERVALS, delta


ROUNDS = st.builds(
    random_round,
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(0, 400), min_size=1, max_size=5).filter(any),
    delta=st.sampled_from([25.0, 100.0, 250.0]),
    one_group=st.booleans(),
)
CLIENT_LINES = st.builds(
    lambda seed, n, delta: message_to_json(
        client_build_messages(random_round(seed, [n], delta, False)[0][0], FOUR_INTERVALS, delta)
    ),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    delta=st.sampled_from([25.0, 250.0]),
)


# n on both sides of each upper end of the byte-wide counts of the earlier
# wire format: 1, 2, 4 and 8 bytes
WIDTH_EDGES = (255, 256, 65_535, 65_536, 2**32 - 1, 2**32)


def old_width(n):
    """Bytes per sample count in the earlier wire format: the smallest of 1,
    2, 4 and 8 that holds n."""
    return 1 if n < 2**8 else 2 if n < 2**16 else 4 if n < 2**32 else 8


def assert_packed_payload(line, sizes):
    """The line's payload holds a float64 mean and count_bits(sizes) bits
    per cluster, in whole bytes, and is never longer than the earlier
    format's float64 mean and old_width(n) bytes per cluster."""
    obj = json.loads(line)
    bits, length = count_bits(sizes), len(base64.b64decode(obj["data"]))
    assert obj["bits"] == bits
    assert length == 8 * len(sizes) + math.ceil(len(sizes) * bits / 8)
    assert length <= (8 + old_width(obj["n"])) * len(sizes)


def positive_parts(draw, total, k):
    """``total`` split into ``k`` positive integers."""
    if k == 1:
        return [total]
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), min_size=k - 1, max_size=k - 1, unique=True)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@st.composite
def crafted_clients(draw, scores=False):
    """A well-formed line's fields: n at the width edges or small, 0 to 4
    atoms (at least 1 with ``scores``; none for a client without scores or,
    sometimes, with pi = 0), sample counts summing to n and means ascending
    within each atom."""
    n = draw(st.sampled_from(WIDTH_EDGES) | st.integers(int(scores), 300))
    d = draw(st.integers(1, 70))
    codes = draw(
        st.lists(
            st.text("01", min_size=d, max_size=d).filter(lambda a: "1" in a),
            min_size=int(scores),
            max_size=min(4, n),
            unique=True,
        )
    )
    if not codes:
        pi = draw(st.sampled_from([0.0]) | st.floats(0.0, 1.0))
        return dict(n=n, pi=pi, atoms=[], clusters=[])
    k = draw(st.integers(len(codes), min(20, n)))
    sizes = positive_parts(draw, n, k)
    clusters, start = [], 0
    for count in positive_parts(draw, k, len(codes)):
        means = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=count, max_size=count)))
        clusters.append(list(zip(means, sizes[start : start + count])))
        start += count
    pi = draw(st.floats(1e-300, 1.0))
    return dict(n=n, pi=pi, atoms=sorted(codes), clusters=clusters)


def crafted_line(fields, **changes):
    """The wire line of ``crafted_clients`` fields, client 9 at delta 2,
    where the mass bound admits any split of an atom's samples."""
    return reference_line(9, delta=2.0, fingerprint=FINGERPRINT, **{**fields, **changes})


class TestWireProperties:
    @given(ROUNDS)
    @settings(max_examples=60, deadline=None)
    def test_rounds_round_trip_byte_exact(self, round_args):
        datasets, family, delta = round_args
        round_ = run_round(datasets, family, delta)
        sent = [client_build_messages(ds, family, delta) for ds in datasets]
        lines = [message_to_json(m) for m in sent]
        assert [message_to_json(m) for m in round_.messages] == lines
        assert round_.wire_bytes == sum(len(line.encode("utf-8")) for line in lines)
        for line, m, got in zip(lines, sent, round_.messages, strict=True):
            assert message_to_json(message_from_json(line)) == line
            assert_packed_payload(line, m.sizes.tolist())
            assert (got.atoms, got.counts) == (m.atoms, m.counts)
            assert np.array_equal(got.means, m.means) and np.array_equal(got.sizes, m.sizes)
        assert round_.test_weight == sum(ds.pi / (ds.n + 1) for ds in datasets)

    @given(crafted_clients())
    @settings(max_examples=200, deadline=None)
    def test_codec_round_trip_is_byte_exact(self, fields):
        line = crafted_line(fields)
        back = message_from_json(line)
        assert message_to_json(back) == line
        sizes = [c for pairs in fields["clusters"] for _, c in pairs]
        assert back.sizes.tolist() == sizes and back.n == fields["n"]
        assert_packed_payload(line, sizes)

    @given(
        k=st.sampled_from([1, 3000]) | st.integers(1, 3000),
        bits=st.sampled_from([1, 53]) | st.integers(1, 53),
        atoms=st.integers(1, 4),
        edge=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_packed_counts_round_trip(self, k, bits, atoms, edge, seed):
        # k positive counts of at most ``bits`` bits, the largest of exactly
        # ``bits`` (the most that fits with ``edge``), over up to 4 atoms;
        # n, their sum, stays below 2**53
        rng = np.random.default_rng(seed)
        high = min(2**bits - 1, 2**53 - k)
        top = high if edge else int(rng.integers(2 ** (bits - 1), high + 1))
        rest = rng.integers(1, min(2**bits - 1, (2**53 - 1 - top) // max(k - 1, 1)) + 1, size=k - 1).tolist()
        sizes = rest[: (i := int(rng.integers(0, k)))] + [top] + rest[i:]
        ends = sorted(rng.choice(np.arange(1, k), size=min(atoms, k) - 1, replace=False).tolist()) + [k]
        clusters = [[(float(i), sizes[i]) for i in range(a, b)] for a, b in zip([0, *ends], ends)]
        codes = ["0001", "0010", "0100", "1000"][: len(clusters)]
        line = crafted_line(dict(n=sum(sizes), pi=1.0, atoms=codes, clusters=clusters))
        back = message_from_json(line)
        assert back.sizes.dtype == np.int64 and back.sizes.tolist() == sizes
        assert message_to_json(back) == line
        assert_packed_payload(line, sizes)

    @given(
        fields=crafted_clients(scores=True),
        bad=st.sampled_from(["zero count", "count sum off by one", "payload one byte short",
                             "payload one byte long", "bits one too few", "bits one too many",
                             "padding bit set", "zero pi"]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_malformed_counts_are_rejected(self, fields, bad, data):
        clusters = [list(pairs) for pairs in fields["clusters"]]
        cells = [(a, j) for a, pairs in enumerate(clusters) for j in range(len(pairs))]
        sizes = [clusters[a][j][1] for a, j in cells]
        bits = count_bits(sizes)
        changes, match = {}, "payload of"
        if bad == "zero count":
            i = data.draw(st.integers(0, len(cells) - 1))
            if len(cells) > 1:  # its samples move to another cluster: the sum stays n
                a, j = cells[i - 1]
                clusters[a][j] = (clusters[a][j][0], sizes[i - 1] + sizes[i])
            a, j = cells[i]
            clusters[a][j] = (clusters[a][j][0], 0)
            # one bit at least, so that a lone cluster's count of 0 is sent
            changes = dict(clusters=clusters, bits=max(count_bits(c for pairs in clusters for _, c in pairs), 1))
            match = "0 samples"
        elif bad == "count sum off by one":
            step = data.draw(st.sampled_from([1, -1]))
            if step == -1 and max(sizes) == 1:
                step = 1
            i = sizes.index(max(sizes)) if step == -1 else sizes.index(min(sizes))
            a, j = cells[i]
            clusters[a][j] = (clusters[a][j][0], sizes[i] + step)
            changes, match = dict(clusters=clusters), "sum to n"
        elif bad == "bits one too few":
            # the largest count no longer fits: cut to bits - 1 bits, some
            # count falls to 0 or the counts fall short of n
            cut = [c & (2 ** (bits - 1) - 1) for c in sizes]
            changes = dict(bits=bits - 1)
            match = "bits" if bits == 1 else "0 samples" if 0 in cut else "sum to n"
        elif bad == "bits one too many":
            changes, match = dict(bits=bits + 1), "bits"
        elif bad == "padding bit set":
            assume(len(sizes) * bits % 8)
            match = "padding"
        elif bad == "zero pi":
            changes, match = dict(pi=0.0), "sample weight"
        line = crafted_line(fields, **changes)
        if bad.startswith("payload") or bad == "padding bit set":
            raw = base64.b64decode(json.loads(line)["data"])
            if bad == "padding bit set":
                raw = raw[:-1] + bytes([raw[-1] | 0x80])
            else:
                raw = raw[:-1] if bad.endswith("short") else raw + bytes(1)
            line = edited(line, data=base64.b64encode(raw).decode("ascii"))
        with pytest.raises(ProtocolError, match=match):
            message_from_json(line)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([0, 1, 255, 256, 65_535, 65_536]) | st.integers(1, 400),
        pi=st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1.0),
        delta=st.sampled_from([2.0, 25.0, 250.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_client_weights_match_the_array_path(self, seed, n, pi, delta):
        rng = np.random.default_rng(seed)
        ds = ClientDataset(1, rng.uniform(0, 5, n), np.round(rng.exponential(size=n), 2), pi)
        msg = client_build_messages(ds, FOUR_INTERVALS, delta)
        line = message_to_json(msg)
        back = message_from_json(line)
        assert message_to_json(back) == line
        assert_packed_payload(line, msg.sizes.tolist())
        if not (n and pi):
            assert back.atoms == () and back.sizes.size == 0
            return
        # the weighted builder's cluster edges and means at unit weights, bit
        # for bit; means within the loop's bound; and as weights the exact
        # products of the sample counts and pi / (n + 1), each rounded once
        values, _, rows = enumerate_atoms(ds.covariates, FOUR_INTERVALS, ds.scores)
        with recorded_cluster_sizes() as passes:
            unit_means, _, counts, _ = _build_segments(values, np.ones(n), delta, rows)
        assert back.counts == tuple(counts.tolist())
        assert back.sizes.tolist() == passes[0]
        assert back.means.tobytes() == unit_means.tobytes()
        ends = np.cumsum(rows)
        for a, b, means in zip(ends - rows, ends, np.split(back.means, np.cumsum(back.counts)[:-1])):
            ref = reference_clusters(values[a:b], np.ones(b - a), delta)
            assert_close_to_reference(ref, means)
        w = Fraction(ds.sample_weight)
        assert weights_of(back).tolist() == [float(Fraction(size) * w) for size in back.sizes.tolist()]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
        pis=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2, unique=True),
        delta=st.sampled_from([2.0, 5.0, 25.0, 250.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_client_sketch_is_scale_free(self, seed, n, pis, delta):
        # the client sketches at unit weights, so its mixture weight moves
        # no cluster: the two lines differ in pi alone
        rng = np.random.default_rng(seed)
        ds = ClientDataset(1, rng.uniform(0, 5, n), np.round(rng.exponential(size=n), 2), pis[0])
        one, other = (client_build_messages(replace(ds, pi=pi), FOUR_INTERVALS, delta) for pi in pis)
        assert (one.atoms, one.counts) == (other.atoms, other.counts)
        assert one.means.tobytes() == other.means.tobytes()
        assert one.sizes.tobytes() == other.sizes.tobytes()
        lines = [json.loads(message_to_json(m)) for m in (one, other)]
        assert [line.pop("pi") for line in lines] == pis
        assert lines[0] == lines[1]

    @given(line=CLIENT_LINES, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_line_length_ignores_the_means(self, line, seed):
        # crc32 is 8 hex digits whatever the payload, so the length of a
        # line depends on its header and the shape of its sketch alone
        message = message_from_json(line)
        means = np.frombuffer(np.random.default_rng(seed).bytes(8 * message.means.size))
        other = message_to_json(replace(message, means=means))
        assert len(other) == len(line) and len(json.loads(other)["crc32"]) == 8
        assert json.loads(other)["data"] != json.loads(line)["data"] or not message.means.size

    @given(line=CLIENT_LINES, cut=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_truncated_line_is_rejected(self, line, cut):
        with pytest.raises(ProtocolError):
            message_from_json(line[: int(cut * len(line))])

    @given(
        line=CLIENT_LINES,
        where=st.floats(0.0, 1.0, exclude_max=True),
        char=st.sampled_from(string.ascii_letters + string.digits + '+/=!"\\ é'),
    )
    @settings(max_examples=150, deadline=None)
    def test_flipped_base64_character_is_rejected(self, line, where, char):
        start = line.index('"data":"') + len('"data":"')
        i = start + int(where * (len(line) - 2 - start))
        assume(line[i] != char)
        with pytest.raises(ProtocolError):
            message_from_json(line[:i] + char + line[i + 1 :])

    @given(
        line=CLIENT_LINES,
        where=st.integers(0, 10),
        change=st.sampled_from(["up", "down", "append", "drop"]),
        by=st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_count_table_off_its_payload_is_rejected(self, line, where, change, by):
        obj = json.loads(line)
        counts = obj["counts"]
        i = where % len(counts)
        if change == "up":
            counts[i] += by
        elif change == "down":
            counts[i] -= by
        elif change == "append":
            counts.append(by)
        else:
            del counts[i]
        with pytest.raises(ProtocolError):
            message_from_json(json.dumps(obj, separators=(",", ":")))

    @given(
        data=st.data(),
        bad=st.sampled_from(["nan mean", "inf mean", "-inf mean", "zero count", "largest count",
                             "unsorted means"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_payload_values_are_rejected(self, data, bad):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        clusters = [
            [(float(m), 1) for m in sorted(data.draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k, unique=True)))]
            for k in sizes
        ]
        n = sum(sizes)
        atom = data.draw(st.integers(0, len(sizes) - 1))
        pairs = clusters[atom]
        j = data.draw(st.integers(0, len(pairs) - 1))
        mean, count = pairs[j]
        if bad == "unsorted means":
            assume(len(pairs) > 1)
            pairs[0], pairs[-1] = pairs[-1], pairs[0]
        elif bad.endswith("mean"):
            pairs[j] = (float(bad.split()[0]), count)
        elif bad == "zero count":
            pairs[j] = (mean, 0)
        else:  # a count above n
            pairs[j] = (mean, 255)
        with pytest.raises(ProtocolError):
            message_from_json(crafted(clusters, n=n))

    @given(ROUNDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_inconsistent_rounds_are_rejected(self, round_args, data):
        datasets, family, delta = round_args
        messages = list(run_round(datasets, family, delta).messages)
        k = data.draw(st.integers(0, len(messages) - 1))
        m = messages[k]
        wrong = data.draw(st.text("0123456789abcdef", min_size=16, max_size=16).filter(lambda f: f != m.family))
        resent = message_from_json(message_to_json(replace(m, family=wrong)))
        with pytest.raises(ProtocolError, match="family"):
            server_assemble(messages[:k] + [resent] + messages[k + 1 :], family)
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + [m], family)
        if len(messages) > 1:
            other = replace(messages[k - 1], client_id=m.client_id)
            with pytest.raises(ProtocolError, match="duplicate"):
                server_assemble(messages[:k] + [other] + messages[k:], family)
        scale = data.draw(st.floats(0.5, 0.99) | st.floats(1.01, 1.5))
        off = [replace(ds, pi=ds.pi * scale) for ds in datasets if ds.pi * scale <= 1.0]
        assume(len(off) == len(datasets))
        with pytest.raises(ProtocolError, match="mixture"):
            run_round(off, family, delta)

    @given(
        n=st.integers(1, 3000),
        decimals=st.sampled_from([0, 1, 2, None]),
        delta=st.floats(2.0, 1000.0),
        one_group=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_honest_lines_meet_the_mass_bound(self, n, decimals, delta, one_group, seed):
        rng = np.random.default_rng(seed)
        scores = rng.exponential(1.0, n)
        if decimals is not None:  # ties
            scores = np.round(scores, decimals)
        ds = ClientDataset(1, rng.uniform(0, 5, n), scores, 1.0)
        sent = client_build_messages(ds, SINGLE_GROUP if one_group else FOUR_INTERVALS, delta)
        assert np.array_equal(message_from_json(message_to_json(sent)).sizes, sent.sizes)


class TestServer:
    def test_atom_total_is_one_sum_of_its_weights(self):
        # the atom's total sums its pooled weights (in mean order, for so
        # few) as a build on them alone does: 0.7333333333333333 here, as
        # math.fsum reads, where adding each client's sum in message order
        # reads 0.7333333333333334
        # (at delta 2, which admits a cluster of 4 of an atom's 6 samples)
        lines = [
            crafted([[(0.0, 1), (1.0, 1)]], client_id=1, pi=0.65, delta=2.0),
            crafted([[(0.5, 1), (1.5, 1), (2.5, 4)]], client_id=2, pi=0.35, delta=2.0),
        ]
        messages = [message_from_json(line) for line in lines]
        coreset, _ = server_assemble(messages, FOUR_INTERVALS)
        rows = np.concatenate(cluster_weights(messages))
        assert sum(sum(weights_of(m).tolist()) for m in messages) == 0.7333333333333334
        alone = build_digest_arrays(np.concatenate([m.means for m in messages]), rows, 2.0)
        total = coreset.per_atom_digests[(0, 0, 0, 1)].total_weight
        assert total == alone.total_weight == math.fsum(rows.tolist()) == 0.7333333333333333

    def test_merge_of_one(self):
        rng = np.random.default_rng(5)
        ds = ClientDataset(1, np.full(30, 1.5), rng.random(30), 1.0)
        message = client_build_messages(ds, FOUR_INTERVALS, 50.0)
        coreset, test_weight = server_assemble([message], FOUR_INTERVALS)
        assert list(zip(coreset.entries["mean"].tolist(), coreset.entries["weight"].tolist())) == list(
            zip(message.means.tolist(), weights_of(message).tolist())
        )
        assert test_weight == 1.0 / 31

    def test_huge_sample_count_needs_no_table(self):
        # a cluster of 2**40 samples weighs its count times pi / (n + 1),
        # rounded once; the server's memory does not grow with the count
        # (delta 2 admits one cluster of all an atom's samples)
        n = 2**40
        message = message_from_json(crafted([[(0.5, n)]], n=n, delta=2.0))
        coreset, _ = server_assemble([message], FOUR_INTERVALS)
        assert coreset.entries["mean"].tolist() == [0.5]
        assert coreset.entries["weight"].tolist() == [float(Fraction(n) * Fraction(1 / (n + 1)))]

    def test_entries_layout(self):
        rng = np.random.default_rng(4)
        round_ = run_round(uniform_clients(rng, (300, 200)), FOUR_INTERVALS, 50.0)
        entries = round_.coreset.entries
        assert entries.dtype.names == ("atom", "mean", "weight")
        assert entries["atom"].dtype == np.int8 and entries["atom"].shape == (len(entries), 4)
        assert not entries.flags.writeable
        atoms = [tuple(a) for a in entries["atom"].tolist()]
        assert atoms == sorted(atoms)  # atom blocks in lexicographic order
        total = 0.0
        for w in entries["weight"].tolist():
            total += w
        assert round_.coreset.total_weight == total

    def test_disjoint_atoms_no_cross_merge(self):
        a = ClientDataset(1, np.full(20, 0.5), np.random.default_rng(6).random(20), 0.5)
        b = ClientDataset(2, np.full(20, 4.5), np.random.default_rng(7).random(20), 0.5)
        ma = client_build_messages(a, FOUR_INTERVALS, 50.0)
        mb = client_build_messages(b, FOUR_INTERVALS, 50.0)
        coreset, _ = server_assemble([ma, mb], FOUR_INTERVALS)
        assert len(coreset) == sum(ma.counts) + sum(mb.counts)

    def test_weight_conservation_and_size_bound(self):
        rng = np.random.default_rng(8)
        sizes = (700, 350, 350, 350, 250)
        datasets = uniform_clients(rng, sizes)
        round_ = run_round(datasets, FOUR_INTERVALS, 250.0)
        expected = sum(0.2 * n / (n + 1) for n in sizes)
        assert round_.coreset.total_weight == pytest.approx(expected, abs=1e-9)
        n_atoms = len(np.unique(round_.coreset.entries["atom"], axis=0))
        assert len(round_.coreset) <= n_atoms * (250 + 2)

    def test_errors(self):
        with pytest.raises(ProtocolError):
            server_assemble([], FOUR_INTERVALS)
        rng = np.random.default_rng(9)
        m1 = client_build_messages(
            ClientDataset(1, rng.uniform(0, 5, 10), rng.random(10), 0.5),
            FOUR_INTERVALS,
            50.0,
        )
        m2 = client_build_messages(
            ClientDataset(2, rng.uniform(0, 5, 10), rng.random(10), 0.5),
            SINGLE_GROUP,
            50.0,
        )
        with pytest.raises(ProtocolError, match="family"):
            server_assemble([m1, m2], FOUR_INTERVALS)
        # a family's fingerprint with another family's atom length
        with pytest.raises(ProtocolError, match="length"):
            server_assemble([m1, replace(m2, family=m1.family)], FOUR_INTERVALS)
        empty = ClientDataset(1, np.array([]), np.array([]), 1.0)
        with pytest.raises(ProtocolError, match="no client sent any scores"):
            run_round([empty], FOUR_INTERVALS, 50.0)

    def test_rejects_other_delta(self):
        rng = np.random.default_rng(11)
        datasets = uniform_clients(rng, (50, 50))
        messages = [client_build_messages(ds, FOUR_INTERVALS, 5.0) for ds in datasets]
        coreset, _ = server_assemble(messages, FOUR_INTERVALS)  # delta from the wire
        assert coreset.entries.tobytes() == run_round(datasets, FOUR_INTERVALS, 5.0).coreset.entries.tobytes()
        other = client_build_messages(datasets[1], FOUR_INTERVALS, 250.0)
        with pytest.raises(ProtocolError, match=r"client 2 sent delta 250\.0, client 1 sent 5\.0"):
            server_assemble([messages[0], other], FOUR_INTERVALS)

    def test_rejects_duplicate_client(self):
        rng = np.random.default_rng(12)
        datasets = uniform_clients(rng, (200, 200))
        messages = [client_build_messages(ds, FOUR_INTERVALS, 250.0) for ds in datasets]
        coreset, _ = server_assemble(messages, FOUR_INTERVALS)
        assert coreset.total_weight == pytest.approx(sum(0.5 * 200 / 201 for _ in datasets), abs=1e-9)
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + messages, FOUR_INTERVALS)
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + messages[-1:], FOUR_INTERVALS)

    def test_rejects_unconserved_weight(self):
        rng = np.random.default_rng(13)
        datasets = uniform_clients(rng, (200, 100))
        messages = [client_build_messages(ds, FOUR_INTERVALS, 250.0) for ds in datasets]
        for bad in (replace(messages[1], n=101), replace(messages[1], pi=0.5 * (1 + 1e-8))):
            with pytest.raises(ProtocolError, match="weight"):
                server_assemble([messages[0], bad], FOUR_INTERVALS)

    def test_mixture_validation(self):
        rng = np.random.default_rng(10)
        bad = [
            ClientDataset(1, rng.uniform(0, 5, 5), rng.random(5), 0.6),
            ClientDataset(2, rng.uniform(0, 5, 5), rng.random(5), 0.6),
        ]
        messages = [client_build_messages(ds, FOUR_INTERVALS, 50.0) for ds in bad]
        with pytest.raises(ProtocolError, match="mixture"):
            server_assemble(messages, FOUR_INTERVALS)
        with pytest.raises(ProtocolError, match="mixture"):
            run_round(bad, FOUR_INTERVALS, 50.0)

    def test_empty_client_enters_test_weight(self):
        rng = np.random.default_rng(14)
        datasets = [
            ClientDataset(1, rng.uniform(0, 5, 99), rng.random(99), 0.75),
            ClientDataset(2, np.array([]), np.array([]), 0.25),
        ]
        round_ = run_round(datasets, FOUR_INTERVALS, 50.0)
        assert len(round_.messages) == 2 and round_.messages[1].counts == ()
        assert round_.test_weight == 0.75 / 100 + 0.25

    def test_zero_weight_client_sends_no_atoms(self):
        rng = np.random.default_rng(15)
        datasets = [
            ClientDataset(1, rng.uniform(0, 5, 99), rng.random(99), 1.0),
            ClientDataset(2, rng.uniform(0, 5, 40), rng.random(40), 0.0),
        ]
        round_ = run_round(datasets, FOUR_INTERVALS, 50.0)
        assert round_.messages[1].n == 40 and round_.messages[1].counts == ()
        alone = run_round(datasets[:1], FOUR_INTERVALS, 50.0)
        assert round_.coreset.entries.tobytes() == alone.coreset.entries.tobytes()
        assert round_.test_weight == 1.0 / 100

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_client_dataset_rejects_non_finite_scores(self, bad):
        with pytest.raises(ProtocolError, match="finite"):
            ClientDataset(1, np.zeros(3), np.array([0.5, bad, 1.0]), 1.0)

    def test_test_term_weight(self):
        sizes = (1000, 333, 333, 333)
        datasets = [
            ClientDataset(k + 1, np.zeros(n), np.zeros(n), 0.25)
            for k, n in enumerate(sizes)
        ]
        assert term_weight(datasets) == pytest.approx(
            0.25 * (1 / 1001 + 3 / 334), abs=1e-12
        )
        messages = [client_build_messages(ds, FOUR_INTERVALS, 50.0) for ds in datasets]
        _, test_weight = server_assemble(messages, FOUR_INTERVALS)
        assert test_weight == term_weight(datasets)


def skewed_clients(seed, sizes):
    """Synthetic covariates (client k centred at its own mean), pi_k = n_k / N."""
    config = SynthConfig(seed=seed, n_clients=len(sizes), n_per_client=sizes)
    rng = np.random.default_rng(seed)
    return [
        ClientDataset(
            k, sample_covariates(config, k, n), rng.exponential(size=n), n / sum(sizes)
        )
        for k, n in enumerate(sizes, start=1)
    ]


FEDERATIONS = {
    "uniform-d50": (lambda: uniform_clients(np.random.default_rng(20), (900, 400, 150)), FOUR_INTERVALS, 50.0),
    "skewed-d250": (lambda: skewed_clients(21, (4000, 4000, 300, 300, 300, 300)), FOUR_INTERVALS, 250.0),
    "skewed-d25": (lambda: skewed_clients(22, (2500, 700, 700, 700)), FOUR_INTERVALS, 25.0),
    "one-group-empty-client": (
        lambda: [
            ClientDataset(1, np.zeros(1500), np.random.default_rng(23).normal(size=1500), 0.5),
            ClientDataset(2, np.array([]), np.array([]), 0.25),
            ClientDataset(3, np.zeros(80), np.round(np.random.default_rng(24).normal(size=80), 1), 0.25),
        ],
        SINGLE_GROUP,
        100.0,
    ),
}


def assert_round_matches_loop_reference(datasets, family, delta):
    """The round against ``reference_round``: every wire line but its
    means, and every cluster edge, bit for bit; each cluster's mean, the
    server's weights and each atom's total within the reference's bound of
    the exact sums."""
    with recorded_cluster_sizes() as passes:
        round_ = run_round(datasets, family, delta)
    lines = [message_to_json(client_build_messages(ds, family, delta)) for ds in datasets]
    assert list(round_.lines) == lines
    assert [message_to_json(m) for m in round_.messages] == lines
    assert round_.wire_bytes == sum(len(line.encode("utf-8")) for line in lines)
    assert round_.test_weight == sum(ds.pi / (ds.n + 1) for ds in datasets)

    digests = round_.coreset.per_atom_digests
    ref_lines, clients, ref_per_atom = reference_round(datasets, family, delta, lines)
    assert lines == ref_lines
    for message, refs in zip(round_.messages, clients):
        ends = np.cumsum(message.counts, dtype=int)
        for ref, means in zip(refs, np.split(message.means, ends[:-1])):
            assert_close_to_reference(ref, means)

    assert list(digests) == list(ref_per_atom)
    assert passes[-1] == [size for ref in ref_per_atom.values() for size in ref[2]]
    for atom, ref in ref_per_atom.items():
        assert_close_to_reference(ref, digests[atom].means(), digests[atom].weights())
        assert abs(digests[atom].total_weight - ref[4]) <= SUM_TOL * ref[4]
    entries = round_.coreset.entries
    atoms = [atom for atom, digest in digests.items() for _ in range(len(digest))]
    assert list(map(tuple, entries["atom"].tolist())) == atoms
    assert entries["mean"].tobytes() == np.concatenate([d.means() for d in digests.values()]).tobytes()
    assert entries["weight"].tobytes() == np.concatenate([d.weights() for d in digests.values()]).tobytes()

    data = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
    ref_data = CalibrationData(
        np.array(atoms, dtype=float),
        np.array(entries["mean"].tolist()),
        np.array(entries["weight"].tolist()),
        sum(ds.pi / (ds.n + 1) for ds in datasets),
    )
    for pattern in list(ref_per_atom)[:2]:
        assert threshold_search(data, pattern, 0.1) == threshold_search(ref_data, pattern, 0.1)
    return round_


@pytest.mark.parametrize("name", sorted(FEDERATIONS))
def test_round_is_bit_identical_to_loop_reference(name):
    make, family, delta = FEDERATIONS[name]
    assert_round_matches_loop_reference(make(), family, delta)


def test_server_keeps_message_order_among_tied_means():
    # integer scores: clusters of one repeated score, whose means tie across
    # clients of different weights; the reference keeps message order among
    # ties, and the order of a tie moves cluster edges
    rng = np.random.default_rng(25)
    datasets = [
        ClientDataset(k, np.zeros(n), rng.integers(0, 4, n).astype(float), pi)
        for k, (n, pi) in enumerate(((30, 0.5), (7, 0.3), (120, 0.2)), start=1)
    ]
    forward = assert_round_matches_loop_reference(datasets, SINGLE_GROUP, 25.0)
    backward = assert_round_matches_loop_reference(datasets[::-1], SINGLE_GROUP, 25.0)
    assert set(forward.messages[0].means) & set(forward.messages[1].means) & set(forward.messages[2].means)
    assert not np.array_equal(forward.coreset.entries["weight"], backward.coreset.entries["weight"])


@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 2000), min_size=1, max_size=3),
    kind=st.sampled_from(["one decimal", "integer"]),
    delta=st.sampled_from([5.0, 25.0, 250.0]),
)
@settings(max_examples=100, deadline=None)
def test_tied_scores_keep_each_mean_within_its_cluster(seed, sizes, kind, delta):
    # runs of tied scores straddle cluster edges and fill whole clusters:
    # every mean lies within its cluster's first and last score, so every
    # client's line decodes with ascending means, and a cluster of equal
    # scores keeps that score bit for bit, a zero as 0.0
    rng = np.random.default_rng(seed)
    datasets = []
    for k, n in enumerate(sizes, start=1):
        scores = 3.0 * rng.normal(size=n)
        scores = np.round(scores, 1) if kind == "one decimal" else np.round(scores)
        datasets.append(ClientDataset(k, rng.uniform(0, 5, n), scores, 1.0 / len(sizes)))
    round_ = run_round(datasets, FOUR_INTERVALS, delta)
    for ds, message in zip(datasets, round_.messages):
        values = enumerate_atoms(ds.covariates, FOUR_INTERVALS, ds.scores)[0] + 0.0
        ends = np.cumsum(message.sizes)
        first, last = values[ends - message.sizes], values[ends - 1]
        assert np.all((first <= message.means) & (message.means <= last))
        equal = first == last
        assert message.means[equal].tobytes() == first[equal].tobytes()


@given(
    rows=st.lists(
        st.tuples(st.sampled_from([0.5, 1.5, 2.5, 4.5]), st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)),
        min_size=1,
        max_size=60,
    ),
    delta=st.sampled_from([2.0, 5.0, 25.0]),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_client_line_ignores_row_order(rows, delta, data):
    # a client's line is a function of its rows as a multiset: tied
    # covariates and tied scores, 0.0 and -0.0 among them, in any order
    lines, n = set(), len(rows)
    for order in (range(n), range(n)[::-1], data.draw(st.permutations(range(n)))):
        x, scores = (np.array([rows[i][k] for i in order]) for k in (0, 1))
        lines.add(message_to_json(client_build_messages(ClientDataset(1, x, scores, 0.5), FOUR_INTERVALS, delta)))
    assert len(lines) == 1


def spellings(draw, bound):
    """One way to write an interval bound: int, float or numpy float, and
    -0.0 for 0."""
    ways = [float(bound), np.float64(bound)]
    ways += [int(bound)] if bound == int(bound) else []
    ways += [-0.0, -np.float64(0.0)] if bound == 0 else []
    return draw(st.sampled_from(ways))


@st.composite
def equal_families(draw):
    """Two families that compare equal: interval bounds spelled two ways, or
    each label set's labels, as ints or numpy ints, inserted in two orders."""
    twins = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            lo, hi = sorted(draw(st.lists(st.sampled_from([-1, 0, 0.5, 2, 3]), min_size=2, max_size=2)))
            ends = (True, True) if lo == hi else (draw(st.booleans()), draw(st.booleans()))
            twins.append([Interval(spellings(draw, lo), spellings(draw, hi), *ends) for _ in "ab"])
        else:
            labels = draw(st.lists(st.integers(-3, 40), min_size=1, max_size=8, unique=True))
            kinds = draw(st.lists(st.sampled_from([int, np.int64]), min_size=2, max_size=2))
            twins.append([LabelSet(frozenset(map(kind, draw(st.permutations(labels))))) for kind in kinds])
    return tuple(GroupFamily(tuple(pair[k] for pair in twins)) for k in (0, 1))


@given(equal_families())
@settings(max_examples=200, deadline=None)
def test_equal_families_have_one_fingerprint(families):
    a, b = families
    assert a == b and hash(a) == hash(b)
    # uncached, so that b's fingerprint is not a's from the cache
    fresh = _family_fingerprint.__wrapped__
    assert fresh(a) == fresh(b) == reference_fingerprint(a) == _family_fingerprint(b)


def test_default_family_fingerprint():
    spelled = family_from_json(json.dumps({"kind": "intervals", "groups": [{"lo": lo, "hi": lo + 2.0} for lo in range(4)]}))
    assert spelled == FOUR_INTERVALS
    assert _family_fingerprint.__wrapped__(spelled) == FINGERPRINT == "bdb5251b8158666a"
    for sets in ([[1, 9], [2]], [[9, 1], [2]]):
        family = family_from_json(json.dumps({"kind": "label_sets", "groups": sets}))
        assert _family_fingerprint.__wrapped__(family) == reference_fingerprint(family) == "9375d675d1adc2a9"


def test_readme_wire_format_matches_the_codec():
    """README's field table names the wire fields in order, and its payload
    paragraph states the bit order, the payload length and a cluster's
    weight as its sample count times the sample weight."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Wire format\n")[1].split("\n## ")[0]
    assert tuple(re.findall(r"^\| `(\w+)` \| ", section, flags=re.M)) == _FIELDS
    text = " ".join(section.split("The payload is ")[1].split("\n\n")[0].split())
    assert "count `i` sits at bit `i * bits`, least significant bit first" in text
    assert "`8 * sum(counts) + ceil(sum(counts) * bits / 8)` bytes long" in text
    assert "a cluster of `L` samples weighs `L * w`" in text and "uniform_table" not in text
    # 4 counts of 3 bits at bits 0, 3, 6 and 9: 12 bits in 2 bytes, the 1
    # across the byte boundary, 4 padding bits of 0
    sizes = [3, 7, 1, 5]
    line = crafted([[(float(i), c) for i, c in enumerate(sizes)]], delta=2.0)
    assert base64.b64decode(json.loads(line)["data"])[32:] == bytes([0b01_111_011, 0b0000_101_0])
    assert message_from_json(line).sizes.tolist() == sizes


def test_every_fed_round_pool_line_decodes(monkeypatch):
    """The benchmark's fed-round federations (seed 1, its whole pool) at
    delta 5, 25, 250 and 1000: every client line meets the mass bound, and
    its payload is never longer than in the earlier byte-wide format."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    fed_round = workloads.FedRound(seed=1)
    lines = 0
    for p in range(fed_round.pool):
        datasets = workloads.make_federation(1, fed_round.sizes, p).datasets
        for delta in (5.0, 25.0, 250.0, 1000.0):
            for ds in datasets:
                sent = client_build_messages(ds, FOUR_INTERVALS, delta)
                line = message_to_json(sent)
                assert np.array_equal(message_from_json(line).sizes, sent.sizes)
                assert_packed_payload(line, sent.sizes.tolist())
                lines += 1
    assert lines == 16 * 32 * 4
