import base64
import hashlib
import json
import math
import string
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcfcp.conformal import CalibrationData, threshold_search
from gcfcp.datagen import SynthConfig, sample_covariates
from gcfcp.federation import (
    ClientDataset,
    ProtocolError,
    client_build_messages,
    client_stratify,
    message_from_json,
    message_to_json,
    run_round,
    server_assemble,
)
from gcfcp.federation import test_term_weight as term_weight
from gcfcp.groups import SINGLE_GROUP, interval_family
from reference import approx_quantile, reference_line, reference_round

FOUR_INTERVALS = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])
FINGERPRINT = hashlib.sha256(repr(FOUR_INTERVALS).encode("utf-8")).hexdigest()[:16]
ATOM_CODES = ["0001", "0011", "0110", "1000", "1100"]


def crafted(clusters, **header):
    """A wire line of client 1 under FOUR_INTERVALS at delta 25, one
    (mean, weight) list per atom, atoms in ``ATOM_CODES`` order."""
    fields = dict(
        client_id=1, n=sum(map(len, clusters)), pi=1.0, delta=25.0,
        fingerprint=FINGERPRINT, atoms=ATOM_CODES[: len(clusters)],
    )
    fields.update(header)
    return reference_line(clusters=clusters, **fields)


def edited(line, **fields):
    """The line with header fields replaced; the checksum follows new data."""
    obj = json.loads(line)
    obj.update(fields)
    if isinstance(fields.get("data"), str):
        obj["crc32"] = zlib.crc32(fields["data"].encode("utf-8"))
    return json.dumps(obj, separators=(",", ":"))


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
        strata = client_stratify(ds, FOUR_INTERVALS)
        assert set(strata) == {(1, 0, 0, 0)}
        assert strata[(1, 0, 0, 0)].size == 7

    def test_client1_mass_concentrates_low_atoms(self):
        config = SynthConfig(seed=11)
        x = sample_covariates(config, 1, 1000)
        ds = ClientDataset(1, x, np.zeros(1000), 0.25)
        strata = client_stratify(ds, FOUR_INTERVALS)
        low = sum(
            len(strata.get(a, ())) for a in [(1, 0, 0, 0), (1, 1, 0, 0)]
        )
        assert low >= 0.95 * 1000

    def test_message_weights(self):
        rng = np.random.default_rng(0)
        ds = ClientDataset(3, rng.uniform(0, 5, 10), rng.random(10), 0.5)
        msg = client_build_messages(ds, FOUR_INTERVALS, 100.0)
        assert (msg.client_id, msg.n, msg.pi, msg.delta) == (3, 10, 0.5, 100.0)
        assert msg.family == FINGERPRINT
        assert list(msg.atoms) == sorted(client_stratify(ds, FOUR_INTERVALS))
        total = sum(d.total_weight for d in msg.digests)
        assert total == pytest.approx(10 * 0.5 / 11, abs=1e-12)
        for d in msg.digests:
            assert d.total_weight <= 0.5 * 10 / 11 + 1e-9

    def test_empty_client_sends_header_only(self):
        ds = ClientDataset(1, np.array([]), np.array([]), 1.0)
        msg = client_build_messages(ds, FOUR_INTERVALS, 100.0)
        assert (msg.n, msg.atoms, msg.digests) == (0, (), ())
        obj = json.loads(message_to_json(msg))
        assert (obj["atoms"], obj["counts"], obj["data"]) == ([], [], "")

    def test_lossless_digest_matches_weighted_quantile(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        ds = ClientDataset(1, np.full(40, 2.5), scores, 1.0)
        (digest,) = client_build_messages(ds, FOUR_INTERVALS, 2500.0).digests
        assert len(digest) == 40  # every sample its own cluster
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
        for got, sent in zip(back.digests, msg.digests, strict=True):
            assert np.array_equal(got.means(), sent.means())
            assert np.array_equal(got.weights(), sent.weights())
            assert got.compression == sent.compression
            # the wire carries clusters only; the parsed total is their sum
            assert got.total_weight == pytest.approx(sent.total_weight, rel=1e-12)
        assert message_to_json(back) == line

    def test_wire_schema(self):
        ds = ClientDataset(7, np.array([0.5]), np.array([1.25]), 1.0)
        line = message_to_json(client_build_messages(ds, FOUR_INTERVALS, 25.0))
        data = base64.b64encode(struct.pack("<2d", 1.25, 0.5))
        assert line == json.dumps(
            {
                "client_id": 7,
                "n": 1,
                "pi": 1.0,
                "delta": 25.0,
                "family": FINGERPRINT,
                "atoms": ["1000"],
                "counts": [1],
                "crc32": zlib.crc32(data),
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
            crafted([[(1.0, 1.0)]]).replace('"n":1', '"n":1,"extra":0'),
            edited(crafted([[(1.0, 1.0)]]), client_id="1"),
            edited(crafted([[(1.0, 1.0)]]), client_id=True),
            edited(crafted([[(1.0, 1.0)]]), n=-1),
            edited(crafted([[(1.0, 1.0)]]), n=1.0),
            edited(crafted([[(1.0, 1.0)]]), pi=1.5),
            edited(crafted([[(1.0, 1.0)]]), pi=None),
            edited(crafted([[(1.0, 1.0)]]), delta=0.0),
            edited(crafted([[(1.0, 1.0)]]), family=16),
            crafted([[(1.0, 1.0)]], atoms=["0000"]),
            crafted([[(1.0, 1.0)]], atoms=["10x0"]),
            crafted([[(1.0, 1.0)]], atoms=[""]),
            crafted([[(1.0, 1.0)]], atoms=[1000]),
            crafted([[(1.0, 1.0)], [(1.0, 1.0)]], atoms=["1000", "0100"]),
            crafted([[(1.0, 1.0)], [(1.0, 1.0)]], atoms=["1000", "1000"]),
            crafted([[(1.0, 1.0)], [(1.0, 1.0)]], atoms=["100", "1100"]),
            crafted([[(1.0, 1.0), (2.0, 1.0)]], n=1),
            edited(crafted([[(1.0, 1.0)]]), counts=[0]),
            edited(crafted([[(1.0, 1.0)]]), counts=[2], n=2),
            edited(crafted([[(1.0, 1.0)]]), counts=[1, 1], n=2),
            edited(crafted([[(1.0, 1.0)]]), counts=1),
            edited(crafted([[(1.0, 1.0)]]), crc32=0),
            edited(crafted([[(1.0, 1.0)]]), data="AAAA!AAAAAAAAAAAAAAAAAAAAAA="),
            edited(crafted([[(1.0, 1.0)]]), data="AAAAAAAAAAA="),
            edited(crafted([[(1.0, 1.0)]]), data="AAAAAAAAAAAAAAAAAAAAAAAAAAé="),
            edited(crafted([[(1.0, 1.0)]]), data=["AAAA"]),
        ],
    )
    def test_rejects_malformed(self, line):
        with pytest.raises(ProtocolError):
            message_from_json(line)

    @pytest.mark.parametrize(
        "clusters",
        [
            [[(math.nan, 1.0)]],
            [[(1.0, math.inf)]],
            [[(1.0, 1.0), (-math.inf, 1.0)]],
            [[(1.0, math.nan)]],
            [[(1.0, 1e308), (2.0, 1e308)]],
            [[(1.0, 1.0)], [(math.inf, 1.0)]],
        ],
    )
    def test_rejects_non_finite_clusters(self, clusters):
        with pytest.raises(ProtocolError, match="finite|infinity"):
            message_from_json(crafted(clusters))

    @pytest.mark.parametrize("delta", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_delta(self, delta):
        line = crafted([[(1.0, 1.0)]]).replace('"delta":25.0', f'"delta":{delta}')
        with pytest.raises(ProtocolError, match="delta"):
            message_from_json(line)

    def test_rejects_unsorted_means_and_nonpositive_weights(self):
        with pytest.raises(ProtocolError, match="sorted"):
            message_from_json(crafted([[(2.0, 1.0), (1.0, 1.0)]]))
        with pytest.raises(ProtocolError, match="nonpositive"):
            message_from_json(crafted([[(1.0, 0.0)]]))
        # means restart at each atom
        assert message_from_json(crafted([[(2.0, 1.0)], [(1.0, 1.0)]]))

    @given(
        data=st.data(),
        client_id=st.integers(0, 10**9),
        d=st.integers(1, 70),
        pi=st.floats(0.0, 1.0),
        delta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        spare=st.integers(0, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_codec_round_trip_is_byte_exact(self, data, client_id, d, pi, delta, spare):
        codes = data.draw(
            st.lists(st.text("01", min_size=d, max_size=d).filter(lambda a: "1" in a), max_size=4, unique=True)
        )
        pair = st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        )
        clusters = [
            sorted(data.draw(st.lists(pair, min_size=1, max_size=20)), key=lambda p: p[0]) for _ in codes
        ]
        n = sum(map(len, clusters)) + spare
        line = reference_line(client_id, n, pi, delta, FINGERPRINT, sorted(codes), clusters)
        assert message_to_json(message_from_json(line)) == line

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
            assert got.atoms == m.atoms
            for a, b in zip(got.digests, m.digests, strict=True):
                assert np.array_equal(a.means(), b.means()) and np.array_equal(a.weights(), b.weights())
        assert round_.test_weight == sum(ds.pi / (ds.n + 1) for ds in datasets)

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
        bad=st.sampled_from(["nan mean", "inf mean", "-inf mean", "nan weight", "inf weight",
                             "zero weight", "negative weight", "unsorted means"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_payload_values_are_rejected(self, data, bad):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        clusters = [
            [(float(m), 1.0) for m in sorted(data.draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k, unique=True)))]
            for k in sizes
        ]
        atom = data.draw(st.integers(0, len(sizes) - 1))
        pairs = clusters[atom]
        j = data.draw(st.integers(0, len(pairs) - 1))
        mean, weight = pairs[j]
        if bad == "unsorted means":
            assume(len(pairs) > 1)
            pairs[0], pairs[-1] = pairs[-1], pairs[0]
        elif bad.endswith("mean"):
            pairs[j] = (float(bad.split()[0]), weight)
        elif bad == "zero weight":
            pairs[j] = (mean, 0.0)
        elif bad == "negative weight":
            pairs[j] = (mean, -data.draw(st.floats(min_value=0.0, max_value=1e300)))
        else:
            pairs[j] = (mean, float(bad.split()[0]))
        with pytest.raises(ProtocolError):
            message_from_json(crafted(clusters))

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
            server_assemble(messages[:k] + [resent] + messages[k + 1 :], family, delta)
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + [m], family, delta)
        if len(messages) > 1:
            other = replace(messages[k - 1], client_id=m.client_id)
            with pytest.raises(ProtocolError, match="duplicate"):
                server_assemble(messages[:k] + [other] + messages[k:], family, delta)
        scale = data.draw(st.floats(0.5, 0.99) | st.floats(1.01, 1.5))
        off = [replace(ds, pi=ds.pi * scale) for ds in datasets if ds.pi * scale <= 1.0]
        assume(len(off) == len(datasets))
        with pytest.raises(ProtocolError, match="mixture"):
            run_round(off, family, delta)


class TestServer:
    def test_merge_of_one(self):
        rng = np.random.default_rng(5)
        ds = ClientDataset(1, np.full(30, 1.5), rng.random(30), 1.0)
        message = client_build_messages(ds, FOUR_INTERVALS, 50.0)
        coreset, test_weight = server_assemble([message], FOUR_INTERVALS, 50.0)
        (digest,) = message.digests
        assert list(zip(coreset.entries["mean"].tolist(), coreset.entries["weight"].tolist())) == list(
            zip(digest.means().tolist(), digest.weights().tolist())
        )
        assert test_weight == 1.0 / 31

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
        coreset, _ = server_assemble([ma, mb], FOUR_INTERVALS, 50.0)
        assert len(coreset) == len(ma.digests[0]) + len(mb.digests[0])

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
            server_assemble([], FOUR_INTERVALS, 50.0)
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
            server_assemble([m1, m2], FOUR_INTERVALS, 50.0)
        # a family's fingerprint with another family's atom length
        with pytest.raises(ProtocolError, match="length"):
            server_assemble([m1, replace(m2, family=m1.family)], FOUR_INTERVALS, 50.0)
        empty = ClientDataset(1, np.array([]), np.array([]), 1.0)
        with pytest.raises(ProtocolError, match="no client sent any scores"):
            run_round([empty], FOUR_INTERVALS, 50.0)

    def test_rejects_other_delta(self):
        rng = np.random.default_rng(11)
        ds = ClientDataset(1, rng.uniform(0, 5, 50), rng.random(50), 0.5)
        with pytest.raises(ProtocolError, match="delta"):
            server_assemble([client_build_messages(ds, FOUR_INTERVALS, 5.0)], FOUR_INTERVALS, 250.0)
        good = client_build_messages(ds, FOUR_INTERVALS, 250.0)
        other = ClientDataset(2, rng.uniform(0, 5, 50), rng.random(50), 0.5)
        with pytest.raises(ProtocolError, match="delta"):
            server_assemble([good, client_build_messages(other, FOUR_INTERVALS, 5.0)], FOUR_INTERVALS, 250.0)

    def test_rejects_duplicate_client(self):
        rng = np.random.default_rng(12)
        datasets = uniform_clients(rng, (200, 200))
        messages = [client_build_messages(ds, FOUR_INTERVALS, 250.0) for ds in datasets]
        coreset, _ = server_assemble(messages, FOUR_INTERVALS, 250.0)
        assert coreset.total_weight == pytest.approx(sum(0.5 * 200 / 201 for _ in datasets), abs=1e-9)
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + messages, FOUR_INTERVALS, 250.0)
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + messages[-1:], FOUR_INTERVALS, 250.0)

    def test_rejects_unconserved_weight(self):
        rng = np.random.default_rng(13)
        datasets = uniform_clients(rng, (200, 100))
        messages = [client_build_messages(ds, FOUR_INTERVALS, 250.0) for ds in datasets]
        for bad in (replace(messages[1], n=101), replace(messages[1], pi=0.5 * (1 + 1e-8))):
            with pytest.raises(ProtocolError, match="weight"):
                server_assemble([messages[0], bad], FOUR_INTERVALS, 250.0)

    def test_mixture_validation(self):
        rng = np.random.default_rng(10)
        bad = [
            ClientDataset(1, rng.uniform(0, 5, 5), rng.random(5), 0.6),
            ClientDataset(2, rng.uniform(0, 5, 5), rng.random(5), 0.6),
        ]
        messages = [client_build_messages(ds, FOUR_INTERVALS, 50.0) for ds in bad]
        with pytest.raises(ProtocolError, match="mixture"):
            server_assemble(messages, FOUR_INTERVALS, 50.0)
        with pytest.raises(ProtocolError, match="mixture"):
            run_round(bad, FOUR_INTERVALS, 50.0)

    def test_empty_client_enters_test_weight(self):
        rng = np.random.default_rng(14)
        datasets = [
            ClientDataset(1, rng.uniform(0, 5, 99), rng.random(99), 0.75),
            ClientDataset(2, np.array([]), np.array([]), 0.25),
        ]
        round_ = run_round(datasets, FOUR_INTERVALS, 50.0)
        assert len(round_.messages) == 2 and round_.messages[1].digests == ()
        assert round_.test_weight == 0.75 / 100 + 0.25

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
        _, test_weight = server_assemble(messages, FOUR_INTERVALS, 50.0)
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


@pytest.mark.parametrize("name", sorted(FEDERATIONS))
def test_round_is_bit_identical_to_loop_reference(name):
    make, family, delta = FEDERATIONS[name]
    datasets = make()
    ref_lines, ref_entries, ref_per_atom = reference_round(datasets, family, delta)

    lines = [message_to_json(client_build_messages(ds, family, delta)) for ds in datasets]
    assert lines == ref_lines
    round_ = run_round(datasets, family, delta)
    assert [message_to_json(m) for m in round_.messages] == ref_lines
    assert round_.wire_bytes == sum(len(line.encode("utf-8")) for line in ref_lines)
    assert round_.test_weight == sum(ds.pi / (ds.n + 1) for ds in datasets)

    entries = round_.coreset.entries
    assert list(
        zip(map(tuple, entries["atom"].tolist()), entries["mean"].tolist(), entries["weight"].tolist())
    ) == ref_entries
    assert list(round_.coreset.per_atom_digests) == list(ref_per_atom)
    for atom, (means, weights, total) in ref_per_atom.items():
        digest = round_.coreset.per_atom_digests[atom]
        assert np.array_equal(digest.means(), means)
        assert np.array_equal(digest.weights(), weights)
        assert digest.total_weight == total

    data = CalibrationData.from_coreset(round_.coreset, round_.test_weight)
    ref_data = CalibrationData(
        np.array([atom for atom, _, _ in ref_entries], dtype=float),
        np.array([m for _, m, _ in ref_entries]),
        np.array([w for _, _, w in ref_entries]),
        sum(ds.pi / (ds.n + 1) for ds in datasets),
    )
    for pattern in list(ref_per_atom)[:2]:
        assert threshold_search(data, pattern, 0.1) == threshold_search(ref_data, pattern, 0.1)

