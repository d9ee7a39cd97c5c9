import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    validate_mixture,
)
from gcfcp.federation import test_term_weight as term_weight
from gcfcp.groups import SINGLE_GROUP, interval_family
from gcfcp.tdigest import DigestError
from reference import approx_quantile, reference_round

FOUR_INTERVALS = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])


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
        messages = client_build_messages(ds, FOUR_INTERVALS, 100.0)
        total = sum(m.digest.total_weight for m in messages)
        assert total == pytest.approx(10 * 0.5 / 11, abs=1e-12)
        for m in messages:
            assert m.client_id == 3
            assert m.digest.total_weight <= 0.5 * 10 / 11 + 1e-9

    def test_empty_client_sends_nothing(self):
        ds = ClientDataset(1, np.array([]), np.array([]), 1.0)
        assert client_build_messages(ds, FOUR_INTERVALS, 100.0) == []

    def test_lossless_digest_matches_weighted_quantile(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        ds = ClientDataset(1, np.full(40, 2.5), scores, 1.0)
        (msg,) = client_build_messages(ds, FOUR_INTERVALS, 2500.0)
        assert len(msg.digest) == 40  # every sample its own cluster
        s = np.sort(scores)
        for u in (0.1, 0.5, 0.9):
            exact = s[min(int(math.ceil(u * 40)) - 1, 39)]
            assert approx_quantile(msg.digest, u) == pytest.approx(exact)


class TestWire:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(2)
        ds = ClientDataset(2, rng.uniform(0, 5, 200), rng.random(200), 1.0)
        for msg in client_build_messages(ds, FOUR_INTERVALS, 50.0):
            line = message_to_json(msg)
            back = message_from_json(line)
            assert back.client_id == msg.client_id
            assert back.atom == msg.atom
            assert np.array_equal(back.digest.means(), msg.digest.means())
            assert np.array_equal(back.digest.weights(), msg.digest.weights())
            assert back.digest.compression == msg.digest.compression
            # the wire carries clusters only; the parsed total is their sum
            assert back.digest.total_weight == pytest.approx(
                msg.digest.total_weight, rel=1e-12
            )
            assert message_to_json(back) == line

    def test_wire_schema(self):
        ds = ClientDataset(7, np.array([0.5]), np.array([1.25]), 1.0)
        (msg,) = client_build_messages(ds, FOUR_INTERVALS, 25.0)
        obj = json.loads(message_to_json(msg))
        assert obj == {
            "client_id": 7,
            "atom": "1000",
            "compression": 25.0,
            "clusters": [[1.25, 0.5]],
        }

    def test_rejects_malformed(self):
        with pytest.raises(ProtocolError):
            message_from_json("not json")
        with pytest.raises(ProtocolError):
            message_from_json("{}")
        with pytest.raises(ProtocolError):
            message_from_json('{"client_id": 1, "atom": "0000", "compression": 25, "clusters": [[1, 1]]}')
        with pytest.raises(ProtocolError):
            message_from_json('{"client_id": 1, "atom": "10x0", "compression": 25, "clusters": [[1, 1]]}')

    @pytest.mark.parametrize(
        "clusters",
        [
            "[[NaN, 1.0]]",
            "[[1.0, Infinity]]",
            "[[1.0, 1.0], [-Infinity, 1.0]]",
            "[[1.0, NaN]]",
            "[[1e400, 1.0]]",
        ],
    )
    def test_rejects_non_finite_clusters(self, clusters):
        line = '{"client_id": 1, "atom": "1000", "compression": 25, "clusters": %s}' % clusters
        with pytest.raises(DigestError):
            message_from_json(line)

    @pytest.mark.parametrize("compression", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_compression(self, compression):
        line = '{"client_id": 1, "atom": "1000", "compression": %s, "clusters": [[1.0, 1.0]]}' % compression
        with pytest.raises(DigestError):
            message_from_json(line)

    @given(
        client_id=st.integers(0, 10**9),
        atom=st.text("01", min_size=1, max_size=70).filter(lambda a: "1" in a),
        compression=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        pairs=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_codec_round_trip_is_byte_exact(self, client_id, atom, compression, pairs):
        line = json.dumps(
            {
                "client_id": client_id,
                "atom": atom,
                "compression": compression,
                "clusters": [list(p) for p in sorted(pairs, key=lambda p: p[0])],
            }
        )
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


class TestServer:
    def test_merge_of_one(self):
        rng = np.random.default_rng(5)
        ds = ClientDataset(1, np.full(30, 1.5), rng.random(30), 1.0)
        messages = client_build_messages(ds, FOUR_INTERVALS, 50.0)
        coreset = server_assemble(messages, 50.0)
        digest = messages[0].digest
        assert list(zip(coreset.entries["mean"].tolist(), coreset.entries["weight"].tolist())) == list(
            zip(digest.means().tolist(), digest.weights().tolist())
        )

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
        coreset = server_assemble(ma + mb, 50.0)
        assert len(coreset) == len(ma[0].digest) + len(mb[0].digest)

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
            server_assemble([], 50.0)
        rng = np.random.default_rng(9)
        m1 = client_build_messages(
            ClientDataset(1, rng.uniform(0, 5, 10), rng.random(10), 1.0),
            FOUR_INTERVALS,
            50.0,
        )
        m2 = client_build_messages(
            ClientDataset(2, rng.uniform(0, 5, 10), rng.random(10), 1.0),
            SINGLE_GROUP,
            50.0,
        )
        with pytest.raises(ProtocolError):
            server_assemble(m1 + m2, 50.0)

    def test_rejects_other_compression(self):
        rng = np.random.default_rng(11)
        ds = ClientDataset(1, rng.uniform(0, 5, 50), rng.random(50), 1.0)
        with pytest.raises(ProtocolError, match="compression"):
            server_assemble(client_build_messages(ds, FOUR_INTERVALS, 5.0), 250.0)
        good = client_build_messages(ds, FOUR_INTERVALS, 250.0)
        other = ClientDataset(2, rng.uniform(0, 5, 50), rng.random(50), 1.0)
        with pytest.raises(ProtocolError, match="compression"):
            server_assemble(good + client_build_messages(other, FOUR_INTERVALS, 5.0), 250.0)

    def test_rejects_duplicate_client_atom(self):
        rng = np.random.default_rng(12)
        datasets = uniform_clients(rng, (200, 200))
        messages = [
            m for ds in datasets for m in client_build_messages(ds, FOUR_INTERVALS, 250.0)
        ]
        assert server_assemble(messages, 250.0).total_weight == pytest.approx(
            sum(0.5 * 200 / 201 for _ in datasets), abs=1e-9
        )
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + messages, 250.0)
        with pytest.raises(ProtocolError, match="duplicate"):
            server_assemble(messages + messages[-1:], 250.0)

    def test_mixture_validation(self):
        rng = np.random.default_rng(10)
        bad = [
            ClientDataset(1, rng.uniform(0, 5, 5), rng.random(5), 0.6),
            ClientDataset(2, rng.uniform(0, 5, 5), rng.random(5), 0.6),
        ]
        with pytest.raises(ProtocolError):
            validate_mixture(bad)
        with pytest.raises(ProtocolError):
            run_round(bad, FOUR_INTERVALS, 50.0)

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

    lines = [
        message_to_json(m)
        for ds in datasets
        for m in client_build_messages(ds, family, delta)
    ]
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

