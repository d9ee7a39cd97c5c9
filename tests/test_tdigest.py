import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcfcp import tdigest
from gcfcp.federation import ClientMessage, ProtocolError, message_from_json, message_to_json
from reference import approx_cdf, approx_quantile, reference_build, reference_line, reference_merge, scale
from gcfcp.tdigest import (
    Digest,
    DigestError,
    build_digest_arrays,
    max_cluster_mass,
    merge,
)


def build(values, delta, weights=None):
    """``build_digest_arrays`` with unit weights unless given."""
    values = np.asarray(values, dtype=float)
    return build_digest_arrays(values, np.ones(values.size) if weights is None else weights, delta)


def to_wire(digest):
    """A federation wire line whose one atom carries the digest."""
    message = ClientMessage(1, len(digest), 1.0, digest.compression, "", ((1,),), (digest,))
    return message_to_json(message)


def from_wire(line):
    """The digest of a one-atom wire line, decoded as the server does."""
    (digest,) = message_from_json(line).digests
    return digest


def wire(pairs, delta=25.0, count=None):
    """A one-atom wire line packing the (mean, weight) pairs as given."""
    line = reference_line(1, len(pairs), 1.0, delta, "", ["1"], [pairs])
    return line if count is None else line.replace('"counts":[%d]' % len(pairs), f'"counts":{count}')


def exact_cdf(values, weights, t):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return float(weights[values <= t].sum() / weights.sum())


class TestScale:
    def test_midpoint_is_zero(self):
        assert scale(0.5, 100.0) == 0.0

    def test_endpoints(self):
        assert scale(1.0, 100.0) == pytest.approx(25.0)
        assert scale(0.0, 100.0) == pytest.approx(-25.0)

    def test_domain_errors(self):
        with pytest.raises(DigestError):
            scale(-0.1, 100.0)
        with pytest.raises(DigestError):
            scale(1.1, 100.0)
        with pytest.raises(DigestError):
            scale(0.5, 0.0)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(2.0, 500.0))
    def test_monotone_increasing(self, q1, q2, delta):
        lo, hi = sorted([q1, q2])
        assert scale(lo, delta) <= scale(hi, delta)
        if hi - lo > 1e-6:
            assert scale(lo, delta) < scale(hi, delta)


class TestBuild:
    def test_single_sample(self):
        d = build([2.0], 25.0)
        assert len(d) == 1
        assert (d.means()[0], d.weights()[0]) == (2.0, 1.0)
        assert d.total_weight == 1.0

    def test_five_samples_delta_4(self):
        # greedy pass by hand at delta=4: q after samples 1..5 are .2,.4,.6,.8,1;
        # r jumps allow {1,2} and {3,4} to merge, 5 stands alone
        d = build([1, 2, 3, 4, 5], 4.0)
        assert list(zip(d.means().tolist(), d.weights().tolist())) == [
            (1.5, 2.0),
            (3.5, 2.0),
            (5.0, 1.0),
        ]
        assert 2 <= len(d) <= 5
        assert sum(d.weights().tolist()) == pytest.approx(5.0)

    def test_mass_bound_uniform(self):
        rng = np.random.default_rng(0)
        d = build(rng.random(1000), 100.0)
        bound = math.sin(math.pi / 100.0)
        assert max_cluster_mass(d) <= bound + 1e-12

    def test_errors(self):
        with pytest.raises(DigestError):
            build([], 25.0)
        with pytest.raises(DigestError):
            build([1.0], 25.0, weights=[0.0])
        with pytest.raises(DigestError):
            build([math.nan], 25.0)
        with pytest.raises(DigestError):
            build([1.0], 1.5)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=300),
        st.floats(2.0, 300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_random(self, values, delta):
        d = build(values, delta)
        means = d.means()
        assert np.all(np.diff(means) >= 0)
        assert d.total_weight == pytest.approx(len(values), rel=1e-9)
        assert sum(d.weights().tolist()) == pytest.approx(
            d.total_weight, rel=1e-9
        )
        # determinism: same input, same digest
        assert build(values, delta) == d

    def test_cluster_count_range_unit_weights(self):
        rng = np.random.default_rng(1)
        for delta in (10.0, 50.0, 101.0):
            ell = 5000
            d = build(rng.random(ell), delta)
            assert math.ceil(delta / 2) <= len(d) <= min(ell, math.ceil(delta) + 2)


class TestQueries:
    def test_cdf_single_cluster(self):
        d = build([2.0], 25.0)
        assert approx_cdf(d, 1.9) == 0.0
        assert approx_cdf(d, 2.0) == 1.0

    def test_cdf_two_clusters(self):
        d = Digest(
            means=[1.0, 3.0],
            weights=[0.5, 0.5],
            compression=25.0,
            total_weight=1.0,
        )
        assert approx_cdf(d, 2.0) == 0.5

    def test_quantile_examples(self):
        single = build([2.0], 25.0)
        assert approx_quantile(single, 0.7) == 2.0
        two = Digest(
            means=[1.0, 3.0],
            weights=[0.5, 0.5],
            compression=25.0,
            total_weight=1.0,
        )
        assert approx_quantile(two, 0.5) == 1.0
        assert approx_quantile(two, 0.75) == 3.0

    def test_quantile_domain(self):
        d = build([2.0], 25.0)
        with pytest.raises(DigestError):
            approx_quantile(d, 0.0)
        with pytest.raises(DigestError):
            approx_quantile(d, 1.5)

    def test_cdf_uniform_error_bound(self):
        """Uniform sketch-CDF error stays below sin(pi/delta)."""
        rng = np.random.default_rng(2)
        for delta in (25.0, 100.0):
            values = rng.normal(size=2000)
            weights = np.ones(2000)
            d = build(values, delta)
            bound = math.sin(math.pi / delta)
            probe = np.concatenate([values, d.means()])
            for t in probe[:: 7]:
                assert abs(exact_cdf(values, weights, t) - approx_cdf(d, t)) <= bound

    def test_quantile_rank_bound(self):
        rng = np.random.default_rng(3)
        values = rng.random(3000)
        weights = np.ones(3000)
        for delta in (25.0, 250.0):
            d = build(values, delta)
            for u in np.arange(0.01, 1.0, 0.01):
                t = approx_quantile(d, float(u))
                assert abs(exact_cdf(values, weights, t) - u) <= math.pi / delta + 1e-12


class TestMerge:
    def test_self_merge_doubles_weight(self):
        d = build([1, 2, 3, 4], 25.0)
        m = merge([d, d], 25.0)
        assert m.total_weight == pytest.approx(2 * d.total_weight, rel=1e-12)
        assert d.means().min() <= m.means().min()
        assert m.means().max() <= d.means().max()

    def test_recompress_never_splits(self):
        d = build(np.linspace(0, 1, 50), 10.0)
        m = merge([d], 10.0)
        assert m.total_weight == d.total_weight
        assert len(m) <= len(d)

    def test_disjoint_clients_median(self):
        rng = np.random.default_rng(4)
        digests = [
            build(rng.random(200) + 2 * k, 50.0)
            for k in range(5)
        ]
        merged = merge(digests, 50.0)
        med = approx_quantile(merged, 0.5)
        # client 3 (index 2) occupies [4, 5]
        assert digests[2].means().min() <= med <= digests[2].means().max()

    def test_empty_merge_rejected(self):
        with pytest.raises(DigestError):
            merge([], 25.0)

    @given(
        st.lists(
            st.lists(st.floats(-10, 10), min_size=1, max_size=50),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_weight_conservation(self, groups):
        digests = [build(g, 30.0) for g in groups]
        m = merge(digests, 30.0)
        total = 0.0
        for d in digests:
            total += d.total_weight
        assert m.total_weight == total  # exact: fixed summation order


class TestMaxClusterMass:
    def test_single(self):
        d = build([1.0], 25.0, weights=[2.0])
        assert max_cluster_mass(d) == 1.0

    def test_two_equal(self):
        d = Digest(
            means=[0.0, 1.0],
            weights=[1.0, 1.0],
            compression=25.0,
            total_weight=2.0,
        )
        assert max_cluster_mass(d) == 0.5

    def test_large_corpus_delta_25(self):
        rng = np.random.default_rng(5)
        d = build(rng.random(10_000), 25.0)
        assert max_cluster_mass(d) <= math.sin(math.pi / 25.0)

    def test_singleton_overflow_weakened_bound(self):
        # one heavy sample dominates: bound degrades to its own mass fraction
        d = build(range(30), 25.0, weights=[10.0] + [1.0] * 29)
        heaviest = 10.0 / d.total_weight
        assert max_cluster_mass(d) <= max(math.sin(math.pi / 25.0), heaviest) + 1e-12


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(6)
        d = build(rng.normal(size=500), 50.0)
        back = from_wire(to_wire(d))
        assert np.array_equal(back.means(), d.means())
        assert np.array_equal(back.weights(), d.weights())
        assert back.compression == d.compression
        assert to_wire(back) == to_wire(d)

    def test_wire_shape(self):
        d = build([1.0], 25.0, weights=[2.0])
        obj = json.loads(to_wire(d))
        assert (obj["delta"], obj["atoms"], obj["counts"]) == (25.0, ["1"], [1])
        assert np.frombuffer(base64.b64decode(obj["data"]), "<f8").tolist() == [1.0, 2.0]

    def test_reject_unsorted(self):
        with pytest.raises(ProtocolError):
            from_wire(wire([(2.0, 1.0), (1.0, 1.0)]))

    def test_reject_nonpositive_weight(self):
        with pytest.raises(ProtocolError):
            from_wire(wire([(1.0, 0.0)]))

    def test_reject_garbage(self):
        with pytest.raises(ProtocolError):
            from_wire('{"clusters": []}')

    @pytest.mark.parametrize(
        "payload",
        [
            wire([]),
            wire([(1.0, 1.0), (1.0, 0.5)], count=[3]),
            wire([(1.0, 1.0), (2.0, 1.0)], count=[1]),
            wire([(1.0, 1.0)], count='"ab"'),
            wire([(1.0, 1.0)], count="[null]"),
            wire([(1.0, 1.0)], count="[1.0]"),
            wire([(1.0, 1.0)], delta=-1.0),
        ],
    )
    def test_reject_malformed_clusters(self, payload):
        with pytest.raises(ProtocolError):
            from_wire(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            wire([(1.0, 1.0)]).replace('"delta":25.0', '"delta":NaN'),
            wire([(1.0, 1.0)]).replace('"delta":25.0', '"delta":Infinity'),
            wire([(1.0, 1.0)]).replace('"delta":25.0', '"delta":-Infinity'),
            wire([(math.nan, 1.0)]),
            wire([(1.0, 1.0), (-math.inf, 1.0)]),
            wire([(1.0, math.inf)]),
            wire([(1.0, math.nan)]),
            wire([(math.nan, 1.0), (1.0, math.inf)]).replace('"delta":25.0', '"delta":NaN'),
            wire([(1.0, 1e308), (2.0, 1e308)]),
        ],
    )
    def test_reject_non_finite(self, payload):
        with pytest.raises(ProtocolError):
            from_wire(payload)

    def test_parsed_total_is_sequential_sum(self):
        weights = [0.1, 0.2, 0.3, 1e-17, 0.7]
        d = from_wire(wire([(float(i), w) for i, w in enumerate(weights)]))
        total = 0.0
        for w in weights:
            total += w
        assert d.total_weight == total


class TestDigestArrays:
    def test_arrays_are_read_only_copies(self):
        means = np.array([1.0, 2.0])
        d = Digest(means=means, weights=[1.0, 1.0], compression=25.0, total_weight=2.0)
        means[0] = 9.0
        assert d.means().tolist() == [1.0, 2.0]
        assert d.means().dtype == np.float64 and d.weights().dtype == np.float64
        with pytest.raises(ValueError):
            d.means()[0] = 0.0
        with pytest.raises(ValueError):
            d.weights()[0] = 0.0
        with pytest.raises(AttributeError):
            d.total_weight = 3.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DigestError):
            Digest(means=[1.0, 2.0], weights=[1.0], compression=25.0, total_weight=1.0)

    def test_equality_is_exact(self):
        a = Digest(means=[1.0, 2.0], weights=[1.0, 1.0], compression=25.0, total_weight=2.0)
        assert a == Digest(means=[1.0, 2.0], weights=[1.0, 1.0], compression=25.0, total_weight=2.0)
        assert a != Digest(means=[1.0, np.nextafter(2.0, 3.0)], weights=[1.0, 1.0], compression=25.0, total_weight=2.0)
        assert a != Digest(means=[1.0, 2.0], weights=[1.0, 1.0], compression=50.0, total_weight=2.0)
        assert a != Digest(means=[1.0], weights=[2.0], compression=25.0, total_weight=2.0)


def assert_matches(digest, ref):
    means, weights, total = ref
    assert np.array_equal(digest.means(), means)
    assert np.array_equal(digest.weights(), weights)
    assert digest.total_weight == total


def random_samples(seed, n, ties, weight_kind):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    if ties:
        values = np.round(values, 1)  # many exact ties; stable order decides
    if weight_kind == "unit":
        weights = np.ones(n)
    elif weight_kind == "uniform":
        weights = rng.random(n) + 1e-3
    else:  # ten orders of magnitude
        weights = 10.0 ** rng.uniform(-5.0, 5.0, n)
    return values, weights


SAMPLE_PARAMS = dict(
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    weight_kind=st.sampled_from(["unit", "uniform", "spread"]),
    delta=st.sampled_from([2.0, 5.0, 25.0, 250.0]),
)


class TestMatchesReferenceLoop:
    @given(n=st.integers(1, 3000), **SAMPLE_PARAMS)
    @settings(max_examples=120, deadline=None)
    def test_build(self, n, seed, ties, weight_kind, delta):
        values, weights = random_samples(seed, n, ties, weight_kind)
        digest = tdigest.build_digest_arrays(values, weights, delta)
        assert_matches(digest, reference_build(values, weights, delta))

    @given(
        sizes=st.lists(st.integers(1, 600), min_size=1, max_size=6),
        **SAMPLE_PARAMS,
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_chain(self, sizes, seed, ties, weight_kind, delta):
        digests, refs = [], []
        for k, n in enumerate(sizes):
            values, weights = random_samples(seed + k, n, ties, weight_kind)
            digests.append(tdigest.build_digest_arrays(values, weights, delta))
            refs.append(reference_build(values, weights, delta))
            assert_matches(digests[-1], refs[-1])
        # one multi-way merge, then a left-to-right chain of pairwise merges
        assert_matches(merge(digests, delta), reference_merge(refs, delta))
        chain, chain_ref = digests[0], refs[0]
        for d, ref in zip(digests[1:], refs[1:]):
            chain = merge([chain, d], delta)
            chain_ref = reference_merge([chain_ref, ref], delta)
            assert_matches(chain, chain_ref)

    def test_tiny_weight_increments(self):
        # weights far below one ulp of the running total leave q (and r)
        # flat or moving by single ulps, where arcsin need not be monotone
        rng = np.random.default_rng(7)
        for delta in (2.0, 5.0, 25.0, 250.0):
            values = np.round(rng.random(2000), 2)
            weights = 10.0 ** rng.uniform(-18.0, 0.0, 2000)
            digest = tdigest.build_digest_arrays(values, weights, delta)
            assert_matches(digest, reference_build(values, weights, delta))

    @given(
        st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=200),
        st.sampled_from([2.0, 5.0, 25.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cluster_starts_on_any_scale_sequence(self, r, delta):
        # the boundary search must match the loop even where r is not sorted
        r = np.array(r)
        starts, left = [0], -delta / 4.0
        for i in range(1, r.size):
            if not r[i] - left <= 1.0 + 1e-12:
                starts.append(i)
                left = r[i - 1]
        assert tdigest._cluster_starts(r, delta).tolist() == starts
