import base64
import bisect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcfcp import tdigest
from gcfcp.federation import ClientMessage, ProtocolError, cluster_weights, message_from_json, message_to_json
from conftest import SUM_TOL, assert_close_to_reference, recorded_cluster_sizes
from reference import (
    approx_cdf,
    approx_quantile,
    max_cluster_mass,
    reference_clusters,
    reference_line,
    reference_merge,
    scale,
)
from gcfcp.tdigest import Digest, DigestError, build_digest_arrays, merge


def build(values, delta, weights=None):
    """``build_digest_arrays`` with unit weights unless given."""
    values = np.asarray(values, dtype=float)
    return build_digest_arrays(values, np.ones(values.size) if weights is None else weights, delta)


def to_wire(values, delta):
    """A federation wire line whose one atom carries the client sketch of
    ``values``: each cluster's weight is its sample count (under pi = 1
    each value weighs 1 / (n + 1) on the server)."""
    n = len(values)
    means, sizes, _ = tdigest._count_segments(np.sort(values), delta, [n])
    message = ClientMessage(1, n, 1.0, delta, "", ((1,),), (len(means),), means, sizes)
    return message_to_json(message)


def from_wire(line):
    """The message of a one-atom wire line, decoded as the server does."""
    message = message_from_json(line)
    assert message.atoms == ((1,),)
    return message


def wire(pairs, delta=25.0, count=None, n=None):
    """A one-atom wire line packing the (mean, sample count) pairs as given;
    n is the sum of the counts unless given."""
    n = sum(c for _, c in pairs) if n is None else n
    line = reference_line(1, n, 1.0, delta, "", ["1"], [pairs])
    return line if count is None else line.replace('"counts":[%d]' % len(pairs), f'"counts":{count}')


def exact_cdf(values, weights, t):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return float(weights[values <= t].sum() / weights.sum())


def test_readme_states_the_walk_cutoff():
    """README's sketching item gives the segment length past which cluster
    starts are walked as ``tdigest._WALK_AFTER`` times delta."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    item = readme.split("1. **Sketching**")[1].split("2. **Groups and atoms**")[0]
    assert re.findall(r"longer than (\d+) `delta`", item) == [str(tdigest._WALK_AFTER)]


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
        # a segment whose total weight overflows, with no overflow warning
        with pytest.raises(DigestError, match="total weight must be finite"):
            build_digest_arrays([1, 2, 3], [1e308] * 3, 25)
        heavy = [build([x], 25.0, weights=[1e308]) for x in (1.0, 2.0)]
        with pytest.raises(DigestError, match="total weight must be finite"):
            merge(heavy, 25.0)
        # values and weights must be 1-d and of equal length
        for values, weights in (
            ([1.0, 2.0], [1.0, 1.0, 5.0]),
            ([1.0, 2.0, 3.0], [1.0, 1.0]),
            ([[1.0, 2.0]], [[1.0, 1.0]]),
        ):
            with pytest.raises(DigestError, match="1-d arrays of equal length"):
                build_digest_arrays(values, weights, 25.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(DigestError, match="sample weights must be positive and finite"):
            tdigest._build_segments(np.array([1.0, 2.0]), np.full(2, weight), 25.0, [2])

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_compression_rejected(self, delta):
        with pytest.raises(DigestError, match="compression"):
            build_digest_arrays(np.array([1.0, 2.0]), np.ones(2), delta)

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
        # unit weights: every total is an exact integer
        assert m.total_weight == sum(d.total_weight for d in digests) == sum(map(len, groups))


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
        values = rng.normal(size=500)
        means, sizes, _ = tdigest._count_segments(np.sort(values), 50.0, [500])
        back = from_wire(to_wire(values, 50.0))
        assert back.means.tobytes() == means.tobytes()
        assert back.sizes.tolist() == sizes.tolist()
        # the server weighs each cluster as its sample count times 1 / (n + 1)
        assert cluster_weights([back])[0].tobytes() == (sizes * (1.0 / 501)).tobytes()
        assert back.delta == 50.0
        assert message_to_json(back) == to_wire(values, 50.0)

    def test_wire_shape(self):
        obj = json.loads(to_wire(np.array([1.0]), 25.0))
        assert (obj["delta"], obj["atoms"], obj["counts"]) == (25.0, ["1"], [1])
        assert base64.b64decode(obj["data"]) == np.float64(1.0).tobytes() + bytes([1])

    def test_reject_unsorted(self):
        with pytest.raises(ProtocolError):
            from_wire(wire([(2.0, 1), (1.0, 1)]))

    def test_reject_zero_count(self):
        with pytest.raises(ProtocolError):
            from_wire(wire([(1.0, 0)], n=1))

    def test_reject_garbage(self):
        with pytest.raises(ProtocolError):
            from_wire('{"clusters": []}')

    @pytest.mark.parametrize(
        "payload",
        [
            wire([]),
            wire([(1.0, 1), (1.0, 1)], count=[3]),
            wire([(1.0, 1), (2.0, 1)], count=[1]),
            wire([(1.0, 1)], count='"ab"'),
            wire([(1.0, 1)], count="[null]"),
            wire([(1.0, 1)], count="[1.0]"),
            wire([(1.0, 1)], delta=-1.0),
        ],
    )
    def test_reject_malformed_clusters(self, payload):
        with pytest.raises(ProtocolError):
            from_wire(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            wire([(1.0, 1)]).replace('"delta":25.0', '"delta":NaN'),
            wire([(1.0, 1)]).replace('"delta":25.0', '"delta":Infinity'),
            wire([(1.0, 1)]).replace('"delta":25.0', '"delta":-Infinity'),
            wire([(math.nan, 1)]),
            wire([(1.0, 1), (-math.inf, 1)]),
            wire([(math.nan, 1), (1.0, 1)]).replace('"delta":25.0', '"delta":NaN'),
        ],
    )
    def test_reject_non_finite(self, payload):
        with pytest.raises(ProtocolError):
            from_wire(payload)


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


def with_sizes(make, *args):
    """``make(*args)``, and the sample counts of the clusters of the one
    sketch pass it runs."""
    with recorded_cluster_sizes() as passes:
        digest = make(*args)
    (sizes,) = passes
    return digest, sizes


def assert_matches(digest, sizes, ref):
    """The loop's cluster edges, and sums and total within its bound."""
    assert sizes == ref[2]
    assert abs(digest.total_weight - ref[4]) <= SUM_TOL * ref[4]
    assert_close_to_reference(ref, digest.means(), digest.weights())


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
        digest, sizes = with_sizes(build_digest_arrays, values, weights, delta)
        assert_matches(digest, sizes, reference_clusters(values, weights, delta))

    @given(
        sizes=st.lists(st.integers(1, 600), min_size=1, max_size=6),
        **SAMPLE_PARAMS,
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_chain(self, sizes, seed, ties, weight_kind, delta):
        digests = []
        for k, n in enumerate(sizes):
            values, weights = random_samples(seed + k, n, ties, weight_kind)
            digest, cl_sizes = with_sizes(build_digest_arrays, values, weights, delta)
            assert_matches(digest, cl_sizes, reference_clusters(values, weights, delta))
            digests.append(digest)
        # one multi-way merge, then a left-to-right chain of pairwise merges,
        # each against the loop on the same digests
        assert_matches(*with_sizes(merge, digests, delta), reference_merge(digests, delta))
        chain = digests[0]
        for d in digests[1:]:
            pair = [chain, d]
            chain, chain_sizes = with_sizes(merge, pair, delta)
            assert_matches(chain, chain_sizes, reference_merge(pair, delta))

    def test_merge_chain_drift(self):
        # 60 pairwise merges, left to right, each merging its own last
        # result: over tied values and weights over ten orders of magnitude,
        # every merge keeps the loop's cluster edges on its inputs, and its
        # sums stay within the loop's bound
        rng = np.random.default_rng(8)
        for delta in (5.0, 25.0, 250.0):
            for ties, weight_kind in ((False, "uniform"), (True, "unit"), (True, "spread")):
                chain = None
                for _ in range(61):
                    n = int(rng.integers(50, 400))
                    values, weights = random_samples(int(rng.integers(2**32)), n, ties, weight_kind)
                    d = build_digest_arrays(values, weights, delta)
                    if chain is None:
                        chain = d
                        continue
                    pair = [chain, d]
                    chain, sizes = with_sizes(merge, pair, delta)
                    assert_matches(chain, sizes, reference_merge(pair, delta))

    def test_tiny_weight_increments(self):
        # weights far below one ulp of the running total leave q (and r)
        # flat or moving by single ulps, where arcsin need not be monotone
        rng = np.random.default_rng(7)
        for delta in (2.0, 5.0, 25.0, 250.0):
            values = np.round(rng.random(2000), 2)
            weights = 10.0 ** rng.uniform(-18.0, 0.0, 2000)
            digest, sizes = with_sizes(build_digest_arrays, values, weights, delta)
            assert_matches(digest, sizes, reference_clusters(values, weights, delta))

    def test_extreme_values_keep_finite_means(self):
        # a sum of the products w * v would overflow here, so the sum is of
        # the shares w / W times v; even that sum can round past the float
        # range (eleven samples of the float maximum do), and the clamp to
        # the cluster's range brings it back
        top = np.finfo(float).max
        for values, weights, mean in (
            ([-1e300, 1e300], [1e10, 1e10], 0.0),
            ([1e308, 1.5e308], [1.0, 1.0], 1.25e308),
            ([top] * 11, [1.0] * 11, top),
            ([-top] * 11, [1.0] * 11, -top),
        ):
            digest, sizes = with_sizes(build_digest_arrays, values, weights, 2.0)
            assert digest.means().tolist() == [mean]
            assert_matches(digest, sizes, reference_clusters(values, weights, 2.0))

    @given(
        st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=50),
        st.sampled_from([2.0, 5.0, 25.0, 250.0]),
        st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), min_size=1, max_size=4),
        st.sampled_from(["as drawn", "sorted", "on the span"]),
        st.sampled_from([None, "1 ulp", "0.5"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_cluster_starts_on_any_scale_sequence(self, drawn, delta, segments, shape, dip, seed):
        # _cluster_starts must match the loop on segments both longer than the
        # walk's cutoff, _WALK_AFTER * delta samples, and not, at every delta:
        # where r repeats the drawn values (unsorted, or constant), where each
        # segment is sorted with ties, and "on the span": every sample within
        # an ulp of the span of the one p before it, from -delta / 4 up, so
        # that the exact test and a bisect on left + span disagree where
        # r - left rounds. Also where one sample dips below the one before it,
        # inside a walk-length segment if there is one, which must then take
        # the loop. Every segment starts a cluster at left edge -delta / 4.
        rng = np.random.default_rng(seed)
        cutoff = int(tdigest._WALK_AFTER * delta)
        sizes = [cutoff + 1 + k % 100 if long else 1 + k % cutoff for long, k in segments]
        bounds = np.cumsum([0, *sizes]).tolist()
        if shape == "as drawn":
            r = np.resize(np.array(drawn), bounds[-1])
        elif shape == "sorted":
            r = np.concatenate([np.sort(np.round(rng.uniform(-30.0, 30.0, n), 1)) for n in sizes])
        else:
            runs = []
            for n in sizes:
                p, run = rng.integers(2, 11), np.empty(n)
                run[:p] = (-delta / 4.0 + np.arange(1, p + 1) * ((1.0 + 1e-12) / p))[:n]
                for i in range(p, n):
                    run[i] = run[i - p] + (1.0 + 1e-12)
                runs.append(np.nextafter(run, run + rng.integers(-1, 2, n)))  # -1, 0 or +1 ulp
            r = np.concatenate(runs)

        def loop_starts():
            starts = []
            for i in range(r.size):
                if i in bounds:
                    left = -delta / 4.0
                elif r[i] - left <= 1.0 + 1e-12:
                    continue
                else:
                    left = r[i - 1]
                starts.append(i)
            return starts

        if dip and r.size > 1:
            # at a cluster start where there is one, so that the dipped
            # sample joins the cluster that it ended
            inner = [i for i in loop_starts() if i not in bounds]
            walkable = [i for i in inner if sizes[bisect.bisect(bounds, i) - 1] > cutoff]
            pool = walkable or inner or [rng.integers(1, r.size)]
            i = pool[rng.integers(len(pool))]
            r[i] = np.nextafter(r[i - 1], -np.inf) if dip == "1 ulp" else r[i - 1] - 0.5
        starts = loop_starts()
        heads, ends = np.array(bounds[:-1]), np.array(bounds[1:])
        assert tdigest._cluster_starts(r, delta, heads, ends).tolist() == starts

    @given(
        n=st.integers(1, 8000),
        segment_count=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        delta=st.sampled_from([2.0, 5.0, 25.0, 250.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_unit_weights_match_the_loop(self, n, segment_count, seed, ties, delta):
        # the client's count builder, on segments both shorter and longer
        # than the walk's cutoff: each cluster's sample count is the loop's,
        # its mean lies within the loop's bound, and means, counts and
        # cluster counts are the weighted builder's at unit weights, bit for bit
        values, _ = random_samples(seed, n, ties, "unit")
        segments = np.random.default_rng(seed + 1).integers(0, segment_count, n)
        order = np.lexsort((values, segments))
        sizes = np.bincount(segments, minlength=segment_count)
        with recorded_cluster_sizes() as passes:
            means, lengths, counts = tdigest._count_segments(values[order], delta, sizes)
        assert lengths.dtype == np.int64
        assert passes[0] == lengths.tolist()
        ends = np.cumsum(counts)
        for k, (count, end) in enumerate(zip(counts.tolist(), ends.tolist())):
            if sizes[k]:
                ref = reference_clusters(values[segments == k], np.ones(sizes[k]), delta)
                assert lengths[end - count : end].tolist() == ref[2]
                assert_close_to_reference(ref, means[end - count : end])
        unit_means, weights, unit_counts, totals = tdigest._build_segments(values[order], np.ones(n), delta, sizes)
        assert means.tobytes() == unit_means.tobytes()
        assert lengths.tobytes() == weights.astype(np.int64).tobytes()
        assert counts.tobytes() == unit_counts.tobytes()
        assert totals.tolist() == sizes.tolist()

    @given(
        n=st.integers(1, 2000),
        segment_count=st.integers(1, 8),
        **SAMPLE_PARAMS,
    )
    @settings(max_examples=80, deadline=None)
    def test_segments_match_one_build_each(self, n, segment_count, seed, ties, weight_kind, delta):
        values, weights = random_samples(seed, n, ties, weight_kind)
        segments = np.random.default_rng(seed + 1).integers(0, segment_count, n)
        order = np.lexsort((values, segments))
        sizes = np.bincount(segments, minlength=segment_count)
        means, cl_weights, counts, totals = tdigest._build_segments(values[order], weights[order], delta, sizes)
        ends = np.cumsum(counts)
        for k, (count, end) in enumerate(zip(counts.tolist(), ends.tolist())):
            mine = segments == k
            if not mine.any():
                assert count == 0 and totals[k] == 0.0
                continue
            digest = build_digest_arrays(values[mine], weights[mine], delta)
            assert totals[k] == digest.total_weight
            assert np.array_equal(means[end - count : end], digest.means())
            assert np.array_equal(cl_weights[end - count : end], digest.weights())
