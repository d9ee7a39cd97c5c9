import json

import numpy as np
import pytest
from conftest import atom_features
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gcfcp.groups import (
    SINGLE_GROUP,
    CoveringError,
    FamilyConfigError,
    GroupFamily,
    Interval,
    LabelSet,
    enumerate_atoms,
    family_from_json,
    interval_family,
    membership_matrix,
    membership_vector,
    sort_atoms,
)
from reference import reference_atoms, reference_membership

FOUR_INTERVALS = interval_family([(0, 2), (1, 3), (2, 4), (3, 5)])

# 70 overlapping unit-width groups: more bits than fit in one machine word.
WIDE_FAMILY = interval_family([(g / 2, g / 2 + 1) for g in range(70)])

LABEL_FAMILY = GroupFamily(
    groups=(
        LabelSet(frozenset(range(0, 4))),
        LabelSet(frozenset(range(2, 6))),
        LabelSet(frozenset(range(4, 8))),
        LabelSet(frozenset(range(6, 10))),
    ),
)


class TestMembership:
    def test_interior_point(self):
        assert membership_vector(1.5, FOUR_INTERVALS) == (1, 1, 0, 0)

    def test_closed_boundary(self):
        assert membership_vector(2.0, FOUR_INTERVALS) == (1, 1, 1, 0)

    def test_label_sets(self):
        assert membership_vector(3, LABEL_FAMILY) == (1, 1, 0, 0)

    def test_covering_violation(self):
        with pytest.raises(CoveringError):
            membership_vector(7.0, FOUR_INTERVALS)

    @pytest.mark.parametrize("bad", [1.7, -0.5, float("nan"), float("inf")])
    def test_label_must_be_a_finite_integer(self, bad):
        fam = GroupFamily(groups=(LabelSet(frozenset({0, 1})), LabelSet(frozenset({1, 2}))))
        assert membership_vector(1.0, fam) == (1, 1)
        with pytest.raises(CoveringError, match="not a finite integer"):
            membership_vector(bad, fam)
        with pytest.raises(CoveringError, match="index 1"):
            membership_matrix([1.0, bad], fam)

    def test_open_boundary(self):
        fam = GroupFamily(groups=(Interval(0, 1, hi_closed=False), Interval(1, 2)))
        assert membership_vector(1.0, fam) == (0, 1)

    def test_matrix_agrees_with_scalar(self):
        xs = np.linspace(0, 5, 101)
        mat = membership_matrix(xs, FOUR_INTERVALS)
        for x, row in zip(xs, mat):
            assert tuple(row) == membership_vector(float(x), FOUR_INTERVALS)

    def test_matrix_covering_violation_reports_index(self):
        with pytest.raises(CoveringError, match="index 1"):
            membership_matrix([1.0, 9.0], FOUR_INTERVALS)
        with pytest.raises(CoveringError, match=r"9\.0 \(index 1\) is outside every group"):
            enumerate_atoms([1.0, 9.0, 7.0], FOUR_INTERVALS, np.zeros(3))

    def test_label_is_checked_before_coverage(self):
        # label 7 is in no group, but label 0.5 after it is reported first
        fam = GroupFamily(groups=(LabelSet(frozenset({0, 1})), LabelSet(frozenset({1, 2}))))
        with pytest.raises(CoveringError, match=r"label 0\.5 \(index 2\) is not a finite integer"):
            membership_matrix([1.0, 7.0, 0.5], fam)
        with pytest.raises(CoveringError, match=r"label 0\.5 \(index 2\) is not a finite integer"):
            enumerate_atoms([1.0, 7.0, 0.5], fam, np.zeros(3))

    def test_labels_are_integers(self):
        assert repr(LabelSet(frozenset({np.int64(9), True}))) == "LabelSet(labels=frozenset({1, 9}))"
        with pytest.raises(FamilyConfigError, match="labels must be integers"):
            LabelSet(frozenset({1, 1.5}))

    @pytest.mark.parametrize("family", [FOUR_INTERVALS, LABEL_FAMILY], ids=["intervals", "label-sets"])
    def test_one_covariate_per_point(self, family):
        """A family reads one scalar per point: vector covariates, whichever
        column holds a covered value, raise CoveringError."""
        rows = np.array([[0.5, 1.0], [1.0, 2.0]])
        for xs in (rows, rows[:, :1], rows[np.newaxis]):
            with pytest.raises(CoveringError, match="one value per point"):
                membership_matrix(xs, family)
            with pytest.raises(CoveringError, match="one value per point"):
                enumerate_atoms(xs, family, np.zeros(len(xs)))
        with pytest.raises(CoveringError, match="one value per point"):
            membership_vector([1.0, 2.0], family)
        assert membership_matrix(rows[:, 1], family).shape == (2, 4)


GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def interval_families(draw):
    """Intervals with endpoints on GRID, each end open or closed."""
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        lo, hi = sorted(draw(st.tuples(st.sampled_from(GRID), st.sampled_from(GRID))))
        # a point interval holds its value only when closed at both ends
        closed = (True, True) if lo == hi else (draw(st.booleans()), draw(st.booleans()))
        groups.append(Interval(lo, hi, *closed))
    return GroupFamily(groups=tuple(groups))


@st.composite
def label_families(draw):
    sets = draw(st.lists(st.frozensets(st.integers(0, 6), min_size=1), min_size=1, max_size=5))
    return GroupFamily(groups=tuple(LabelSet(s) for s in sets))


# exact endpoints, points between and beyond them, and NaN
POINTS = st.one_of(st.sampled_from(GRID), st.floats(-1.5, 2.5), st.just(float("nan")))


def assert_matches_reference(xs, family):
    """Rows of membership_matrix and each membership_vector equal the
    per-group loop, and CoveringError names the first uncovered point."""
    want = []
    for i, x in enumerate(xs):
        try:
            want.append(reference_membership(x, family))
        except CoveringError:
            with pytest.raises(CoveringError, match=rf"\(index {i}\)"):
                membership_matrix(xs, family)
            with pytest.raises(CoveringError):
                membership_vector(x, family)
            return
        got = membership_vector(x, family)
        assert got == want[-1] and all(type(b) is int for b in got)
    assert membership_matrix(xs, family).tolist() == [list(row) for row in want]


class TestMembershipMatchesReference:
    @given(interval_families(), st.lists(POINTS, min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_intervals(self, family, xs):
        assert_matches_reference(xs, family)

    @given(label_families(), st.lists(st.integers(0, 8), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_label_sets(self, family, labels):
        assert_matches_reference(labels, family)

    @given(
        interval_families(),
        st.lists(st.lists(POINTS, min_size=3, max_size=3), min_size=1, max_size=20),
        st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_vector_covariates(self, family, rows, k):
        """Rows of three values raise CoveringError; their column k is read
        as any scalar covariates are."""
        rows = np.array(rows)
        with pytest.raises(CoveringError, match="one value per point"):
            membership_matrix(rows, family)
        assert_matches_reference(rows[:, k], family)


def assert_client_values(xs, family, scores):
    """``enumerate_atoms`` against an ``np.lexsort`` oracle and the per-row
    reference: a new array of the scores in (atom, score) order whose runs
    are the reference's atoms, in lexicographic order, each run the sorted
    scores of its rows; the caller's scores are left as they were."""
    scores = np.asarray(scores, dtype=float)
    before = scores.tobytes()
    values, atoms, sizes = enumerate_atoms(xs, family, scores)
    assert scores.tobytes() == before and not np.shares_memory(values, scores)
    mat = membership_matrix(xs, family)
    oracle = np.lexsort((scores, *mat.T[::-1]))
    assert values.dtype == float and np.array_equal(values, scores[oracle])
    want = reference_atoms(xs, family)
    assert [tuple(atom) for atom in atoms.tolist()] == list(want)
    assert sizes.tolist() == [len(idx) for idx in want.values()]
    runs = np.split(values, np.cumsum(sizes)[:-1])
    assert [run.tolist() for run in runs] == [sorted(scores[idx].tolist()) for idx in want.values()]
    # reconstruction: per group, the scores of its atoms are its member rows' scores
    for g in range(len(family)):
        from_atoms = sorted(v for atom, run in zip(atoms, runs) if atom[g] for v in run.tolist())
        assert from_atoms == sorted(scores[mat[:, g] == 1].tolist())
    return values, atoms, sizes


# few distinct scores, so most of them tie
TIED_SCORES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-3.0, 3.0))


def rows_and_scores(covariate, max_size=300):
    return st.lists(st.tuples(covariate, TIED_SCORES), min_size=1, max_size=max_size).map(
        lambda pairs: ([x for x, _ in pairs], [s for _, s in pairs])
    )


class TestAtoms:
    def test_seven_atoms_on_grid(self):
        xs = np.linspace(0, 5, 501)
        _, atoms, _ = assert_client_values(xs, FOUR_INTERVALS, np.zeros(xs.size))
        assert [tuple(atom) for atom in atoms.tolist()] == [
            (0, 0, 0, 1),
            (0, 0, 1, 1),
            (0, 1, 1, 0),
            (0, 1, 1, 1),
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 1, 1, 0),
        ]

    def test_single_group(self):
        values, atoms, sizes = enumerate_atoms([0.0, 1.0, 100.0], SINGLE_GROUP, [3.0, 1.0, 2.0])
        assert (values.tolist(), atoms.tolist(), sizes.tolist()) == ([1.0, 2.0, 3.0], [[1]], [3])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            enumerate_atoms([], FOUR_INTERVALS, [])

    @pytest.mark.parametrize("n_scores", [2, 4])
    def test_one_score_per_covariate(self, n_scores):
        with pytest.raises(ValueError, match=rf"^{n_scores} scores for 3 covariates$"):
            enumerate_atoms([0.5, 1.5, 2.5], FOUR_INTERVALS, np.zeros(n_scores))

    @given(rows_and_scores(st.floats(0.0, 5.0), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_partition_and_reconstruction(self, case):
        xs, scores = case
        _, atoms, _ = assert_client_values(xs, FOUR_INTERVALS, scores)
        mat = membership_matrix(xs, FOUR_INTERVALS)
        assert len(atoms) <= min(2 ** len(FOUR_INTERVALS) - 1, len(set(map(tuple, mat))))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 4, 8, 9, 20]),
    label_sets=st.booleans(),
    duplicates=st.booleans(),
)
def test_sort_atoms_is_lexsort_order(seed, d, label_sets, duplicates):
    """``sort_atoms`` from the starting orders of both callers, the client's
    rows in input order and ``CalibrationData.from_datasets``' stable argsort
    of the scores, sorts by pattern and keeps the starting order within a
    pattern: ``np.lexsort``'s order, with tied scores (0.0 and -0.0 among
    them) and duplicate rows; 9 and 20 groups pack into two and three bytes.
    The runs start where the pattern row changes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    features = atom_features(rng, d, n, label_sets)
    scores = np.round(rng.normal(size=n) * 2.0) / 2.0
    if duplicates:
        rows = rng.integers(0, n, n // 2)
        features = np.vstack([features, features[rows]])
        scores = np.append(scores, scores[rows])
    patterns = tuple(features.T[::-1])
    in_order = np.arange(len(scores))
    for start, key in ((in_order, in_order), (np.argsort(scores, kind="stable"), scores)):
        order, starts = sort_atoms(features.T != 0.0, start)
        rank = np.empty(len(start), dtype=int)
        rank[start] = np.arange(len(start))
        np.testing.assert_array_equal(order, np.lexsort((rank,) + patterns))
        np.testing.assert_array_equal(key[order], key[np.lexsort((key,) + patterns)])
        f = features[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = np.any(f[1:] != f[:-1], axis=1)
        np.testing.assert_array_equal(starts, np.flatnonzero(new))
    # from_datasets' start is stable, so its order is lexsort's on the scores
    np.testing.assert_array_equal(order, np.lexsort((scores,) + patterns))


class TestAtomsMatchReference:
    @given(rows_and_scores(st.floats(0.0, 5.0)))
    @settings(max_examples=60, deadline=None)
    def test_four_intervals(self, case):
        assert_client_values(case[0], FOUR_INTERVALS, case[1])

    @given(rows_and_scores(st.integers(0, 9)))
    @settings(max_examples=30, deadline=None)
    def test_label_sets(self, case):
        assert_client_values(case[0], LABEL_FAMILY, case[1])

    @given(rows_and_scores(st.floats(0.0, 35.5)))
    @settings(max_examples=40, deadline=None)
    def test_more_than_64_groups(self, case):
        _, atoms, _ = assert_client_values(case[0], WIDE_FAMILY, case[1])
        assert atoms.shape[1] == 70

    @pytest.mark.parametrize("d", [8, 9, 16])
    @given(case=rows_and_scores(st.floats(0.0, 1.0)))
    @settings(max_examples=30, deadline=None)
    def test_byte_boundaries(self, d, case):
        # one byte of membership bits, one bit past it, and two full bytes
        family = interval_family([(g / 2, g / 2 + 1) for g in range(d)])
        xs = [x * (d / 2 + 0.5) for x in case[0]]  # the family covers [0, d / 2 + 0.5]
        _, atoms, _ = assert_client_values(xs, family, case[1])
        assert atoms.shape[1] == d

    def test_vector_covariates_and_many_rows(self):
        rng = np.random.default_rng(0)
        xs = np.column_stack([rng.normal(size=20_000), rng.uniform(0, 35.5, 20_000)])
        scores = np.round(rng.normal(size=20_000), 1)
        with pytest.raises(CoveringError, match="one value per point"):
            enumerate_atoms(xs, WIDE_FAMILY, scores)
        assert_client_values(xs[:, 1], WIDE_FAMILY, scores)


# the schema's keys, near misses of them, and the removed ``feature``
KEYS = st.sampled_from(
    ["kind", "groups", "lo", "hi", "lo_closed", "hi_closed", "feature", "Kind", "group", "hi_closd", "lo "]
)
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400), 2**64]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.sampled_from(["intervals", "label_sets", "predicted_label", "0", "NaN"]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=5), max_leaves=20
)
INTERVALS = st.builds(
    lambda a, b, closed: {"lo": min(a, b), "hi": max(a, b), **closed},
    NUMBERS,
    NUMBERS,
    st.fixed_dictionaries({}, optional={"lo_closed": st.booleans(), "hi_closed": st.booleans()}),
)
NEAR_INTERVALS = st.fixed_dictionaries(
    {"lo": SCALARS, "hi": NUMBERS},
    optional={"lo_closed": SCALARS, "hi_closd": st.booleans(), "feature": SCALARS},
)
LABELS = st.lists(st.one_of(st.integers(-2, 9), st.booleans(), st.sampled_from([10**400, 0.5])), max_size=4)
FAMILIES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("intervals"), "groups": st.lists(INTERVALS, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("label_sets"), "groups": st.lists(LABELS, max_size=4)}),
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["intervals", "label_sets", "polygons"]),
            "groups": st.lists(st.one_of(INTERVALS, NEAR_INTERVALS, LABELS, JSON_VALUES), max_size=4),
        },
        optional={"feature": SCALARS, "comment": JSON_VALUES},
    ),
)
# json.dumps writes NaN, Infinity and -Infinity, which the parser reads back
FAMILY_TEXT = st.one_of(
    FAMILIES.map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.integers(1, 3_000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(alphabet='{}[]":,0123456789.eE-+ tfnul', max_size=30),
)


class TestConfig:
    def test_parse_families(self):
        intervals = family_from_json(
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": 2}, {"lo": 1, "hi": 3},'
            ' {"lo": 2, "hi": 4}, {"lo": 3, "hi": 5}]}'
        )
        assert intervals == FOUR_INTERVALS
        labels = family_from_json(
            '{"kind": "label_sets", "groups": [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7], [6, 7, 8, 9]]}'
        )
        assert labels == LABEL_FAMILY

    def test_explicit_schema(self):
        fam = family_from_json(
            '{"kind": "intervals", "groups":'
            ' [{"lo": 0, "hi": 2}, {"lo": 1, "hi": 3, "hi_closed": false},'
            ' {"lo": 2, "hi": 4, "lo_closed": false, "hi_closed": true}]}'
        )
        assert fam.groups == (
            Interval(0.0, 2.0), Interval(1.0, 3.0, hi_closed=False), Interval(2.0, 4.0, lo_closed=False)
        )

    def test_malformed(self):
        with pytest.raises(FamilyConfigError):
            family_from_json("{}")
        with pytest.raises(FamilyConfigError):
            family_from_json('{"kind": "polygons", "groups": []}')
        with pytest.raises(FamilyConfigError):
            family_from_json('{"kind": "intervals", "groups": [{"lo": 0}]}')
        for bad in (
            '{"kind": "label_sets", "groups": [[0.5], [1.9]]}',
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": 1, "lo_closed": "false"}]}',
            '{"kind": "intervals", "groups": [{"lo": NaN, "hi": 1}]}',
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": "nan"}]}',
            '{"kind": "intervals", "groups": [{"lo": 3, "hi": 1}]}',
            '{"kind": "label_sets", "groups": [[], [0, 1]]}',
            '{"kind": "intervals", "groups": [{"lo": 1, "hi": 1, "lo_closed": false}]}',
            '{"kind": "intervals", "groups": [{"lo": 1, "hi": 1, "hi_closed": false}]}',
            '{"kind": "intervals", "groups": 5}',
            '{"kind": "label_sets", "groups": {"0": [1]}}',
            '{"kind": "intervals", "groups": [{"lo": "0", "hi": 1}]}',
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": true}]}',
            '{"kind": "label_sets", "groups": [[false, true]]}',
            '{"kind": "label_sets", "groups": [[0, 1], [true]]}',
            # exactly the keys a family reads: no feature, no misspelling
            '{"kind": "intervals", "feature": 0, "groups": [{"lo": 0, "hi": 1}]}',
            '{"kind": "intervals", "feature": 3, "groups": [{"lo": 0, "hi": 1}]}',
            '{"kind": "label_sets", "feature": "predicted_label", "groups": [[0, 1]]}',
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5, "hi_closd": false}]}',
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": 5, "feature": 0}]}',
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": 1}], "comment": ""}',
            '{"kind": "intervals"}',
            '[{"lo": 0, "hi": 1}]',
            # a bound no float holds
            '{"kind": "intervals", "groups": [{"lo": 0, "hi": 1' + "0" * 400 + '}]}',
            '{"kind": "intervals", "groups": [{"lo": -1' + "0" * 400 + ', "hi": 0}]}',
        ):
            with pytest.raises(FamilyConfigError):
                family_from_json(bad)
        point = family_from_json('{"kind": "intervals", "groups": [{"lo": 1, "hi": 1}]}')
        assert point.groups == (Interval(1.0, 1.0),)
        unbounded = family_from_json('{"kind": "intervals", "groups": [{"lo": -Infinity, "hi": Infinity}]}')
        assert unbounded.groups == (Interval(-np.inf, np.inf),)

    @given(FAMILY_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_raises_family_config_error(self, text):
        """Whatever the text, family_from_json returns a family or raises
        FamilyConfigError, never another error."""
        try:
            family = family_from_json(text)
        except FamilyConfigError:
            event("rejected")
            return
        event("parsed")
        obj = json.loads(text)
        assert obj.keys() == {"kind", "groups"} and len(family) == len(obj["groups"])
        kind = Interval if obj["kind"] == "intervals" else LabelSet
        assert all(isinstance(g, kind) for g in family.groups)

    @pytest.mark.parametrize(
        "payload, key",
        [
            ('{"kind": "label_sets", "kind": "intervals", "groups": [{"lo": 0, "hi": 1}]}', "kind"),
            ('{"kind": "intervals", "groups": [{"lo": 3, "hi": 5, "lo": 0}]}', "lo"),
        ],
        ids=["family", "interval"],
    )
    def test_repeated_key_rejected(self, payload, key):
        # json alone keeps a repeated key's last value: an interval family
        # here, and the interval [0, 5]
        with pytest.raises(FamilyConfigError, match=f"repeated key '{key}'"):
            family_from_json(payload)

    def test_deep_nesting(self):
        # the JSON decoder runs out of stack, which is no error of the caller's
        with pytest.raises(FamilyConfigError, match="malformed family configuration"):
            family_from_json("[" * 100_000)

    def test_empty_family_rejected(self):
        with pytest.raises(FamilyConfigError):
            GroupFamily(groups=())
