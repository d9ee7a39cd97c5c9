import numpy as np
import pytest
from hypothesis import given, settings
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
    feature="predicted_label",
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
        fam = GroupFamily(
            groups=(LabelSet(frozenset({0, 1})), LabelSet(frozenset({1, 2}))),
            feature="predicted_label",
        )
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


GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def interval_families(draw, feature=0):
    """Intervals with endpoints on GRID, each end open or closed."""
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        lo, hi = sorted(draw(st.tuples(st.sampled_from(GRID), st.sampled_from(GRID))))
        groups.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return GroupFamily(groups=tuple(groups), feature=feature)


@st.composite
def label_families(draw):
    sets = draw(st.lists(st.frozensets(st.integers(0, 6), min_size=1), min_size=1, max_size=5))
    return GroupFamily(groups=tuple(LabelSet(s) for s in sets), feature="predicted_label")


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
        st.integers(0, 2).flatmap(
            lambda k: st.tuples(
                interval_families(feature=k),
                st.lists(st.lists(POINTS, min_size=3, max_size=3), min_size=1, max_size=20),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_vector_covariates(self, case):
        family, rows = case
        assert_matches_reference(np.array(rows), family)


def assert_client_order(xs, family, scores):
    """``enumerate_atoms`` against an ``np.lexsort`` oracle and the per-row
    reference: a permutation of the rows in (atom, score) order whose runs are
    the reference's atoms, in lexicographic order, with its rows."""
    scores = np.asarray(scores, dtype=float)
    order, atoms, sizes = enumerate_atoms(xs, family, scores)
    mat = membership_matrix(xs, family)
    oracle = np.lexsort((scores, *mat.T[::-1]))
    # partition: every row exactly once
    assert order.dtype.kind == "i" and sorted(order.tolist()) == list(range(len(scores)))
    assert np.array_equal(mat[order], mat[oracle])
    assert np.array_equal(scores[order], scores[oracle])
    want = reference_atoms(xs, family)
    assert [tuple(atom) for atom in atoms.tolist()] == list(want)
    assert sizes.tolist() == [len(idx) for idx in want.values()]
    runs = np.split(order, np.cumsum(sizes)[:-1])
    assert [sorted(run.tolist()) for run in runs] == list(want.values())
    # reconstruction: per group, the rows of its atoms are its member rows
    for g in range(len(family)):
        from_atoms = sorted(i for atom, run in zip(atoms, runs) if atom[g] for i in run.tolist())
        assert from_atoms == np.flatnonzero(mat[:, g]).tolist()
    return order, atoms, sizes


# few distinct scores, so most of them tie
TIED_SCORES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-3.0, 3.0))


def rows_and_scores(covariate, max_size=300):
    return st.lists(st.tuples(covariate, TIED_SCORES), min_size=1, max_size=max_size).map(
        lambda pairs: ([x for x, _ in pairs], [s for _, s in pairs])
    )


class TestAtoms:
    def test_seven_atoms_on_grid(self):
        xs = np.linspace(0, 5, 501)
        _, atoms, _ = assert_client_order(xs, FOUR_INTERVALS, np.zeros(xs.size))
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
        order, atoms, sizes = enumerate_atoms([0.0, 1.0, 100.0], SINGLE_GROUP, [3.0, 1.0, 2.0])
        assert (order.tolist(), atoms.tolist(), sizes.tolist()) == ([1, 2, 0], [[1]], [3])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            enumerate_atoms([], FOUR_INTERVALS, [])

    @given(rows_and_scores(st.floats(0.0, 5.0), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_partition_and_reconstruction(self, case):
        xs, scores = case
        _, atoms, _ = assert_client_order(xs, FOUR_INTERVALS, scores)
        mat = membership_matrix(xs, FOUR_INTERVALS)
        assert len(atoms) <= min(2 ** len(FOUR_INTERVALS) - 1, len(set(map(tuple, mat))))


class TestAtomsMatchReference:
    @given(rows_and_scores(st.floats(0.0, 5.0)))
    @settings(max_examples=60, deadline=None)
    def test_four_intervals(self, case):
        assert_client_order(case[0], FOUR_INTERVALS, case[1])

    @given(rows_and_scores(st.integers(0, 9)))
    @settings(max_examples=30, deadline=None)
    def test_label_sets(self, case):
        assert_client_order(case[0], LABEL_FAMILY, case[1])

    @given(rows_and_scores(st.floats(0.0, 35.5)))
    @settings(max_examples=40, deadline=None)
    def test_more_than_64_groups(self, case):
        _, atoms, _ = assert_client_order(case[0], WIDE_FAMILY, case[1])
        assert atoms.shape[1] == 70

    def test_vector_covariates_and_many_rows(self):
        rng = np.random.default_rng(0)
        xs = np.column_stack([rng.normal(size=20_000), rng.uniform(0, 35.5, 20_000)])
        fam = GroupFamily(groups=WIDE_FAMILY.groups, feature=1)
        assert_client_order(xs, fam, np.round(rng.normal(size=20_000), 1))


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
            '{"kind": "intervals", "feature": 0, "groups":'
            ' [{"lo": 0, "hi": 2}, {"lo": 1, "hi": 3, "hi_closed": false}]}'
        )
        assert fam.groups[0] == Interval(0.0, 2.0)
        assert fam.groups[1].hi_closed is False

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
        ):
            with pytest.raises(FamilyConfigError):
                family_from_json(bad)
        unbounded = family_from_json('{"kind": "intervals", "groups": [{"lo": -Infinity, "hi": Infinity}]}')
        assert unbounded.groups == (Interval(-np.inf, np.inf),)

    def test_empty_family_rejected(self):
        with pytest.raises(FamilyConfigError):
            GroupFamily(groups=())
