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
    family_to_json,
    interval_family,
    membership_matrix,
    membership_vector,
)
from reference import reference_atoms

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


class TestAtoms:
    def test_seven_atoms_on_grid(self):
        xs = np.linspace(0, 5, 501)
        atoms = enumerate_atoms(xs, FOUR_INTERVALS)
        assert set(atoms) == {
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 1, 1, 0),
            (0, 1, 1, 0),
            (0, 1, 1, 1),
            (0, 0, 1, 1),
            (0, 0, 0, 1),
        }
        assert list(atoms) == sorted(atoms)  # lexicographic iteration

    def test_single_group(self):
        atoms = enumerate_atoms([0.0, 1.0, 100.0], SINGLE_GROUP)
        assert set(atoms) == {(1,)}
        assert atoms[(1,)].tolist() == [0, 1, 2]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            enumerate_atoms([], FOUR_INTERVALS)

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_partition_and_reconstruction(self, xs):
        atoms = enumerate_atoms(xs, FOUR_INTERVALS)
        # partition: every index in exactly one atom
        all_idx = sorted(i for idx in atoms.values() for i in idx)
        assert all_idx == list(range(len(xs)))
        # reconstruction: per group, union of member atoms == member samples
        mat = membership_matrix(xs, FOUR_INTERVALS)
        for g in range(len(FOUR_INTERVALS)):
            from_atoms = sorted(
                i for atom, idx in atoms.items() if atom[g] for i in idx
            )
            assert from_atoms == list(np.flatnonzero(mat[:, g]))
        assert len(atoms) <= min(2 ** len(FOUR_INTERVALS) - 1, len(set(map(tuple, mat))))


def assert_same_atoms(got, want):
    assert list(got) == list(want)  # same keys, same lexicographic order
    for key, idx in got.items():
        assert all(type(b) is int for b in key)
        assert isinstance(idx, np.ndarray) and idx.dtype.kind == "i"
        assert idx.tolist() == want[key]


class TestAtomsMatchReference:
    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_four_intervals(self, xs):
        assert_same_atoms(enumerate_atoms(xs, FOUR_INTERVALS), reference_atoms(xs, FOUR_INTERVALS))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_label_sets(self, labels):
        assert_same_atoms(enumerate_atoms(labels, LABEL_FAMILY), reference_atoms(labels, LABEL_FAMILY))

    @given(st.lists(st.floats(0.0, 35.5), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_more_than_64_groups(self, xs):
        atoms = enumerate_atoms(xs, WIDE_FAMILY)
        assert all(len(key) == 70 for key in atoms)
        assert_same_atoms(atoms, reference_atoms(xs, WIDE_FAMILY))

    def test_vector_covariates_and_many_rows(self):
        rng = np.random.default_rng(0)
        xs = np.column_stack([rng.normal(size=20_000), rng.uniform(0, 35.5, 20_000)])
        fam = GroupFamily(groups=WIDE_FAMILY.groups, feature=1)
        assert_same_atoms(enumerate_atoms(xs, fam), reference_atoms(xs, fam))


class TestConfig:
    def test_interval_round_trip(self):
        fam = family_from_json(family_to_json(FOUR_INTERVALS))
        assert fam == FOUR_INTERVALS

    def test_label_round_trip(self):
        fam = family_from_json(family_to_json(LABEL_FAMILY))
        assert fam == LABEL_FAMILY

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

    def test_empty_family_rejected(self):
        with pytest.raises(FamilyConfigError):
            GroupFamily(groups=())
