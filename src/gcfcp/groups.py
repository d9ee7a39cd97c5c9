"""Group-membership features over a finite, possibly overlapping group family.

A family is either a list of scalar covariate intervals or a list of
predicted-label sets. Membership of a point is a fixed-length binary vector
(one bit per group, in family order), and a sample set is a 0/1 membership
matrix with one row per point. Atoms are the equivalence classes of observed
membership patterns, the disjoint refinement of the family: the unique rows of
that matrix. ``membership_matrix`` is the one membership routine;
``membership_vector`` is its single-point case.

``enumerate_atoms`` orders rows by (atom, score) with one unstable argsort of
the scores and one stable argsort per packed membership byte, last byte first:
tied scores end in any order, as the client sketch weighs all its scores alike.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

MembershipVector = tuple[int, ...]
AtomKey = tuple[int, ...]


class CoveringError(ValueError):
    """A covariate fell outside every group of the family, or a label-set
    family was given a label that is not a finite integer."""


class FamilyConfigError(ValueError):
    """Malformed group-family configuration."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not self.lo <= self.hi:  # also false for a NaN bound
            raise FamilyConfigError(f"interval needs lo <= hi, got lo={self.lo!r}, hi={self.hi!r}")


@dataclass(frozen=True)
class LabelSet:
    labels: frozenset[int]


@dataclass(frozen=True)
class GroupFamily:
    """Ordered groups; order defines bit positions in membership vectors.

    ``feature`` selects the covariate coordinate for interval families (an
    index into vector covariates, ignored for scalars) or is the string
    "predicted_label" for label-set families.
    """

    groups: tuple[Interval | LabelSet, ...]
    feature: int | str = 0

    def __post_init__(self):
        if not self.groups:
            raise FamilyConfigError("group family must be nonempty")

    def __len__(self) -> int:
        return len(self.groups)


def membership_vector(x, family: GroupFamily) -> MembershipVector:
    """The membership of one point: its ``membership_matrix`` row as a tuple."""
    return tuple(membership_matrix([x], family)[0].tolist())


def membership_matrix(xs: Sequence, family: GroupFamily) -> np.ndarray:
    """Bit (i, g) is set iff point i belongs to group g under its closure
    convention; an (n, |groups|) int array.

    Rows may be scalars or vectors, of which ``family.feature`` selects the
    covariate. Raises CoveringError on the first point outside every group,
    and, for a family with label sets, first on a label that is not a finite
    integer.
    """
    xs = np.asarray(xs)
    if xs.ndim > 1:
        xs = xs[:, family.feature]
    if any(isinstance(g, LabelSet) for g in family.groups):
        with np.errstate(invalid="ignore"):
            # inf and NaN leave a NaN remainder, which is != 0 as well
            fractional = np.flatnonzero(np.mod(xs, 1) != 0)
        if fractional.size:
            i = int(fractional[0])
            raise CoveringError(f"label {xs[i].item()!r} (index {i}) is not a finite integer")
    cols = []
    for g in family.groups:
        if isinstance(g, Interval):
            above = xs >= g.lo if g.lo_closed else xs > g.lo
            below = xs <= g.hi if g.hi_closed else xs < g.hi
            cols.append(above & below)
        else:
            cols.append(np.isin(xs, sorted(g.labels)))
    uncovered = np.flatnonzero(~np.logical_or.reduce(cols))
    if uncovered.size:
        i = int(uncovered[0])
        raise CoveringError(
            f"covariate value {xs[i].item()!r} (index {i}) is outside every group"
        )
    return np.column_stack(cols).astype(int)


def enumerate_atoms(
    covariates: Sequence, family: GroupFamily, scores: Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, atoms, sizes)``: ``order`` sorts the rows by membership
    pattern in lexicographic bit order, then by score (ties in any order);
    ``atoms`` holds the bits of each non-empty atom, one uint8 row each, in
    that order, and ``sizes`` its number of rows.
    """
    if len(covariates) == 0:
        raise ValueError("enumerate_atoms requires at least one covariate")
    # Each row's bits packed into bytes, first group in the high bit: byte
    # columns sort in the lexicographic bit order, for any family size.
    packed = np.packbits(membership_matrix(covariates, family), axis=1)
    order = np.argsort(np.asarray(scores, dtype=float))
    for column in packed.T[::-1]:  # least significant byte first (LSD radix)
        order = order[np.argsort(column[order], kind="stable")]
    keys = packed[order]
    starts = np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1))))
    atoms = np.unpackbits(keys[starts], axis=1, count=len(family))
    return order, atoms, np.diff(np.append(starts, order.size))


def family_from_json(payload: str | Mapping) -> GroupFamily:
    try:
        obj = json.loads(payload) if isinstance(payload, str) else payload
        kind = obj["kind"]
        raw = obj["groups"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FamilyConfigError(f"malformed family configuration: {exc}") from exc
    feature = obj.get("feature", 0 if kind == "intervals" else "predicted_label")
    if kind == "intervals":
        groups = []
        for g in raw:
            try:
                closed = g.get("lo_closed", True), g.get("hi_closed", True)
                if not all(isinstance(c, bool) for c in closed):
                    raise TypeError("lo_closed and hi_closed must be booleans")
                groups.append(Interval(float(g["lo"]), float(g["hi"]), *closed))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise FamilyConfigError(f"malformed interval {g!r}: {exc}") from exc
        return GroupFamily(groups=tuple(groups), feature=feature)
    if kind == "label_sets":
        try:
            groups = tuple(LabelSet(frozenset(operator.index(y) for y in g)) for g in raw)
        except TypeError as exc:
            raise FamilyConfigError(f"malformed label set: {exc}") from exc
        return GroupFamily(groups=groups, feature=feature)
    raise FamilyConfigError(f"unknown family kind {kind!r}")


def interval_family(bounds: Sequence[tuple[float, float]]) -> GroupFamily:
    """Closed-interval family over a scalar covariate, e.g. [(0,2),(1,3),...]."""
    return GroupFamily(groups=tuple(Interval(lo, hi) for lo, hi in bounds))


SINGLE_GROUP = GroupFamily(groups=(Interval(-np.inf, np.inf),))
