"""Group-membership features over a finite, possibly overlapping group family.

A family is either a list of scalar covariate intervals or a list of
predicted-label sets. Membership of a point is a fixed-length binary vector
(one bit per group, in family order), and a sample set is a 0/1 membership
matrix with one row per point. Atoms are the equivalence classes of observed
membership patterns, the disjoint refinement of the family: the unique rows of
that matrix, each with the index array of the rows that carry it.
``membership_matrix`` is the one membership routine; ``membership_vector``
is its single-point case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

MembershipVector = tuple[int, ...]
AtomKey = tuple[int, ...]


class CoveringError(ValueError):
    """A covariate fell outside every group of the family."""


class FamilyConfigError(ValueError):
    """Malformed group-family configuration."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True


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
    covariate. Raises CoveringError on the first point outside every group.
    """
    xs = np.asarray(xs)
    if xs.ndim > 1:
        xs = xs[:, family.feature]
    cols = []
    for g in family.groups:
        if isinstance(g, Interval):
            above = xs >= g.lo if g.lo_closed else xs > g.lo
            below = xs <= g.hi if g.hi_closed else xs < g.hi
            cols.append(above & below)
        else:
            cols.append(np.isin(xs.astype(int), sorted(g.labels)))
    mat = np.column_stack(cols).astype(int)
    uncovered = np.flatnonzero(mat.sum(axis=1) == 0)
    if uncovered.size:
        i = int(uncovered[0])
        raise CoveringError(
            f"covariate value {xs[i].item()!r} (index {i}) is outside every group"
        )
    return mat


def enumerate_atoms(
    covariates: Sequence, family: GroupFamily
) -> dict[AtomKey, np.ndarray]:
    """Group sample indices by identical membership pattern.

    Only non-empty atoms appear; keys iterate in lexicographic bit order and
    each maps to the ascending indices of its rows.
    """
    if len(covariates) == 0:
        raise ValueError("enumerate_atoms requires at least one covariate")
    mat = membership_matrix(covariates, family)
    # Pack each row's bits, first group in the high bit, into one byte string:
    # byte strings sort in the lexicographic bit order, for any family size.
    packed = np.packbits(mat.astype(bool), axis=1)
    keys, inverse = np.unique(packed.view(f"S{packed.shape[1]}").ravel(), return_inverse=True)
    rows = np.argsort(inverse, kind="stable")
    cuts = np.cumsum(np.bincount(inverse, minlength=keys.size))[:-1]
    bits = np.unpackbits(keys.view(np.uint8).reshape(keys.size, -1), axis=1, count=len(family))
    return dict(zip(map(tuple, bits.tolist()), np.split(rows, cuts)))


def family_to_json(family: GroupFamily) -> str:
    if isinstance(family.groups[0], Interval):
        return json.dumps(
            {
                "kind": "intervals",
                "feature": family.feature,
                "groups": [
                    {
                        "lo": g.lo,
                        "hi": g.hi,
                        "lo_closed": g.lo_closed,
                        "hi_closed": g.hi_closed,
                    }
                    for g in family.groups
                ],
            }
        )
    return json.dumps(
        {
            "kind": "label_sets",
            "feature": family.feature,
            "groups": [sorted(g.labels) for g in family.groups],
        }
    )


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
                groups.append(
                    Interval(
                        lo=float(g["lo"]),
                        hi=float(g["hi"]),
                        lo_closed=bool(g.get("lo_closed", True)),
                        hi_closed=bool(g.get("hi_closed", True)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FamilyConfigError(f"malformed interval {g!r}") from exc
        return GroupFamily(groups=tuple(groups), feature=feature)
    if kind == "label_sets":
        try:
            groups = tuple(LabelSet(frozenset(int(y) for y in g)) for g in raw)
        except (TypeError, ValueError) as exc:
            raise FamilyConfigError(f"malformed label set: {exc}") from exc
        return GroupFamily(groups=groups, feature=feature)
    raise FamilyConfigError(f"unknown family kind {kind!r}")


def interval_family(bounds: Sequence[tuple[float, float]]) -> GroupFamily:
    """Closed-interval family over a scalar covariate, e.g. [(0,2),(1,3),...]."""
    return GroupFamily(groups=tuple(Interval(lo, hi) for lo, hi in bounds))


SINGLE_GROUP = GroupFamily(groups=(Interval(-np.inf, np.inf),))
