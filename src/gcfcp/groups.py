"""Group-membership features over a finite, possibly overlapping group family.

A family is either a list of intervals or a list of predicted-label sets over
one scalar covariate per point. Membership of a point is a fixed-length
binary vector (one bit per group, in family order), and a sample set is a 0/1
membership matrix with one row per point. Atoms are the equivalence classes of
observed membership patterns, the disjoint refinement of the family: the
unique rows of that matrix. ``membership_matrix`` is the one membership
routine; ``membership_vector`` is its single-point case.

``sort_atoms`` is the one home of the atom key, for the client sketch
(``enumerate_atoms``) and the cold crash of ``pinball.AugmentedQrSolver``. It
packs each row's membership bits from the boolean group columns: group g goes
to bit 7 - g % 8 of byte g // 8, so that the bytes sort in the lexicographic
bit order for any family size. From the caller's starting row order it sorts
stably by each membership byte, last byte first, and the atoms are the runs of
equal keys. ``enumerate_atoms`` starts from the rows in input order and then
sorts each atom's scores by value: the client sketch weighs all its scores
alike, so it needs their values in order, not their rows.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MembershipVector = tuple[int, ...]
AtomKey = tuple[int, ...]


class CoveringError(ValueError):
    """Covariates were not one value per point, a covariate fell outside
    every group of the family, or a label-set family was given a label that
    is not a finite integer."""


class FamilyConfigError(ValueError):
    """Malformed group-family configuration."""


@dataclass(frozen=True)
class Interval:
    """Bounds are floats, -0.0 read as 0.0, and the ends booleans, so that
    intervals that compare equal print alike."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        try:
            lo, hi = float(self.lo) + 0.0, float(self.hi) + 0.0
        except OverflowError as exc:
            raise FamilyConfigError(f"interval bound too large for a float: {exc}") from exc
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_closed", bool(self.lo_closed))
        object.__setattr__(self, "hi_closed", bool(self.hi_closed))
        if not self.lo <= self.hi:  # also false for a NaN bound
            raise FamilyConfigError(f"interval needs lo <= hi, got lo={self.lo!r}, hi={self.hi!r}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise FamilyConfigError(f"interval at {self.lo!r} with an open end holds no value")


@dataclass(frozen=True)
class LabelSet:
    """Labels are ints and print ascending, so that label sets that compare
    equal print alike."""

    labels: frozenset[int]

    def __post_init__(self):
        if not self.labels:
            raise FamilyConfigError("label set holds no label")
        try:
            object.__setattr__(self, "labels", frozenset(map(operator.index, self.labels)))
        except TypeError as exc:
            raise FamilyConfigError(f"labels must be integers, not {set(self.labels)!r}") from exc

    def __repr__(self) -> str:
        return f"LabelSet(labels=frozenset({{{', '.join(map(repr, sorted(self.labels)))}}}))"


@dataclass(frozen=True)
class GroupFamily:
    """Ordered groups; order defines bit positions in membership vectors."""

    groups: tuple[Interval | LabelSet, ...]

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

    ``xs`` holds one covariate value per point. Raises CoveringError unless
    ``xs`` is 1-d, on the first point outside every group, and, for a family
    with label sets, first on a label that is not a finite integer.
    """
    return np.column_stack(_membership_columns(xs, family)).astype(int)


def _membership_columns(xs: Sequence, family: GroupFamily) -> list[np.ndarray]:
    """One boolean column per group, in family order, checked as
    ``membership_matrix`` describes."""
    xs = np.asarray(xs)
    if xs.ndim != 1:
        raise CoveringError(f"covariates must hold one value per point, not shape {xs.shape}")
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
    return cols


def sort_atoms(columns: Sequence[np.ndarray], order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the rows of ``order`` sorted stably by membership
    pattern in lexicographic bit order, and the position in it where each
    pattern's run of rows starts.

    ``columns`` holds one boolean column per group, in family order, and
    ``order`` every row once; within a pattern the rows keep their order in it.
    """
    # one row of bytes per 8 groups, packed as the module docstring says
    packed = np.zeros(((len(columns) + 7) // 8, len(order)), dtype=np.uint8)
    for g, col in enumerate(columns):
        packed[g // 8] |= col.view(np.uint8) << (7 - g % 8)
    for row in packed[::-1]:  # least significant byte first (LSD radix)
        order = order[np.argsort(row[order], kind="stable")]
    keys = packed[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return order, np.flatnonzero(new)


def enumerate_atoms(
    covariates: Sequence, family: GroupFamily, scores: Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, atoms, sizes)``: ``values``, a new float array, holds the
    scores by membership pattern in lexicographic bit order, ascending within
    a pattern; ``atoms`` holds the bits of each non-empty atom, one uint8 row
    each, in that order, and ``sizes`` its number of scores.

    Raises ValueError without covariates or unless there is one score per
    covariate.
    """
    if len(covariates) == 0:
        raise ValueError("enumerate_atoms requires at least one covariate")
    if len(scores) != len(covariates):
        raise ValueError(f"{len(scores)} scores for {len(covariates)} covariates")
    cols = _membership_columns(covariates, family)
    order, starts = sort_atoms(cols, np.arange(len(covariates)))
    values, heads = np.asarray(scores, dtype=float)[order], starts.tolist()
    for a, b in zip(heads, heads[1:] + [order.size]):
        values[a:b].sort()
    first = order[starts]
    atoms = np.array([col[first] for col in cols], dtype=np.uint8).T
    return values, atoms, np.diff(starts, append=order.size)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object; ValueError on a repeated key, of which ``json`` alone
    would keep the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# json.loads, except that an object that repeats a key raises ValueError
decode_json = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def family_from_json(payload: str) -> GroupFamily:
    """Parse a family from JSON text, raising FamilyConfigError on any other
    shape.

    The object holds exactly ``kind`` and ``groups``. An ``intervals`` family
    lists objects of ``lo`` and ``hi`` (JSON numbers within float range) and
    optionally ``lo_closed`` and ``hi_closed`` (booleans, true by default); a
    ``label_sets`` family lists lists of integer labels. No object repeats a
    key.
    """
    try:
        obj = decode_json(payload)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise FamilyConfigError(f"malformed family configuration: {exc}") from exc
    if not isinstance(obj, dict) or obj.keys() != {"kind", "groups"}:
        raise FamilyConfigError("a family holds exactly the keys kind and groups")
    kind, raw = obj["kind"], obj["groups"]
    if not isinstance(raw, list):
        raise FamilyConfigError(f"groups must be a list, got {raw!r}")
    if kind == "intervals":
        return GroupFamily(groups=tuple(map(_interval_from_json, raw)))
    if kind == "label_sets":
        if not all(isinstance(g, list) and all(type(y) is int for y in g) for g in raw):  # a bool is no label
            raise FamilyConfigError(f"label sets must be lists of integer labels, got {raw!r}")
        return GroupFamily(groups=tuple(LabelSet(frozenset(g)) for g in raw))
    raise FamilyConfigError(f"unknown family kind {kind!r}")


def _interval_from_json(g) -> Interval:
    if not (isinstance(g, dict) and {"lo", "hi"} <= g.keys() <= {"lo", "hi", "lo_closed", "hi_closed"}):
        raise FamilyConfigError(f"an interval holds lo, hi and optionally lo_closed and hi_closed, not {g!r}")
    bounds, closed = (g["lo"], g["hi"]), (g.get("lo_closed", True), g.get("hi_closed", True))
    if not all(type(b) in (int, float) for b in bounds):  # a bool is no bound
        raise FamilyConfigError(f"interval bounds must be numbers, not {bounds!r}")
    if not all(type(c) is bool for c in closed):
        raise FamilyConfigError(f"lo_closed and hi_closed must be booleans, not {closed!r}")
    return Interval(*bounds, *closed)


def interval_family(bounds: Sequence[tuple[float, float]]) -> GroupFamily:
    """Closed-interval family over a scalar covariate, e.g. [(0,2),(1,3),...]."""
    return GroupFamily(groups=tuple(Interval(lo, hi) for lo, hi in bounds))


SINGLE_GROUP = GroupFamily(groups=(Interval(-np.inf, np.inf),))
