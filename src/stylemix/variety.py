"""Distance-based variety measures over style subsets.

Five measures are supported, all scoring how dispersed a set of styles
is under a pairwise distance matrix:

    MAX_SUM_SUM   sum of all pairwise distances
    MAX_MIN       smallest pairwise distance
    MAX_MIN_SUM   smallest per-element sum of distances to the rest
    MAX_SUM_MIN   sum of each element's distance to its nearest other
    MAX_MEAN      sum of all pairwise distances divided by the SET SIZE

Note the MAX_MEAN divisor is the number of elements, not the number of
pairs. Singletons score 0 under every measure (the min/sum over an
empty pair set is taken as 0), which keeps greedy construction total.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .core import DistanceMatrix
from .errors import MalformedInputError

__all__ = [
    "VarietyMeasure",
    "MONOTONICITY_TOLERANCE",
    "variety",
    "check_monotonicity",
    "MonotonicityResult",
]

MONOTONICITY_TOLERANCE = 1e-12


class VarietyMeasure(Enum):
    MAX_SUM_SUM = "max_sum_sum"
    MAX_MIN = "max_min"
    MAX_MIN_SUM = "max_min_sum"
    MAX_SUM_MIN = "max_sum_min"
    MAX_MEAN = "max_mean"


def _index(i) -> int:
    """i as an int; a bool, float, text or other non-integer raises."""
    if not isinstance(i, bool):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise MalformedInputError(f"index {i!r} is not an integer")


def _validated_indices(subset: Iterable[int], n: int) -> np.ndarray:
    idx = sorted({_index(i) for i in subset})
    if not idx:
        raise MalformedInputError("variety is undefined for an empty subset")
    if idx[0] < 0 or idx[-1] >= n:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise MalformedInputError(f"index {bad} outside [0, {n})")
    return np.asarray(idx, dtype=np.intp)


def variety(measure: VarietyMeasure, subset: Iterable[int], d: DistanceMatrix) -> float:
    """Score a subset of styles under one measure.

    Args:
        measure: Which formula to apply.
        subset: Distinct style indices into d; at least one required.
        d: Distance matrix.

    Returns:
        The measure value; 0.0 for any singleton.

    Raises:
        MalformedInputError: The subset is empty, or an index is not an
            int or falls outside the matrix.
    """
    idx = _validated_indices(subset, d.n)
    k = idx.size
    if k == 1:
        return 0.0
    sub = d.entries[np.ix_(idx, idx)]
    if measure is VarietyMeasure.MAX_SUM_SUM:
        return float(sub.sum()) / 2.0
    if measure is VarietyMeasure.MAX_MEAN:
        return float(sub.sum()) / 2.0 / k
    if measure is VarietyMeasure.MAX_MIN:
        off = sub[~np.eye(k, dtype=bool)]
        return float(off.min())
    if measure is VarietyMeasure.MAX_MIN_SUM:
        return float(sub.sum(axis=1).min())
    if measure is VarietyMeasure.MAX_SUM_MIN:
        masked = sub + np.where(np.eye(k, dtype=bool), np.inf, 0.0)
        return float(masked.min(axis=1).sum())
    raise ValueError(f"unhandled measure {measure!r}")


@dataclass(frozen=True)
class MonotonicityResult:
    """Outcome of a single add-one-style monotonicity check."""

    held: bool
    before: float
    after: float


def check_monotonicity(
    measure: VarietyMeasure,
    d: DistanceMatrix,
    subset: Iterable[int],
    added: int,
) -> MonotonicityResult:
    """Test whether adding one style keeps the measure from decreasing.

    The check passes when variety(subset + {added}) >= variety(subset)
    minus a 1e-12 absolute tolerance.

    Raises:
        MalformedInputError: An index is not an int or is out of range, or
            ``added`` is already present.
    """
    idx = _validated_indices(subset, d.n)
    a = _index(added)
    if a < 0 or a >= d.n:
        raise MalformedInputError(f"index {a} outside [0, {d.n})")
    if a in idx:
        raise MalformedInputError(f"added index {a} is already in the subset")
    before = variety(measure, idx, d)
    after = variety(measure, np.append(idx, a), d)
    return MonotonicityResult(after >= before - MONOTONICITY_TOLERANCE, before, after)
