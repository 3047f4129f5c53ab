"""Shared data model: style catalogs, distance matrices, instances, plans.

Everything here is immutable after construction and safe to share across
threads; an instance computes its ``bounds`` once, on first read. Parsing
is strict: malformed input raises ``MalformedInputError`` naming the
offending row or field, while semantic problems with an otherwise
well-formed instance are reported by ``validate_instance`` as a list of
``Violation`` records.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import MalformedInputError, ValidationError, Violation

__all__ = [
    "Metric",
    "BigMPolicy",
    "FeatureCatalog",
    "DistanceMatrix",
    "Article",
    "Store",
    "DistributionInstance",
    "DistributionPlan",
    "distance_matrix",
    "load_catalog",
    "read_catalog_file",
    "load_instance",
    "read_instance_file",
    "instance_to_json",
    "validate_instance",
    "ensure_valid",
]


def _member_named(enum_cls, name, field_name: str):
    """Enum member whose value matches name, ignoring case and hyphens."""
    if not isinstance(name, str):
        raise MalformedInputError(f"{field_name} must be a string, got {name!r}")
    text = name.strip().lower().replace("-", "_")
    for member in enum_cls:
        if member.value == text:
            return member
    raise MalformedInputError(
        f"unknown {field_name} {name!r}; expected one of "
        + ", ".join(m.value for m in enum_cls)
    )


class Metric(Enum):
    """Pairwise dissimilarity between feature vectors.

    SQUARED_EUCLIDEAN is the default. EUCLIDEAN satisfies the triangle
    inequality, which some variety-measure guarantees depend on.
    """

    SQUARED_EUCLIDEAN = "squared_euclidean"
    EUCLIDEAN = "euclidean"

    @classmethod
    def from_name(cls, name: str) -> "Metric":
        return _member_named(cls, name, "metric")


class BigMPolicy(Enum):
    """How the coupling cap on x_is is chosen for each (article, store).

    STORE_QTY caps shipments at the store's desired quantity q_s (wire
    value ``"paper_qs"``, the default). BAND_LIMIT caps them at the
    store's integer upper quantity band floor((1+alpha)*q_s) (wire value
    ``"tolerant_qs"``), which can never bind below a feasible shipment.
    """

    STORE_QTY = "paper_qs"
    BAND_LIMIT = "tolerant_qs"

    @classmethod
    def from_name(cls, name: str) -> "BigMPolicy":
        return _member_named(cls, name, "big_m_policy")


# Largest magnitude of an integer field: flow capacities are 32-bit, and
# 64-bit sums of such values cannot wrap.
_MAX_INT = 2**31 - 1

# Each record kind's integer fields: the least value, the code a smaller
# value gets and the reason its message adds.
_INT_FIELDS = {
    "article": {
        "planned_total": (0, "negative_planned_total", ""),
        "min_qty": (1, "min_qty_below_one", " so assignment indicators stay well-defined"),
    },
    "store": {"desired_qty": (1, "desired_qty_below_one", "")},
}


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_exact_fraction(value) -> Fraction:
    """Convert a parsed JSON number (or Python scalar) to an exact Fraction.

    Strings are treated as decimal literals, so ``"0.2"`` becomes exactly
    1/5 rather than the nearest binary float; digit separators (``"0.2_5"``)
    are not numbers. Floats go through their shortest repr, which preserves
    the decimal the user wrote.
    """
    if isinstance(value, bool):
        raise MalformedInputError("expected a number, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise MalformedInputError(f"expected a finite number, got {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            if "_" in value:  # Fraction() accepts digit separators
                raise ValueError(value)
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"not a number: {value!r}") from exc
    raise MalformedInputError(f"expected a number, got {type(value).__name__}")


def _as_int(value, *, field_name: str) -> int:
    """A parsed JSON integer; its range is left to ``validate_instance``."""
    if isinstance(value, bool):
        raise MalformedInputError(f"{field_name} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    frac = _as_exact_fraction(value)
    if frac.denominator != 1:
        raise MalformedInputError(f"{field_name} must be an integer, got {value!r}")
    return int(frac)


def _floats(values: list, message: str, *context) -> list[float]:
    """Catalog cells or distance entries as floats, each read through its text.

    Booleans, null, arrays and text with digit separators (``"1_000"``) do
    not parse, and an int beyond float range reads as inf (rejected later
    as non-finite) instead of overflowing. The first value that is not a
    number raises ``MalformedInputError(message % (*context, value))``.
    """
    floats = []
    for value in values:
        try:
            if isinstance(value, str) and "_" in value:  # float() accepts digit separators
                raise ValueError(value)
            floats.append(float(str(value)))
        except ValueError as exc:
            raise MalformedInputError(message % (*context, value)) from exc
    return floats


def _as_id(value, *, record: str) -> str:
    if not isinstance(value, str) or not value:
        raise MalformedInputError(f"{record}: id must be a non-empty string")
    return value


@dataclass(frozen=True, eq=False)
class FeatureCatalog:
    """Ordered collection of styles with equal-dimension feature vectors.

    Attributes:
        ids: Style identifiers, unique and non-empty, in input order.
        vectors: Read-only float array of shape (n, dim), all finite.
    """

    ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise MalformedInputError(
                f"vectors must form a 2-D array, got {vectors.ndim} dimensions"
            )
        if vectors.shape[0] != len(self.ids):
            raise MalformedInputError(
                f"{len(self.ids)} ids but {vectors.shape[0]} vectors"
            )
        if len(self.ids) == 0:
            raise MalformedInputError("catalog has no styles")
        if vectors.shape[1] < 1:
            raise MalformedInputError("feature vectors must have at least one entry")
        seen = set()
        for sid in self.ids:
            if not sid:
                raise MalformedInputError("style id must be non-empty")
            if sid in seen:
                raise MalformedInputError(f"duplicate style id {sid!r}")
            seen.add(sid)
        if not np.all(np.isfinite(vectors)):
            bad = int(np.argwhere(~np.isfinite(vectors))[0][0])
            raise MalformedInputError(
                f"style {self.ids[bad]!r} has a non-finite vector entry"
            )
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "vectors", _readonly(vectors))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureCatalog):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self.vectors, other.vectors)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def normalized(self) -> "FeatureCatalog":
        """Return a copy with every vector scaled to unit L2 norm.

        Raises:
            MalformedInputError: A style's norm is zero, or overflows or
                underflows to a value the division cannot use.
        """
        with np.errstate(over="ignore", under="ignore"):
            norms = np.linalg.norm(self.vectors, axis=1)
        bad = np.nonzero(~(np.isfinite(norms) & (norms > 0.0)))[0]
        if bad.size:
            i = int(bad[0])
            what = "an L2 norm that cannot be represented" if self.vectors[i].any() else "a zero vector"
            raise MalformedInputError(f"style {self.ids[i]!r} has {what} and cannot be normalized")
        return FeatureCatalog(self.ids, self.vectors / norms[:, None])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for sid, row in zip(self.ids, self.vectors):
            writer.writerow([sid] + [repr(float(v)) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        records = [
            {"id": sid, "vector": [float(v) for v in row]}
            for sid, row in zip(self.ids, self.vectors)
        ]
        return json.dumps(records, indent=2) + "\n"


def _catalog_from_rows(rows: Iterable[tuple[str, list]]) -> FeatureCatalog:
    ids: list[str] = []
    vectors: list[list[float]] = []
    dim: int | None = None
    for sid, raw_vector in rows:
        values = _floats(raw_vector, "row %r: cannot parse vector entry %r", sid)
        if not values:
            raise MalformedInputError(f"row {sid!r} has no vector entries")
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise MalformedInputError(
                f"row {sid!r} has {len(values)} entries, expected {dim}"
            )
        ids.append(sid)
        vectors.append(values)
    if not ids:
        raise MalformedInputError("catalog is empty")
    return FeatureCatalog(tuple(ids), np.array(vectors, dtype=np.float64))


def load_catalog(text: str, format: str = "csv") -> FeatureCatalog:
    """Parse catalog text in CSV or JSON form.

    Args:
        text: The catalog content.
        format: ``"csv"`` (one row per style, id first, no header) or
            ``"json"`` (array of ``{"id", "vector"}`` objects).

    Returns:
        A validated FeatureCatalog preserving input order.
    """
    fmt = format.strip().lower()
    if fmt == "csv":
        rows = []
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            sid = row[0].strip()
            if not sid:
                raise MalformedInputError(f"line {lineno}: empty style id")
            rows.append((sid, row[1:]))
        return _catalog_from_rows(rows)
    if fmt == "json":
        try:
            records = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedInputError(f"invalid JSON: {exc}") from exc
        if not isinstance(records, list):
            raise MalformedInputError("catalog JSON must be an array of objects")
        rows = []
        for idx, rec in enumerate(records):
            if not isinstance(rec, dict) or "id" not in rec or "vector" not in rec:
                raise MalformedInputError(
                    f"record {idx}: expected an object with 'id' and 'vector'"
                )
            sid = _as_id(rec["id"], record=f"record {idx}")
            vec = rec["vector"]
            if not isinstance(vec, list):
                raise MalformedInputError(f"record {sid!r}: vector must be an array")
            rows.append((sid, vec))
        return _catalog_from_rows(rows)
    raise MalformedInputError(f"unknown catalog format {format!r}")


def read_catalog_file(path: str | os.PathLike, format: str | None = None) -> FeatureCatalog:
    """Load a catalog from disk, inferring the format from the suffix."""
    p = Path(path)
    fmt = format
    if fmt is None:
        fmt = "json" if p.suffix.lower() == ".json" else "csv"
    return load_catalog(p.read_text(encoding="utf-8"), fmt)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise dissimilarities with a zero diagonal.

    Attributes:
        entries: Read-only float array of shape (n, n), finite, >= 0.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise MalformedInputError(
                f"distance matrix must be square, got shape {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            raise MalformedInputError("distance matrix has non-finite entries")
        if np.any(entries < 0):
            raise MalformedInputError("distance matrix has negative entries")
        if np.any(np.diagonal(entries) != 0):
            raise MalformedInputError("distance matrix diagonal must be zero")
        if not np.array_equal(entries, entries.T):
            raise MalformedInputError("distance matrix must be symmetric")
        object.__setattr__(self, "entries", _readonly(entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    @classmethod
    def from_flat(cls, n: int, entries: Sequence[float]) -> "DistanceMatrix":
        values = np.asarray(list(entries), dtype=np.float64)
        if values.size != n * n:
            raise MalformedInputError(
                f"expected {n * n} row-major entries, got {values.size}"
            )
        return cls(values.reshape(n, n))

    def to_flat(self) -> list[float]:
        return [float(v) for v in self.entries.reshape(-1)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in self.entries:
            writer.writerow([repr(float(v)) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {"n": self.n, "entries": self.to_flat()}
        return json.dumps(payload, indent=2) + "\n"


def distance_matrix(
    catalog: FeatureCatalog,
    metric: Metric = Metric.SQUARED_EUCLIDEAN,
    normalize: bool = False,
) -> DistanceMatrix:
    """Compute all pairwise distances between catalog vectors.

    Args:
        catalog: Validated catalog.
        metric: SQUARED_EUCLIDEAN (default) or EUCLIDEAN.
        normalize: Scale each vector to unit L2 norm first (off by default).

    Returns:
        DistanceMatrix with entries[i][j] = metric(v_i, v_j).
    """
    cat = catalog.normalized() if normalize else catalog
    # scipy's cdist bit for bit: reducing over the outer (feature) axis sums
    # (u_k - v_k)**2 in feature order. Blocks of rows (about 2**15 cells) fill
    # the upper triangle, mirrored since (a-b)**2 == (b-a)**2.
    cols = np.ascontiguousarray(cat.vectors.T)
    dim, n = cols.shape
    d = np.empty((n, n))
    step = max(1, 2**15 // (dim * n))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf, rejected below
        for lo in range(0, n, step):
            diff = cols[:, lo : lo + step, None] - cols[:, None, lo:]
            np.add.reduce(np.square(diff, out=diff), axis=0, out=d[lo : lo + step, lo:])
            d[lo + step :, lo : lo + step] = d[lo : lo + step, lo + step :].T
        if metric is Metric.EUCLIDEAN:
            np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


@dataclass(frozen=True)
class Article:
    """A product style available for allocation.

    planned_total is the total units available; min_qty is the smallest
    shipment allowed to any store that receives the article at all.
    """

    id: str
    planned_total: int
    min_qty: int


@dataclass(frozen=True)
class Store:
    id: str
    desired_qty: int


@dataclass(frozen=True, eq=False)
class DistributionInstance:
    """Full parameter set for one allocation problem.

    Attributes:
        articles: Available styles with quantity limits.
        stores: Destinations with desired total quantities.
        alpha: Fractional deviation tolerance on store totals, kept as an
            exact Fraction so integer band bounds never suffer float
            rounding (e.g. floor(1.2 * 30) must be 36, not 35).
        big_m_policy: Cap rule for per-(article, store) shipments.
        distances: Pairwise dissimilarities over the articles.
    """

    articles: tuple[Article, ...]
    stores: tuple[Store, ...]
    alpha: Fraction
    distances: DistanceMatrix
    big_m_policy: BigMPolicy = BigMPolicy.STORE_QTY

    def __post_init__(self):
        object.__setattr__(self, "articles", tuple(self.articles))
        object.__setattr__(self, "stores", tuple(self.stores))
        object.__setattr__(self, "alpha", _as_exact_fraction(self.alpha))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistributionInstance):
            return NotImplemented
        return (
            self.articles == other.articles
            and self.stores == other.stores
            and self.alpha == other.alpha
            and self.big_m_policy is other.big_m_policy
            and self.distances == other.distances
        )

    @property
    def n_articles(self) -> int:
        return len(self.articles)

    @property
    def n_stores(self) -> int:
        return len(self.stores)

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, ...]:
        """Read-only int64 ``(min_qty, planned, cap, lower, upper)``: article fields, then each
        store's ``big_m``, ``lower_band`` and ``upper_band``, exact for any valid instance.
        Built on first read, so an invalid one (alpha 10**400) still reaches validation."""
        stores = range(self.n_stores)
        columns = (
            [a.min_qty for a in self.articles],
            [a.planned_total for a in self.articles],
            *([band(t) for t in stores] for band in (self.big_m, self.lower_band, self.upper_band)),
        )
        return tuple(_readonly(np.array(column, dtype=np.int64)) for column in columns)

    def lower_band(self, s: int) -> int:
        """Smallest integer total a store may receive: ceil((1-alpha)*q_s)."""
        return math.ceil((1 - self.alpha) * self.stores[s].desired_qty)

    def upper_band(self, s: int) -> int:
        """Largest integer total a store may receive: floor((1+alpha)*q_s)."""
        return math.floor((1 + self.alpha) * self.stores[s].desired_qty)

    def big_m(self, s: int) -> int:
        """Per-shipment cap for store s under the instance's policy."""
        if self.big_m_policy is BigMPolicy.STORE_QTY:
            return self.stores[s].desired_qty
        return self.upper_band(s)


def validate_instance(instance: DistributionInstance) -> list[Violation]:
    """Check every instance invariant, returning one Violation per breach.

    Each integer field, from a file or built in Python, must be an int
    (not a bool, float or text) within +-(2**31 - 1) and at least its
    least value in ``_INT_FIELDS``. An empty list means the instance is
    valid. Nothing is raised here; callers that need an exception should
    use ``ensure_valid``.
    """
    violations: list[Violation] = []
    alpha = instance.alpha
    if not (0 <= alpha < 1):
        huge = abs(alpha) > sys.float_info.max  # float(alpha) would overflow
        shown = (math.inf if alpha > 0 else -math.inf) if huge else float(alpha)
        violations.append(
            Violation("alpha_out_of_range", "alpha", f"alpha={shown} must lie in [0, 1)")
        )

    for kind, records in (("article", instance.articles), ("store", instance.stores)):
        seen: set[str] = set()
        for record in records:
            if record.id in seen:
                violations.append(Violation(f"duplicate_{kind}_id", record.id, f"{kind} id repeats"))
            seen.add(record.id)
            in_range = True
            for name, (least, code, reason) in _INT_FIELDS[kind].items():
                value = getattr(record, name)
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not (
                    -_MAX_INT <= value <= _MAX_INT
                ):
                    big = isinstance(value, int) and value.bit_length() > 64  # repr may raise
                    shown = f"<{value.bit_length()}-bit int>" if big else repr(value)
                    message = f"{name}={shown} must be an integer within +-{_MAX_INT}"
                    violations.append(Violation("not_an_integer_in_range", record.id, message))
                    in_range = False
                elif value < least:
                    message = f"{name}={value} must be >= {least}{reason}"
                    violations.append(Violation(code, record.id, message))
            if kind == "article" and in_range and record.min_qty > record.planned_total:
                message = f"min_qty={record.min_qty} exceeds planned_total={record.planned_total}"
                violations.append(Violation("min_exceeds_planned", record.id, message))
    if instance.distances.n != instance.n_articles:
        violations.append(
            Violation(
                "distance_size_mismatch",
                "distances",
                f"distance matrix is {instance.distances.n}x{instance.distances.n} "
                f"but there are {instance.n_articles} articles",
            )
        )
    return violations


def ensure_valid(instance: DistributionInstance) -> DistributionInstance:
    """Raise ValidationError if the instance has any violations."""
    violations = validate_instance(instance)
    if violations:
        raise ValidationError(violations)
    return instance


@dataclass(frozen=True, eq=False)
class DistributionPlan:
    """Integer shipment quantities and the variety each store gets.

    x is a non-negative 2-D array with one column per store. ``y`` (1
    exactly where x >= 1) and ``objective`` (the sum of the per-store
    varieties) are derived at construction, so neither can disagree.
    """

    x: np.ndarray
    per_store_variety: tuple[float, ...]
    y: np.ndarray = field(init=False)
    objective: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.int64)
        if x.ndim != 2:
            raise MalformedInputError(f"x must be a 2-D array, got shape {x.shape}")
        if np.any(x < 0):
            raise MalformedInputError("shipment quantities must be non-negative")
        varieties = tuple(float(v) for v in self.per_store_variety)
        if len(varieties) != x.shape[1]:
            raise MalformedInputError(
                f"{len(varieties)} variety values for {x.shape[1]} stores"
            )
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly((x >= 1).astype(np.int8)))
        object.__setattr__(self, "per_store_variety", varieties)
        object.__setattr__(self, "objective", float(sum(varieties)))

    @property
    def n_articles(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_stores(self) -> int:
        return int(self.x.shape[1])

    def store_set(self, s: int) -> tuple[int, ...]:
        """Indices of the articles assigned to store s."""
        return tuple(int(i) for i in np.nonzero(self.y[:, s])[0])

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "per_store_variety": list(self.per_store_variety),
            "x": self.x.tolist(),
            "y": self.y.astype(int).tolist(),
        }


def _parse_distances_block(block, articles: tuple, base_dir: Path | None) -> DistanceMatrix:
    if not isinstance(block, dict):
        raise MalformedInputError("'distances' must be an object")
    if "entries" in block:
        n = _as_int(block.get("n", len(articles)), field_name="distances.n")
        if n < 0:
            raise MalformedInputError(f"distances.n must be at least 0, got {n}")
        raw = block["entries"]
        if not isinstance(raw, list):
            raise MalformedInputError("'distances.entries' must be an array")
        if raw and all(isinstance(row, list) for row in raw):
            if len(raw) != n or any(len(row) != n for row in raw):
                raise MalformedInputError(f"'distances.entries' must be {n} rows of {n} numbers")
            raw = [value for row in raw for value in row]
        flat = _floats(raw, "'distances.entries' holds %r, not a number")
        return DistanceMatrix.from_flat(n, flat)
    if "catalog_ref" in block:
        ref = block["catalog_ref"]
        if not isinstance(ref, str) or not ref:
            raise MalformedInputError("'distances.catalog_ref' must be a path string")
        path = Path(ref)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        metric = Metric.from_name(block.get("metric", Metric.SQUARED_EUCLIDEAN.value))
        normalize = block.get("normalize", False)
        if not isinstance(normalize, bool):
            raise MalformedInputError(f"'distances.normalize' must be a boolean, not {normalize!r}")
        catalog = read_catalog_file(path)
        # Rows pair with articles by position; validate_instance checks the count.
        for style, article in zip(catalog.ids, articles):
            if style != article.id:
                raise MalformedInputError(
                    f"'distances.catalog_ref' style {style!r} is not article {article.id!r}"
                )
        return distance_matrix(catalog, metric, normalize=normalize)
    raise MalformedInputError(
        "'distances' needs either 'entries' (row-major) or 'catalog_ref'"
    )


def _records(payload: dict, key: str, record: str, cls, int_fields: tuple[str, ...]) -> tuple:
    """Build ``cls`` from each object in ``payload[key]``: an id plus integer fields."""
    raw = payload[key]
    if not isinstance(raw, list):
        raise MalformedInputError(f"'{key}' must be an array")
    records = []
    for idx, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise MalformedInputError(f"{record} {idx}: expected an object")
        try:
            values = {"id": _as_id(rec["id"], record=f"{record} {idx}")}
            values.update((name, _as_int(rec[name], field_name=name)) for name in int_fields)
        except KeyError as exc:
            raise MalformedInputError(f"{record} {idx}: missing field {exc.args[0]!r}") from exc
        records.append(cls(**values))
    return tuple(records)


def load_instance(text: str, base_dir: str | os.PathLike | None = None) -> DistributionInstance:
    """Parse an instance from JSON text.

    Floats stay JSON text, so ``DistributionInstance`` reads ``alpha``, last,
    as the exact decimal the file wrote. ``distances.entries`` holds n*n
    numbers or n rows of n; ``base_dir`` anchors a relative ``catalog_ref``.

    Raises:
        MalformedInputError: On structural problems, such as a quantity
            that is not a whole number. Semantic violations, an integer
            beyond +-(2**31 - 1) among them, are left to ``validate_instance``.
    """
    try:
        payload = json.loads(text, parse_float=str)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedInputError("instance JSON must be an object")
    for key in ("alpha", "articles", "stores", "distances"):
        if key not in payload:
            raise MalformedInputError(f"instance JSON missing {key!r}")
    policy = BigMPolicy.from_name(payload.get("big_m_policy", BigMPolicy.STORE_QTY.value))
    articles = _records(payload, "articles", "article", Article, ("planned_total", "min_qty"))
    stores = _records(payload, "stores", "store", Store, ("desired_qty",))
    base = Path(base_dir) if base_dir is not None else None
    distances = _parse_distances_block(payload["distances"], articles, base)
    return DistributionInstance(
        articles=articles,
        stores=stores,
        alpha=payload["alpha"],
        distances=distances,
        big_m_policy=policy,
    )


def read_instance_file(path: str | os.PathLike) -> DistributionInstance:
    p = Path(path)
    return load_instance(p.read_text(encoding="utf-8"), base_dir=p.parent)


def instance_to_json(instance: DistributionInstance) -> str:
    """Serialize an instance to the documented JSON shape."""
    alpha = float(instance.alpha)  # or exact text such as "1/3" where the float is not exact
    payload = {
        "alpha": alpha if Fraction(repr(alpha)) == instance.alpha else str(instance.alpha),
        "big_m_policy": instance.big_m_policy.value,
        "articles": [
            {"id": a.id, "planned_total": a.planned_total, "min_qty": a.min_qty}
            for a in instance.articles
        ],
        "stores": [
            {"id": s.id, "desired_qty": s.desired_qty} for s in instance.stores
        ],
        "distances": {
            "n": instance.distances.n,
            "entries": instance.distances.to_flat(),
        },
    }
    return json.dumps(payload, indent=2) + "\n"
