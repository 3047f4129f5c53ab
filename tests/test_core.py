"""Catalog, distance, and instance type behaviour."""

import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from stylemix.core import (
    Article,
    BigMPolicy,
    DistanceMatrix,
    DistributionInstance,
    DistributionPlan,
    FeatureCatalog,
    Metric,
    Store,
    distance_matrix,
    ensure_valid,
    instance_to_json,
    load_catalog,
    load_instance,
    read_catalog_file,
    read_instance_file,
    validate_instance,
)
from stylemix.errors import MalformedInputError, ValidationError
from stylemix.experiments import demo_instance

from conftest import adversarial_instance, random_feasible_instance


def small_catalog() -> FeatureCatalog:
    return FeatureCatalog(("a", "b"), np.array([[0.0, 0.0], [3.0, 4.0]]))


class TestFeatureCatalog:
    def test_round_trip_csv(self):
        cat = small_catalog()
        again = load_catalog(cat.to_csv(), format="csv")
        assert again == cat

    def test_round_trip_json(self):
        cat = small_catalog()
        again = load_catalog(cat.to_json(), format="json")
        assert again == cat

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MalformedInputError, match="duplicate style id 'a'"):
            FeatureCatalog(("a", "a"), np.zeros((2, 2)))

    def test_ragged_csv_rejected(self):
        with pytest.raises(MalformedInputError, match="row 'b' has 1 entries, expected 2"):
            load_catalog("a,1.0,2.0\nb,3.0\n", format="csv")

    def test_non_numeric_csv_rejected(self):
        with pytest.raises(MalformedInputError):
            load_catalog("a,1.0,fast\n", format="csv")

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedInputError, match="style 'a' has a non-finite vector entry"):
            FeatureCatalog(("a",), np.array([[np.nan]]))

    @pytest.mark.parametrize(
        "text, format, message",
        [
            ('{"id": "a", "vector": [1]}', "json", "catalog JSON must be an array of objects"),
            ('[{"id": "a"}]', "json", "record 0: expected an object with 'id' and 'vector'"),
            ('[{"vector": [1]}]', "json", "record 0: expected an object with 'id' and 'vector'"),
            ('[{"id": "a", "vector": 1}]', "json", "record 'a': vector must be an array"),
            ('[{"id": "a", "vector": [1, true]}]', "json", "row 'a': cannot parse vector entry True"),
            ('[{"id": "a", "vector": [null]}]', "json", "row 'a': cannot parse vector entry None"),
            ('[{"id": "a", "vector": [[1]]}]', "json", "row 'a': cannot parse vector entry [1]"),
            ('[{"id": "a", "vector": ["1_000"]}]', "json", "row 'a': cannot parse vector entry '1_000'"),
            ("a,1_000,2\n", "csv", "row 'a': cannot parse vector entry '1_000'"),
            ("[{", "json", "invalid JSON"),
            ("a,1.0\n", "yaml", "unknown catalog format 'yaml'"),
            ("a,1.0\n ,2.0\n", "csv", "line 2: empty style id"),
            ("a,1.0\nb\n", "csv", "row 'b' has no vector entries"),
            pytest.param("[" * 100_000 + "]" * 100_000, "json", "invalid JSON", id="deep-nesting"),
        ],
    )
    def test_malformed_catalog_rejected(self, text, format, message):
        with pytest.raises(MalformedInputError) as exc:
            load_catalog(text, format)
        assert str(exc.value).startswith(message)

    def test_empty_catalog_rejected(self):
        with pytest.raises(MalformedInputError):
            load_catalog("", format="csv")

    def test_vectors_read_only(self):
        cat = small_catalog()
        with pytest.raises(ValueError):
            cat.vectors[0, 0] = 9.0

    def test_normalized_unit_rows(self):
        cat = FeatureCatalog(("a", "b"), np.array([[3.0, 4.0], [0.0, 2.0]]))
        norms = np.linalg.norm(cat.normalized().vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0)

    def test_normalized_zero_vector_rejected(self):
        cat = FeatureCatalog(("a", "b"), np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(MalformedInputError, match="style 'a' has a zero vector and cannot"):
            cat.normalized()

    def test_read_catalog_file_infers_format(self, tmp_path):
        cat = small_catalog()
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(cat.to_csv())
        json_path = tmp_path / "c.json"
        json_path.write_text(cat.to_json())
        assert read_catalog_file(csv_path) == cat
        assert read_catalog_file(json_path) == cat


class TestDistanceComputation:
    def test_squared_euclidean_example(self):
        d = distance_matrix(small_catalog(), Metric.SQUARED_EUCLIDEAN)
        np.testing.assert_allclose(d.entries, [[0.0, 25.0], [25.0, 0.0]])

    def test_euclidean_example(self):
        d = distance_matrix(small_catalog(), Metric.EUCLIDEAN)
        np.testing.assert_allclose(d.entries, [[0.0, 5.0], [5.0, 0.0]])

    def test_metric_from_name_accepts_hyphens(self):
        assert Metric.from_name("squared-euclidean") is Metric.SQUARED_EUCLIDEAN
        with pytest.raises(MalformedInputError):
            Metric.from_name("manhattan")

    def test_normalize_flag(self):
        cat = FeatureCatalog(("a", "b"), np.array([[2.0, 0.0], [0.0, 5.0]]))
        d = distance_matrix(cat, Metric.EUCLIDEAN, normalize=True)
        np.testing.assert_allclose(d.entries[0, 1], math.sqrt(2.0))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_symmetric_zero_diagonal(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        cat = FeatureCatalog(
            tuple(f"s{i}" for i in range(n)), rng.normal(size=(n, dim))
        )
        for metric in Metric:
            d = distance_matrix(cat, metric).entries
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            assert np.all(d >= 0.0)

    def test_matches_scipy_cdist_bit_for_bit(self):
        # cdist sums (u_k - v_k)**2 in feature order; a pairwise or
        # reordered sum differs in the last bits. Sizes cross the row blocks
        # and the per-feature scales make the order matter.
        rng = np.random.default_rng(26)
        cases = [(1, 1), (2, 300), (130, 1), (130, 300), (129, 254)]
        cases += [(int(rng.integers(1, 131)), int(rng.integers(1, 301))) for _ in range(55)]
        names = {Metric.SQUARED_EUCLIDEAN: "sqeuclidean", Metric.EUCLIDEAN: "euclidean"}
        for n, dim in cases:
            scales = 10.0 ** rng.uniform(-6, 6) * 10.0 ** rng.uniform(-2, 2, size=dim)
            vectors = rng.normal(size=(n, dim)) * scales
            cat = FeatureCatalog(tuple(f"s{i}" for i in range(n)), vectors)
            for metric, name in names.items():
                for normalize in (False, True):
                    vectors = (cat.normalized() if normalize else cat).vectors
                    expected = cdist(vectors, vectors, metric=name)
                    np.fill_diagonal(expected, 0.0)
                    got = distance_matrix(cat, metric, normalize=normalize).entries
                    assert got.tobytes() == expected.tobytes(), (n, dim, metric, normalize)

    def test_overflow_raises_without_a_warning(self):
        cat = FeatureCatalog(("a", "b"), np.array([[1e200, 0.0], [-1e200, 1.0]]))
        for metric in Metric:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(MalformedInputError, match="non-finite entries"):
                    distance_matrix(cat, metric)

    def test_squared_is_square_of_euclidean(self):
        rng = np.random.default_rng(5)
        cat = FeatureCatalog(
            tuple(f"s{i}" for i in range(5)), rng.normal(size=(5, 3))
        )
        sq = distance_matrix(cat, Metric.SQUARED_EUCLIDEAN).entries
        eu = distance_matrix(cat, Metric.EUCLIDEAN).entries
        np.testing.assert_allclose(sq, eu**2, atol=1e-9)


class TestDistanceMatrix:
    def test_rejects_asymmetry(self):
        with pytest.raises(MalformedInputError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(MalformedInputError):
            DistanceMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(MalformedInputError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[0.0, 1.0]], r"must be square, got shape \(1, 2\)"),
            ([0.0, 1.0], r"must be square, got shape \(2,\)"),
            ([[0.0, np.inf], [np.inf, 0.0]], "non-finite entries"),
            ([[0.0, np.nan], [np.nan, 0.0]], "non-finite entries"),
        ],
        ids=["non-square", "one-dimensional", "inf", "nan"],
    )
    def test_rejects_bad_shape_or_non_finite(self, entries, message):
        with pytest.raises(MalformedInputError, match=message):
            DistanceMatrix(np.array(entries))

    def test_flat_round_trip(self):
        d = DistanceMatrix(np.array([[0.0, 2.5], [2.5, 0.0]]))
        again = DistanceMatrix.from_flat(2, d.to_flat())
        assert again == d

    def test_csv_round_trip_is_exact(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(4, 2))
        d = distance_matrix(FeatureCatalog(("a", "b", "c", "d"), pts), Metric.EUCLIDEAN)
        rows = [line.split(",") for line in d.to_csv().strip().splitlines()]
        again = DistanceMatrix(np.array([[float(v) for v in row] for row in rows]))
        assert again == d


class TestBandArithmetic:
    def test_exact_bands_for_decimal_alpha(self):
        inst = DistributionInstance(
            articles=(Article("a0", 10, 1), Article("a1", 10, 1)),
            stores=(Store("s0", 30),),
            alpha=Fraction("0.2"),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        # float(1.2) * 30 floors to 35; the exact value is 36
        assert inst.upper_band(0) == 36
        assert inst.lower_band(0) == 24

    def test_alpha_given_as_float_string_stays_exact(self):
        doc = {
            "alpha": 0.2,
            "articles": [
                {"id": "a0", "planned_total": 10, "min_qty": 1},
                {"id": "a1", "planned_total": 10, "min_qty": 1},
            ],
            "stores": [{"id": "s0", "desired_qty": 30}],
            "distances": {"n": 2, "entries": [0.0, 1.0, 1.0, 0.0]},
        }
        inst = load_instance(json.dumps(doc))
        assert inst.alpha == Fraction(1, 5)
        assert inst.upper_band(0) == 36

    def test_zero_alpha_pins_band_to_desired(self):
        inst = DistributionInstance(
            articles=(Article("a0", 9, 1), Article("a1", 9, 1)),
            stores=(Store("s0", 7),),
            alpha=Fraction(0),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        assert inst.lower_band(0) == 7
        assert inst.upper_band(0) == 7

    @given(
        st.integers(min_value=1, max_value=500),
        st.fractions(min_value=0, max_value=Fraction(99, 100)),
    )
    @settings(max_examples=200, deadline=None)
    def test_band_bounds_bracket_desired(self, q, alpha):
        inst = DistributionInstance(
            articles=(Article("a0", 5, 1), Article("a1", 5, 1)),
            stores=(Store("s0", q),),
            alpha=alpha,
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        lb, ub = inst.lower_band(0), inst.upper_band(0)
        assert 1 <= lb <= q <= ub
        assert lb >= math.ceil((1 - float(alpha)) * q) - 1
        assert ub <= math.floor((1 + float(alpha)) * q) + 1

    def test_big_m_policies(self):
        base = dict(
            articles=(Article("a0", 10, 1), Article("a1", 10, 1)),
            stores=(Store("s0", 30),),
            alpha=Fraction("0.2"),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        strict = DistributionInstance(**base, big_m_policy=BigMPolicy.STORE_QTY)
        roomy = DistributionInstance(**base, big_m_policy=BigMPolicy.BAND_LIMIT)
        assert strict.big_m(0) == 30
        assert roomy.big_m(0) == 36

    def test_bounds_table_matches_the_band_methods(self):
        instances = [demo_instance()]
        instances += [random_feasible_instance(seed)[0] for seed in range(50)]
        instances += [adversarial_instance(seed) for seed in range(50)]
        for base in instances:
            for policy in BigMPolicy:
                inst = dataclasses.replace(base, big_m_policy=policy)
                stores = range(inst.n_stores)
                table = inst.bounds
                assert [column.tolist() for column in table] == [
                    [a.min_qty for a in inst.articles],
                    [a.planned_total for a in inst.articles],
                    [inst.big_m(t) for t in stores],
                    [inst.lower_band(t) for t in stores],
                    [inst.upper_band(t) for t in stores],
                ]
                for column in table:
                    assert column.dtype == np.int64 and not column.flags.writeable
                assert inst.bounds is table

    def test_policy_wire_names(self):
        assert BigMPolicy.STORE_QTY.value == "paper_qs"
        assert BigMPolicy.BAND_LIMIT.value == "tolerant_qs"
        assert BigMPolicy.from_name("tolerant_qs") is BigMPolicy.BAND_LIMIT


class TestValidation:
    def base_instance(self, **overrides) -> DistributionInstance:
        kwargs = dict(
            articles=(Article("a0", 10, 2), Article("a1", 10, 2)),
            stores=(Store("s0", 8), Store("s1", 9)),
            alpha=Fraction("0.1"),
            distances=DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        kwargs.update(overrides)
        return DistributionInstance(**kwargs)

    def test_valid_instance_no_violations(self):
        assert validate_instance(self.base_instance()) == []

    def test_alpha_out_of_range(self):
        bad = self.base_instance(alpha=Fraction(1))
        codes = [v.code for v in validate_instance(bad)]
        assert "alpha_out_of_range" in codes

    def test_duplicate_article_id(self):
        bad = self.base_instance(
            articles=(Article("a0", 10, 2), Article("a0", 10, 2))
        )
        codes = [v.code for v in validate_instance(bad)]
        assert "duplicate_article_id" in codes

    def test_min_exceeds_planned(self):
        bad = self.base_instance(
            articles=(Article("a0", 1, 2), Article("a1", 10, 2))
        )
        codes = [v.code for v in validate_instance(bad)]
        assert "min_exceeds_planned" in codes

    def test_negative_planned_total(self):
        bad = self.base_instance(
            articles=(Article("a0", -1, 2), Article("a1", 10, 2))
        )
        codes = [v.code for v in validate_instance(bad)]
        assert "negative_planned_total" in codes

    def test_min_below_one(self):
        bad = self.base_instance(
            articles=(Article("a0", 10, 0), Article("a1", 10, 2))
        )
        codes = [v.code for v in validate_instance(bad)]
        assert "min_qty_below_one" in codes

    def test_distance_size_mismatch(self):
        d3 = np.zeros((3, 3))
        d3[0, 1] = d3[1, 0] = 1.0
        bad = self.base_instance(distances=DistanceMatrix(d3))
        codes = [v.code for v in validate_instance(bad)]
        assert "distance_size_mismatch" in codes

    @pytest.mark.parametrize(
        "record, field_name, value",
        [
            ("stores", "desired_qty", 10**19),
            ("stores", "desired_qty", 3 * 10**9),
            ("stores", "desired_qty", -(2**31)),
            ("articles", "planned_total", 16.9),
            ("articles", "planned_total", "16"),
            ("articles", "planned_total", True),
            ("articles", "min_qty", np.int64(2**40)),
        ],
    )
    def test_integer_fields_must_be_ints_within_32_bits(self, record, field_name, value):
        # An instance built in Python meets the same rule as a parsed file.
        base = self.base_instance()
        first = dataclasses.replace(getattr(base, record)[0], **{field_name: value})
        bad = self.base_instance(**{record: (first, *getattr(base, record)[1:])})
        [violation] = validate_instance(bad)
        assert (violation.code, violation.subject) == ("not_an_integer_in_range", first.id)
        assert violation.message == f"{field_name}={value!r} must be an integer within +-2147483647"

    def test_integer_past_4300_digits_is_a_violation(self):
        # repr(10**5000) raises ValueError; validation must not.
        base = self.base_instance()
        first = dataclasses.replace(base.stores[0], desired_qty=10**5000)
        [violation] = validate_instance(self.base_instance(stores=(first, *base.stores[1:])))
        assert (violation.code, violation.subject) == ("not_an_integer_in_range", first.id)
        assert violation.message == "desired_qty=<16610-bit int> must be an integer within +-2147483647"

    def test_ensure_valid_raises_with_all_violations(self):
        bad = self.base_instance(
            alpha=Fraction(2),
            stores=(Store("s0", 8), Store("s0", 0)),
        )
        with pytest.raises(ValidationError) as info:
            ensure_valid(bad)
        codes = {v.code for v in info.value.violations}
        assert {"alpha_out_of_range", "duplicate_store_id", "desired_qty_below_one"} <= codes


class TestDistributionPlan:
    def test_store_set(self):
        plan = DistributionPlan(
            x=np.array([[2, 0], [1, 3], [0, 4]]),
            per_store_variety=(1.0, 2.0),
        )
        assert plan.store_set(0) == (0, 1)
        assert plan.store_set(1) == (1, 2)


class TestInstanceIO:
    def demo_doc(self) -> dict:
        return {
            "alpha": "0.2",
            "big_m_policy": "paper_qs",
            "articles": [
                {"id": "a0", "planned_total": 16, "min_qty": 4},
                {"id": "a1", "planned_total": 16, "min_qty": 4},
            ],
            "stores": [{"id": "s0", "desired_qty": 12}],
            "distances": {"n": 2, "entries": [0.0, 3.0, 3.0, 0.0]},
        }

    def test_round_trip(self):
        inst = load_instance(json.dumps(self.demo_doc()))
        again = load_instance(instance_to_json(inst))
        assert again == inst

    def test_round_trip_keeps_an_alpha_without_exact_decimal(self):
        doc = self.demo_doc()
        doc["alpha"] = "1/3"
        doc["stores"] = [{"id": "s0", "desired_qty": 30}]
        inst = load_instance(json.dumps(doc))
        text = instance_to_json(inst)
        assert json.loads(text)["alpha"] == "1/3"
        again = load_instance(text)
        assert again == inst and again.upper_band(0) == 40
        # An alpha whose float text is exact stays a JSON number.
        assert json.loads(instance_to_json(load_instance(json.dumps(self.demo_doc()))))["alpha"] == 0.2

    def test_nested_entries_accepted(self):
        doc = self.demo_doc()
        doc["distances"] = {"n": 2, "entries": [[0.0, 3.0], [3.0, 0.0]]}
        inst = load_instance(json.dumps(doc))
        assert inst.distances.entries[0, 1] == 3.0

    def test_catalog_ref_distances(self, tmp_path):
        # Catalog rows pair with articles by position, so the ids match.
        cat = FeatureCatalog(("a0", "a1"), small_catalog().vectors)
        (tmp_path / "cat.csv").write_text(cat.to_csv())
        doc = self.demo_doc()
        doc["distances"] = {
            "catalog_ref": "cat.csv",
            "metric": "squared_euclidean",
        }
        (tmp_path / "inst.json").write_text(json.dumps(doc))
        inst = read_instance_file(tmp_path / "inst.json")
        assert inst.distances.entries[0, 1] == 25.0

    def test_missing_key_rejected(self):
        doc = self.demo_doc()
        del doc["stores"]
        with pytest.raises(MalformedInputError):
            load_instance(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(MalformedInputError):
            load_instance("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(MalformedInputError, match="instance JSON must be an object"):
            load_instance(json.dumps([self.demo_doc()]))

    def test_alpha_is_read_after_the_records(self):
        doc = self.demo_doc()
        doc["alpha"] = "fast"
        doc["articles"][0]["planned_total"] = 2.5
        with pytest.raises(MalformedInputError, match="planned_total"):
            load_instance(json.dumps(doc))
        doc["articles"][0]["planned_total"] = 16
        with pytest.raises(MalformedInputError, match="not a number: 'fast'"):
            load_instance(json.dumps(doc))

    def test_quantity_beyond_32_bits_rejected(self):
        # The range is a validation rule: the file loads and then fails it.
        doc = self.demo_doc()
        doc["stores"][0]["desired_qty"] = 2**31 - 1
        assert validate_instance(load_instance(json.dumps(doc))) == []
        doc["stores"][0]["desired_qty"] = 2**31
        [violation] = validate_instance(load_instance(json.dumps(doc)))
        assert (violation.code, violation.subject) == ("not_an_integer_in_range", "s0")

    def test_non_integer_quantity_rejected(self):
        doc = self.demo_doc()
        doc["articles"][0]["planned_total"] = 2.5
        with pytest.raises(MalformedInputError):
            load_instance(json.dumps(doc))
