"""MQL plan cache: reuse, parameter rebinding, eviction, DDL invalidation.

Query texts are parsed (and, when parameter-free, analyzed) once and
reused; parameterized texts cache the parse only, so late-bound values
still get full literal type checking.  DDL changes index availability,
so it clears the cache outright.
"""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.mql.planner import PlanCache
from repro.obs import MetricsRegistry


@pytest.fixture
def stocked(db):
    with db.transaction() as txn:
        for name, cost in (("wheel", 10.0), ("frame", 120.0),
                           ("seat", 35.0)):
            txn.insert("Part", {"name": name, "cost": cost}, valid_from=0)
    return db


def _cache_stats(db):
    return {
        "hits": db.metrics.value("mql.plan_cache.hits"),
        "misses": db.metrics.value("mql.plan_cache.misses"),
        "evictions": db.metrics.value("mql.plan_cache.evictions"),
    }


class TestReuse:
    def test_repeated_query_hits_the_cache(self, stocked):
        db = stocked
        text = "SELECT ALL FROM Part WHERE Part.cost > 50 VALID AT 5"
        first = db.query(text)
        before = _cache_stats(db)
        second = db.query(text)
        after = _cache_stats(db)
        assert after["hits"] > before["hits"]
        assert len(first.entries) == len(second.entries) == 1

    def test_whitespace_variants_share_an_entry(self, stocked):
        db = stocked
        db.query("SELECT ALL FROM Part VALID AT 5")
        before = _cache_stats(db)
        db.query("SELECT  ALL\n FROM   Part  VALID AT 5")
        after = _cache_stats(db)
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_results_stay_correct_across_reuse(self, stocked):
        db = stocked
        text = "SELECT Part.name FROM Part WHERE Part.cost < 50 VALID AT 5"
        first = db.query(text)
        second = db.query(text)
        names = lambda result: sorted(
            entry.row["Part.name"] for entry in result.entries)
        assert names(first) == names(second) == ["seat", "wheel"]


class TestParameters:
    TEXT = "SELECT ALL FROM Part WHERE Part.cost > $limit VALID AT 5"

    def test_same_text_different_params_different_results(self, stocked):
        db = stocked
        cheap = db.query(self.TEXT, params={"limit": 5.0})
        pricey = db.query(self.TEXT, params={"limit": 100.0})
        assert len(cheap.entries) == 3
        assert len(pricey.entries) == 1
        # The parse was shared: the second run hit the cache.
        before = _cache_stats(db)
        db.query(self.TEXT, params={"limit": 100.0})
        assert _cache_stats(db)["hits"] > before["hits"]

    def test_cached_parse_still_type_checks_bindings(self, stocked):
        db = stocked
        db.query(self.TEXT, params={"limit": 5.0})  # prime the cache
        with pytest.raises(ParseError):
            db.query(self.TEXT, params={"limit": object()})

    def test_unbound_parameter_still_rejected(self, stocked):
        with pytest.raises(ParseError):
            stocked.query(self.TEXT)


class TestParamTypeAnalysisReuse:
    TEXT = "SELECT ALL FROM Part WHERE Part.cost > $limit VALID AT 5"

    def _param_stats(self, db):
        return {
            "hits": db.metrics.value(
                "mql.plan_cache.param_analysis_hits"),
            "misses": db.metrics.value(
                "mql.plan_cache.param_analysis_misses"),
        }

    def test_same_typed_rebinding_skips_reanalysis(self, stocked):
        db = stocked
        db.query(self.TEXT, params={"limit": 5.0})
        before = self._param_stats(db)
        assert before["misses"] >= 1
        db.query(self.TEXT, params={"limit": 100.0})
        after = self._param_stats(db)
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_new_type_signature_reanalyzes_once(self, stocked):
        db = stocked
        db.query(self.TEXT, params={"limit": 5.0})    # float: miss
        db.query(self.TEXT, params={"limit": 5})      # int: new miss
        mid = self._param_stats(db)
        db.query(self.TEXT, params={"limit": 7})      # int again: hit
        after = self._param_stats(db)
        assert mid["misses"] >= 2
        assert after["hits"] > mid["hits"]
        assert after["misses"] == mid["misses"]

    def test_results_identical_across_reused_analysis(self, stocked):
        db = stocked
        text = ("SELECT Part.name FROM Part WHERE Part.cost > $limit "
                "VALID AT 5")
        baseline = db.query(text, params={"limit": 100.0})
        reused = db.query(text, params={"limit": 100.0})
        rows = lambda r: sorted(e.row["Part.name"] for e in r.entries)
        assert rows(baseline) == rows(reused) == ["frame"]
        # Different value, same type: analysis reused, result differs.
        cheap = db.query(text, params={"limit": 5.0})
        assert len(cheap.entries) == 3

    def test_bad_type_still_rejected_after_priming(self, stocked):
        db = stocked
        db.query(self.TEXT, params={"limit": 5.0})  # prime float path
        with pytest.raises(ParseError):
            db.query(self.TEXT, params={"limit": object()})

    def test_signature_cap_bounds_entry_growth(self, stocked):
        from repro.mql.planner import MAX_PARAM_SIGNATURES, param_signature
        db = stocked
        db.query(self.TEXT, params={"limit": 5.0})
        entry = db._plan_cache.get(self.TEXT)
        assert len(entry.analyzed_by_types) == 1
        assert param_signature({"limit": 5.0}) in entry.analyzed_by_types
        assert len(entry.analyzed_by_types) <= MAX_PARAM_SIGNATURES


class TestDiffCaching:
    """DIFF texts ride the same cache — but BETWEEN bounds are *value*
    checks, so the analysis-reuse fast path must re-validate them."""

    @pytest.fixture
    def mutated(self, db):
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "axle", "cost": 3.0},
                              valid_from=0)
        self.t1 = db._clock.now() - 1
        with db.transaction() as txn:
            txn.update(part, {"cost": 9.0}, valid_from=0)
        self.t2 = db._clock.now() - 1
        return db

    def test_param_free_diff_hits_the_cache(self, mutated):
        db = mutated
        text = f"DIFF Part BETWEEN {self.t1} AND {self.t2}"
        first = db.query(text)
        before = _cache_stats(db)
        second = db.query(text)
        after = _cache_stats(db)
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]
        assert [e.row["kind"] for e in first.entries] == \
            [e.row["kind"] for e in second.entries] == ["attribute_changed"]

    def test_parameterized_diff_reuses_analysis(self, mutated):
        db = mutated
        text = "DIFF Part BETWEEN $a AND $b"
        db.query(text, params={"a": self.t1, "b": self.t2})
        before = db.metrics.value("mql.plan_cache.param_analysis_hits")
        result = db.query(text, params={"a": self.t1 - 1, "b": self.t2})
        after = db.metrics.value("mql.plan_cache.param_analysis_hits")
        assert after > before
        assert {e.row["kind"] for e in result.entries} == {"atom_created"}

    def test_reversed_bounds_rejected_cold(self, mutated):
        from repro.errors import AnalysisError
        with pytest.raises(AnalysisError, match="start < end"):
            mutated.query("DIFF Part BETWEEN $a AND $b",
                          params={"a": 9, "b": 3})

    def test_reversed_bounds_rejected_on_warm_analysis_reuse(self, mutated):
        # Regression: the param-signature fast path skipped analysis,
        # and with it the bound check — a reversed window surfaced as an
        # internal interval error instead, but only when the cache was
        # warm.  The value check must run on every compile.
        from repro.errors import AnalysisError
        db = mutated
        text = "DIFF Part BETWEEN $a AND $b"
        db.query(text, params={"a": self.t1, "b": self.t2})  # warm it
        before = db.metrics.value("mql.plan_cache.param_analysis_hits")
        with pytest.raises(AnalysisError, match="start < end"):
            db.query(text, params={"a": self.t2, "b": self.t1})
        with pytest.raises(AnalysisError, match="start < end"):
            db.query(text, params={"a": self.t1, "b": self.t1})
        assert db.metrics.value(
            "mql.plan_cache.param_analysis_hits") > before


class TestEviction:
    def test_capacity_bounds_the_cache(self):
        cache = PlanCache(capacity=2, metrics=MetricsRegistry())
        cache.put("q1", "plan1")
        cache.put("q2", "plan2")
        cache.put("q3", "plan3")
        assert len(cache) == 2
        assert cache.get("q1") is None      # oldest evicted
        assert cache.get("q3") == "plan3"

    def test_get_refreshes_recency(self):
        cache = PlanCache(capacity=2, metrics=MetricsRegistry())
        cache.put("q1", "plan1")
        cache.put("q2", "plan2")
        cache.get("q1")                     # q1 is now most recent
        cache.put("q3", "plan3")
        assert cache.get("q1") == "plan1"
        assert cache.get("q2") is None

    def test_eviction_counter_moves_in_a_database(self, stocked):
        db = stocked
        db._plan_cache = PlanCache(capacity=2, metrics=db.metrics)
        for limit in range(4):
            db.query(f"SELECT ALL FROM Part WHERE Part.cost > {limit} "
                     f"VALID AT 5")
        assert _cache_stats(db)["evictions"] >= 2


class TestDDLInvalidation:
    def test_create_attribute_index_clears_cache(self, stocked):
        db = stocked
        db.query("SELECT ALL FROM Part WHERE Part.name = 'wheel' "
                 "VALID AT 5")
        assert len(db._plan_cache) > 0
        db.create_attribute_index("Part", "name")
        assert len(db._plan_cache) == 0
        # And the re-planned query picks up the new index without error.
        result = db.query("SELECT ALL FROM Part WHERE Part.name = 'wheel' "
                          "VALID AT 5")
        assert len(result.entries) == 1

    def test_create_vt_index_clears_cache(self, stocked):
        db = stocked
        db.query("SELECT ALL FROM Part VALID AT 5")
        assert len(db._plan_cache) > 0
        db.create_vt_index("Part")
        assert len(db._plan_cache) == 0


class TestNormalization:
    def test_whitespace_runs_collapse_outside_literals(self):
        assert (PlanCache.normalize("SELECT  ALL\n FROM\tPart  VALID AT 5")
                == PlanCache.normalize("SELECT ALL FROM Part VALID AT 5"))

    def test_literal_whitespace_is_significant(self):
        # Regression: collapsing inside quotes aliased two different
        # queries to one cache key, returning each other's plans.
        one = PlanCache.normalize(
            "SELECT ALL FROM Part WHERE Part.name = 'a  b' VALID AT 5")
        two = PlanCache.normalize(
            "SELECT ALL FROM Part WHERE Part.name = 'a b' VALID AT 5")
        assert one != two
        assert "'a  b'" in one

    def test_escaped_quote_does_not_end_the_literal(self):
        text = "SELECT ALL FROM Part WHERE Part.name = 'a\\'  b'   VALID AT 5"
        normalized = PlanCache.normalize(text)
        assert "'a\\'  b'" in normalized
        assert normalized.endswith("VALID AT 5")

    def test_distinct_literals_get_distinct_plans(self, stocked):
        db = stocked
        with db.transaction() as txn:
            txn.insert("Part", {"name": "a  b", "cost": 1.0}, valid_from=0)
            txn.insert("Part", {"name": "a b", "cost": 2.0}, valid_from=0)
        spaced = db.query("SELECT Part.cost FROM Part "
                          "WHERE Part.name = 'a  b' VALID AT 5")
        single = db.query("SELECT Part.cost FROM Part "
                          "WHERE Part.name = 'a b' VALID AT 5")
        assert [r["Part.cost"] for r in spaced.rows()] == [1.0]
        assert [r["Part.cost"] for r in single.rows()] == [2.0]


class TestIndexPlanning:
    """``plan()`` chooses ``IndexLookup`` from the catalog; only the
    evaluator probes the index."""

    TEXT = "SELECT ALL FROM Part WHERE Part.name = 'wheel' VALID AT 5"

    def test_indexed_slice_probes_the_index_once(self, stocked):
        db = stocked
        db.create_attribute_index("Part", "name")
        probes = db.metrics.counter("index.probes")
        for _ in range(2):  # cold, then with the plan and entries warm
            before = probes.value
            result = db.query(self.TEXT)
            assert "via index(Part.name = 'wheel')" in result.plan
            assert len(result.entries) == 1
            assert probes.value == before + 1

    def test_unencodable_literal_fails_before_evaluation(self, db,
                                                         monkeypatch):
        from repro.errors import KeyEncodingError

        with db.transaction() as txn:
            txn.insert("Supplier", {"sname": "s", "rating": 1},
                       valid_from=0)
        db.create_attribute_index("Supplier", "rating")

        def evaluated(*args, **kwargs):
            raise AssertionError("evaluation ran")

        monkeypatch.setattr(db.builder, "build_many", evaluated)
        text = (f"SELECT ALL FROM Supplier WHERE Supplier.rating = {2**64} "
                "VALID AT 5")
        with pytest.raises(KeyEncodingError):
            db.query(text)
        with pytest.raises(KeyEncodingError):
            db.query_stream(text)
