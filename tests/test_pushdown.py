"""Differential oracle for predicate pushdown and ``SELECT path`` slices.

Every test here runs the same analyzed query twice — once through the
planned pushdown path and once with the pushdown spec stripped (the
legacy decode-then-filter pipeline) — and asserts the results are
identical entry for entry.  The pushdown is a pure optimization: any
observable difference is a bug, so the comparison covers entry order,
validity intervals, molecule shape, and projected rows, across all
three version-storage strategies (the ``db`` fixture parametrizes).
"""

from __future__ import annotations

import threading

import pytest

from repro.mql.analyzer import analyze
from repro.mql.evaluator import execute_plan
from repro.mql.parser import parse_query
from repro.mql.planner import QueryPlan, plan


def _canonical(result):
    return (result.projected,
            [(entry.root_id,
              (entry.valid.start, entry.valid.end),
              entry.molecule.to_dict() if entry.molecule is not None
              else None,
              entry.row)
             for entry in result])


def _differential(db, text):
    """Run *text* with and without pushdown; assert identical results."""
    analyzed = analyze(parse_query(text), db.schema)
    query_plan = plan(analyzed, db.engine)
    pushed = execute_plan(db, query_plan)
    legacy = execute_plan(db, QueryPlan(analyzed, query_plan.root_access))
    assert _canonical(pushed) == _canonical(legacy)
    return pushed, query_plan


@pytest.fixture
def stocked(db):
    """Parts with history: versions that pass and fail the predicates."""
    with db.transaction() as txn:
        parts = []
        for index in range(8):
            parts.append(txn.insert(
                "Part", {"name": f"part{index}", "cost": float(index * 10),
                         "released": index % 2 == 0},
                valid_from=0))
        nocost = txn.insert("Part", {"name": "nocost"}, valid_from=0)
        c1 = txn.insert("Component", {"cname": "hub", "weight": 2.0},
                        valid_from=0)
        c2 = txn.insert("Component", {"cname": "rim", "weight": 9.0},
                        valid_from=3)
        txn.link("contains", parts[0], c1, valid_from=0)
        txn.link("contains", parts[1], c2, valid_from=3)
    with db.transaction() as txn:
        # Later versions cross the predicate boundary both ways.
        txn.update(parts[0], {"cost": 500.0}, valid_from=10)
        txn.update(parts[7], {"cost": 1.0}, valid_from=10)
        txn.delete(parts[2], valid_from=5)
    return {"db": db, "parts": parts, "nocost": nocost}


SLICE_QUERIES = [
    "SELECT ALL FROM Part WHERE Part.cost > 35 VALID AT 1",
    "SELECT ALL FROM Part WHERE Part.cost > 35 VALID AT 12",
    "SELECT ALL FROM Part WHERE Part.cost <= 10 VALID AT 12",
    "SELECT ALL FROM Part WHERE Part.name = 'part3' VALID AT 1",
    "SELECT ALL FROM Part WHERE Part.released = TRUE VALID AT 1",
    "SELECT ALL FROM Part WHERE Part.cost = NULL VALID AT 1",
    "SELECT ALL FROM Part WHERE Part.cost != NULL VALID AT 1",
    "SELECT ALL FROM Part WHERE Part.cost > 20 AND Part.released = TRUE "
    "VALID AT 1",
    "SELECT ALL FROM Part WHERE Part.cost > 20 OR Part.released = TRUE "
    "VALID AT 1",
    "SELECT ALL FROM Part WHERE NOT Part.cost > 20 VALID AT 1",
    "SELECT Part.name, Part.cost FROM Part WHERE Part.cost >= 40 "
    "VALID AT 1",
    "SELECT Part.name FROM Part VALID AT 12",
    "SELECT ALL FROM Part.contains.Component "
    "WHERE Component.weight > 5 VALID AT 4",
    "SELECT Part.name, Component.cname FROM Part.contains.Component "
    "WHERE Part.cost < 50 VALID AT 4",
]

WINDOW_QUERIES = [
    "SELECT ALL FROM Part WHERE Part.cost > 35 VALID DURING [0, 20)",
    "SELECT ALL FROM Part WHERE Part.cost = NULL VALID DURING [0, 20)",
    "SELECT ALL FROM Part WHERE Part.name = 'part0' VALID HISTORY",
    "SELECT ALL FROM Part WHERE Part.cost <= 10 VALID HISTORY",
]


class TestDifferentialOracle:
    @pytest.mark.parametrize("text", SLICE_QUERIES)
    def test_slice_matches_legacy(self, stocked, text):
        _differential(stocked["db"], text)

    @pytest.mark.parametrize("text", WINDOW_QUERIES)
    def test_window_matches_legacy(self, stocked, text):
        _differential(stocked["db"], text)

    def test_selective_predicate_skips_decodes(self, stocked):
        db = stocked["db"]
        before = db.metrics.value("engine.pushdown.skipped")
        pushed, query_plan = _differential(
            db, "SELECT ALL FROM Part WHERE Part.name = 'part3' VALID AT 1")
        assert query_plan.pushdown is not None
        assert query_plan.pushdown.comparisons
        assert db.metrics.value("engine.pushdown.skipped") > before
        assert len(pushed) == 1

    def test_as_of_disables_pushdown(self, stocked):
        db = stocked["db"]
        text = ("SELECT ALL FROM Part WHERE Part.cost > 35 "
                "VALID AT 1 AS OF 1")
        analyzed = analyze(parse_query(text), db.schema)
        query_plan = plan(analyzed, db.engine)
        assert query_plan.pushdown is None

    def test_child_typed_comparison_is_not_pushed(self, stocked):
        db = stocked["db"]
        text = ("SELECT ALL FROM Part.contains.Component "
                "WHERE Component.weight > 5 VALID AT 4")
        analyzed = analyze(parse_query(text), db.schema)
        query_plan = plan(analyzed, db.engine)
        if query_plan.pushdown is not None:
            assert not query_plan.pushdown.comparisons

    def test_projection_never_leaks_partial_decodes(self, stocked):
        db = stocked["db"]
        # Populate the decode cache from a projected slice...
        _differential(
            db, "SELECT Part.name FROM Part WHERE Part.cost >= 0 VALID AT 1")
        # ...then a SELECT ALL must still see every attribute: a decode
        # cut to the projection would surface molecules with missing
        # attributes here.
        full = db.query("SELECT ALL FROM Part VALID AT 1")
        assert len(full) > 0
        for entry in full:
            values = entry.molecule.root.version.values
            assert "released" in values
            assert "cost" in values

    def test_batched_index_writes_visible_and_persisted(self, stocked):
        db = stocked["db"]
        db.create_attribute_index("Part", "name")
        before = db.metrics.value("index.batch_inserts")
        with db.transaction() as txn:
            txn.insert("Part", {"name": "fresh", "cost": 7.0}, valid_from=0)
        assert db.metrics.value("index.batch_inserts") > before
        result = db.query(
            "SELECT Part.cost FROM Part WHERE Part.name = 'fresh' "
            "VALID AT 1")
        assert [row["Part.cost"] for row in result.rows()] == [7.0]
        db.indexes.check_all()

    def test_pending_index_entries_visible_before_flush(self, stocked):
        db = stocked["db"]
        db.create_attribute_index("Part", "name")
        txn = db.begin()
        atom = txn.insert("Part", {"name": "inflight", "cost": 3.0},
                          valid_from=0)
        # Mid-transaction the entry is still buffered, but index
        # lookups must already see it — batching is invisible to reads.
        before_flush = db.query(
            "SELECT Part.cost FROM Part WHERE Part.name = 'inflight' "
            "VALID AT 1")
        assert before_flush.root_ids() == [atom]
        txn.commit()
        after_flush = db.query(
            "SELECT Part.cost FROM Part WHERE Part.name = 'inflight' "
            "VALID AT 1")
        assert after_flush.root_ids() == [atom]


class TestConcurrentWriter:
    def test_differential_under_concurrent_revisions(self, stocked):
        db = stocked["db"]
        parts = stocked["parts"]
        stop = threading.Event()
        failures = []

        def writer():
            cost = 1000.0
            try:
                while not stop.is_set():
                    with db.transaction() as txn:
                        txn.update(parts[3], {"cost": cost}, valid_from=20)
                    cost += 1.0
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            text = "SELECT ALL FROM Part WHERE Part.cost > 35 VALID AT 25"
            analyzed = analyze(parse_query(text), db.schema)
            query_plan = plan(analyzed, db.engine)
            stripped = QueryPlan(analyzed, query_plan.root_access)
            for _ in range(60):
                # One consistent snapshot per pair: the writer commits
                # between iterations, never inside one.
                with db._state_latch.read():
                    pushed = execute_plan(db, query_plan)
                    legacy = execute_plan(db, stripped)
                assert _canonical(pushed) == _canonical(legacy)
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert not failures


class TestCacheKeying:
    def test_partial_and_full_entries_do_not_alias(self, stocked):
        db = stocked["db"]
        engine = db.engine
        engine._decode_cache.clear()
        db.query(
            "SELECT Part.name FROM Part WHERE Part.cost >= 0 VALID AT 1")
        misses_after_projected = db.metrics.value(
            "engine.decode_cache.misses")
        db.query("SELECT ALL FROM Part VALID AT 1")
        # The full query cannot be served from partial entries: it must
        # miss and decode fully at least once.
        assert (db.metrics.value("engine.decode_cache.misses")
                > misses_after_projected)
