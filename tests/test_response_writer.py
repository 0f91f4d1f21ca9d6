"""The server's response writer against its dict-form oracle.

QUERY/EXECUTE responses and cursor FETCH chunks are written by splicing
each atom version's canonical JSON fragment — kept on the cached full
decode once a response made it — into a per-occurrence shell.  The
load-bearing property: the written bytes equal
``encode_payload(result_to_payload(result))`` for every query shape,
every value (non-ASCII and escape-needing strings, floats, NULLs), warm
and cold, across every route that changes or drops cached versions
(update, correct, delete, undo, vacuum, ``drop_caches``), on all three
storage strategies — so a stale fragment can never be served.  The
cache's byte accounting must add up with the kept fragments charged.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, TemporalDatabase
from repro.core.engine import DECODE_CACHE_ENTRY_OVERHEAD, _slot_cost
from repro.errors import ReproError
from repro.mql.result import QueryResult, ResultEntry
from repro.server.protocol import (
    encode_fetch,
    encode_payload,
    encode_result,
    entries_to_payload,
    result_to_payload,
    version_fragment,
)
from repro.temporal import Interval
from repro.tools.vacuum import vacuum_superseded

MT = "Part.contains.Component"

#: Every query shape the writer serves: molecules at an instant (NOW
#: too), as of a transaction time, over windows and whole histories;
#: DIFF rows, projected paths, aggregates and a pushed-down predicate.
QUERIES = (
    "SELECT ALL FROM {mt} VALID AT {at}",
    "SELECT ALL FROM {mt}",
    "SELECT ALL FROM {mt} VALID AT {at} AS OF {tt}",
    "SELECT ALL FROM {mt} VALID DURING [{at}, {end})",
    "SELECT ALL FROM {mt} VALID HISTORY",
    "SELECT ALL FROM Part WHERE Part.cost > 1.5 VALID AT {at}",
    "SELECT Part.name, Part.cost FROM Part VALID HISTORY",
    "SELECT Part.name, COUNT(Component), AVG(Component.weight) "
    "FROM {mt} VALID AT {at}",
    "DIFF {mt} BETWEEN {tt} AND {tt2}",
)

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
_FLOAT = st.one_of(st.none(), st.floats(allow_nan=False,
                                        allow_infinity=False))


def _oracle(result):
    return encode_payload(result_to_payload(result))


def _written(db, result):
    return encode_result(result, db.engine.keep_fragments)


def _check_accounting(db):
    """Every entry's cost is its overhead plus its slots' costs (kept
    fragments included), the total is their sum, and every kept
    fragment is its own version's."""
    cache = db.engine._decode_cache
    with cache._lock:
        for entry in cache._atoms.values():
            assert entry.cost == DECODE_CACHE_ENTRY_OVERHEAD + sum(
                _slot_cost(slot) for slot in entry.slots.values())
            for seq, slot in entry.slots.items():
                version = slot.version
                if version is not None and version.fragment is not None:
                    assert version.slot_seq == seq
                    assert version.fragment == version_fragment(version)
        assert cache._bytes == sum(entry.cost
                                   for entry in cache._atoms.values())


def _serve_all(db, texts):
    """Each query served twice (the second pass splices what the first
    kept); the written bytes must equal the oracle's each time."""
    for _ in range(2):
        for text in texts:
            result = db.query(text)
            assert _written(db, result) == _oracle(result), text
    _check_accounting(db)


@st.composite
def _programs(draw):
    """Seed values, then random mutations, rolled-back transactions,
    vacuums, cache drops and serves of every query shape."""
    seeds = draw(st.lists(st.tuples(_TEXT, _FLOAT, _TEXT, _FLOAT),
                          min_size=1, max_size=3))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.integers(0, 20))
        steps.append((
            draw(st.sampled_from(["update", "rename", "correct", "delete",
                                  "link", "unlink", "abort", "vacuum",
                                  "drop", "serve", "serve"])),
            draw(st.integers(0, 9)), draw(st.integers(0, 9)),
            draw(_FLOAT), draw(_TEXT), start,
            draw(st.integers(start + 1, 30))))
    return seeds, steps


def _seed(db, seeds):
    parts, comps = [], []
    with db.transaction() as txn:
        for name, cost, cname, weight in seeds:
            part = txn.insert("Part", {"name": name, "cost": cost},
                              valid_from=0)
            comp = txn.insert("Component", {"cname": cname,
                                            "weight": weight},
                              valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
            parts.append(part)
            comps.append(comp)
    return parts, comps


def _mutate(txn, parts, comps, kind, a, b, value, text, start, end):
    part, comp = parts[a % len(parts)], comps[b % len(comps)]
    if kind == "update":
        txn.update(comp if a % 2 else part,
                   {"weight": value} if a % 2 else {"cost": value},
                   valid_from=start)
    elif kind == "rename":
        txn.update(part, {"name": text}, valid_from=start, valid_to=end)
    elif kind == "correct":
        txn.correct(part, start, end, {"cost": value})
    elif kind == "delete":
        txn.delete(comp, valid_from=start, valid_to=end)
    else:
        getattr(txn, kind)("contains", part, comp, valid_from=start)


def _texts(db, start, end):
    now = db._clock.now()
    return [template.format(mt=MT, at=start, end=end, tt=max(now - 2, 0),
                            tt2=now) for template in QUERIES]


def _run(db, parts, comps, steps):
    history = f"SELECT ALL FROM {MT} VALID HISTORY"
    for kind, a, b, value, text, start, end in steps:
        if kind == "serve":
            _serve_all(db, _texts(db, start, end))
            continue
        # A response is written after its query released the engine, so
        # the step may drop or replace the slots its versions came from
        # before it is written.
        held = db.query(history)
        _step(db, parts, comps, kind, a, b, value, text, start, end)
        db.query(history)  # refill what the step dropped
        assert _written(db, held) == _oracle(held)
        _check_accounting(db)


def _step(db, parts, comps, kind, a, b, value, text, start, end):
    if kind == "vacuum":
        vacuum_superseded(db, db._clock.now())
    elif kind == "drop":
        db.engine.drop_caches()
    elif kind == "abort":
        txn = db.begin()
        try:
            _mutate(txn, parts, comps, "rename", a, b, value,
                    text + "~", start, end)
            _mutate(txn, parts, comps, "update", a, b, value, text,
                    start, end)
        except ReproError:
            pass  # an invalid random step: abort what there is
        txn.abort()
    else:
        try:
            with db.transaction() as txn:
                _mutate(txn, parts, comps, kind, a, b, value, text,
                        start, end)
        except ReproError:
            pass  # an invalid random step (nothing to unlink, ...)


class TestWriterEqualsOracle:
    """Random programs on every strategy: every served response equals
    its oracle, warm and cold, after every invalidation route."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(program=_programs())
    def test_random_programs(self, tmp_path_factory, cad_schema, strategy,
                             program):
        seeds, steps = program
        db = TemporalDatabase.create(
            str(tmp_path_factory.mktemp("writer") / "db"), cad_schema,
            DatabaseConfig(strategy=strategy, buffer_pages=32))
        try:
            parts, comps = _seed(db, seeds)
            _run(db, parts, comps, steps)
            texts = _texts(db, 3, 12)
            _serve_all(db, texts)  # warm: whatever the program left
            warm = [_written(db, db.query(text)) for text in texts]
            for text, answer in zip(texts, warm):
                db.engine.drop_caches()
                assert _written(db, db.query(text)) == answer, text
        finally:
            db.close()


@pytest.fixture
def stocked(db):
    with db.transaction() as txn:
        parts = [txn.insert("Part", {"name": f"pé\"{i}\\",
                                     "cost": 0.1 * i}, valid_from=0)
                 for i in range(4)]
        comps = [txn.insert("Component", {"cname": "☃\n",
                                          "weight": None}, valid_from=0)
                 for _ in range(4)]
        for part, comp in zip(parts, comps):
            txn.link("contains", part, comp, valid_from=0)
    for at in range(1, 6):
        with db.transaction() as txn:
            for comp in comps:
                txn.update(comp, {"weight": at * 1.5}, valid_from=at)
    return db, parts, comps


class TestFragments:
    """What is kept, where, and what is counted."""

    def _history(self, db):
        return db.query(f"SELECT ALL FROM {MT} VALID HISTORY")

    def _counts(self, db):
        return (db.metrics.value("engine.fragment_cache.misses"),
                db.metrics.value("engine.fragment_cache.hits"))

    def test_warm_history_makes_no_fragment(self, stocked):
        db, _, _ = stocked
        db.engine.drop_caches()
        result = self._history(db)
        distinct = {id(atom.version) for entry in result
                    for atom in entry.molecule.atoms()}
        occurrences = sum(entry.molecule.atom_count() for entry in result)
        before = self._counts(db)
        assert _written(db, result) == _oracle(result)
        made = self._counts(db)
        assert made[0] - before[0] == len(distinct)
        assert made[1] - before[1] == occurrences - len(distinct)
        result = self._history(db)
        assert _written(db, result) == _oracle(result)
        after = self._counts(db)
        assert after[0] == made[0]
        assert after[1] - made[1] == occurrences

    def test_kept_fragments_are_charged_and_dropped(self, stocked):
        db, _, _ = stocked
        cache = db.engine._decode_cache
        db.engine.drop_caches()
        result = self._history(db)
        before = cache.bytes_used
        _written(db, result)
        kept = {id(atom.version): len(atom.version.fragment)
                for entry in result for atom in entry.molecule.atoms()}
        assert cache.bytes_used == before + sum(kept.values())
        _check_accounting(db)
        db.engine.drop_caches()
        assert cache.bytes_used == 0

    def test_update_serves_the_new_state(self, stocked):
        db, parts, comps = stocked
        _written(db, self._history(db))
        with db.transaction() as txn:
            txn.update(comps[0], {"cname": "newé"}, valid_from=2)
            txn.correct(parts[1], 1, 3, {"cost": -2.5})
        for text in (f"SELECT ALL FROM {MT} VALID HISTORY",
                     f"SELECT ALL FROM {MT}"):
            result = db.query(text)
            assert _written(db, result) == _oracle(result)
        _check_accounting(db)

    def test_uncached_versions_keep_nothing(self, tmp_path, cad_schema):
        db = TemporalDatabase.create(
            str(tmp_path / "db"), cad_schema,
            DatabaseConfig(decode_cache_bytes=1))
        try:
            with db.transaction() as txn:
                txn.insert("Part", {"name": "p", "cost": 1.0}, valid_from=0)
            for _ in range(2):
                result = db.query("SELECT ALL FROM Part VALID HISTORY")
                assert _written(db, result) == _oracle(result)
            assert db.metrics.value("engine.fragment_cache.misses") == 2
            assert db.engine._decode_cache.bytes_used == 0
        finally:
            db.close()

    def test_null_molecule_and_profile_members(self, stocked):
        db, _, _ = stocked
        result = db.query(f"EXPLAIN ANALYZE SELECT ALL FROM {MT} VALID AT 2")
        assert result.profile is not None
        assert _written(db, result) == _oracle(result)
        bare = QueryResult([ResultEntry(7, Interval(1, 4), None, None)]
                           + list(result), "plan é", False)
        assert _written(db, bare) == _oracle(bare)

    def test_fetch_chunk_matches_its_dict_form(self, stocked):
        db, _, _ = stocked
        result = db.query(f"SELECT ALL FROM {MT} VALID HISTORY")
        for projected in (False, True):
            entries = (list(result) if not projected else
                       list(db.query("SELECT Part.name FROM Part "
                                     "VALID HISTORY")))
            want = encode_payload({
                "cursor_id": 3, "done": False,
                "entries": entries_to_payload(entries, projected)})
            assert encode_fetch(3, entries, projected,
                                db.engine.keep_fragments) == want

    def test_derived_versions_carry_no_fragment(self, stocked):
        db, parts, _ = stocked
        _written(db, self._history(db))
        version = db.engine.version_at(parts[0], 2)
        assert version.fragment is not None
        for derived in (version.with_vt(Interval(0, 1)),
                        version.with_state({"name": "x"}, {}),
                        version.closed_at(99)):
            assert derived.fragment is None
            assert derived.slot_seq is None
