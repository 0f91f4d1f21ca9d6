"""Streaming MQL execution: chunked results vs the eager oracle.

The load-bearing property is the differential one: for every temporal
clause, selection shape, and chunk size, flattening the stream's chunks
must reproduce the eager ``execute_query`` result exactly — same
entries, same order.  Around it: chunk-size arithmetic, lazy-evaluation
semantics (writers between chunks, early close), and argument
validation.
"""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError
from repro.mql import StreamingResult, execute_query, execute_query_stream

QUERIES = [
    "SELECT ALL FROM Part VALID AT 5",
    "SELECT ALL FROM Part",  # defaults to VALID AT NOW
    "SELECT Part.name, Part.cost FROM Part VALID AT 5",
    "SELECT ALL FROM Part WHERE Part.cost > 40 VALID AT 5",
    "SELECT ALL FROM Part VALID DURING [0, 50)",
    "SELECT ALL FROM Part VALID HISTORY",
    "SELECT Part.name FROM Part WHERE Part.cost >= $c VALID HISTORY",
    "SELECT ALL FROM Part.contains.Component VALID AT 5",
    "SELECT ALL FROM Part.contains.Component "
    "WHERE Component.weight <= 3.0 VALID HISTORY",
    "SELECT ALL FROM Part VALID DURING [0, 50) WHEN OVERLAPS [25, 30)",
    "SELECT Part.name, Part.cost FROM Part VALID AT 25 AS OF 0",
    # The fixture commits at tt 0 (inserts, links) and tt 1 (updates).
    "DIFF Part BETWEEN 0 AND 1",
    "DIFF Part BETWEEN 0 AND 1 WHERE Part.cost > 40",
    "DIFF Part.contains.Component BETWEEN -1 AND 1",
]


@pytest.fixture
def stocked(db):
    with db.transaction() as txn:
        parts = []
        for index in range(23):
            parts.append(txn.insert(
                "Part", {"name": f"part{index}",
                         "cost": float(index * 10)}, valid_from=0))
        for index, part in enumerate(parts[:7]):
            comp = txn.insert("Component",
                              {"cname": f"c{index}",
                               "weight": float(index)}, valid_from=0)
            txn.link("contains", part, comp, valid_from=0)
    with db.transaction() as txn:
        for index, part in enumerate(parts[:9]):
            txn.update(part, {"cost": float(index * 10 + 5)},
                       valid_from=20)
    return db


def _key(entry):
    return (entry.root_id, entry.valid.start, entry.valid.end)


class TestDifferential:
    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("chunk_entries", [1, 3, 128])
    def test_stream_equals_eager(self, stocked, text, chunk_entries):
        params = {"c": 40.0} if "$c" in text else None
        eager = execute_query(stocked, text, params)
        stream = execute_query_stream(stocked, text, params,
                                      chunk_entries=chunk_entries)
        streamed = list(stream.entries())
        assert [_key(e) for e in streamed] == [_key(e) for e in eager.entries]
        for got, want in zip(streamed, eager.entries):
            if eager.projected:
                assert got.row == want.row
            else:
                assert got.molecule.root.version.values == want.molecule.root.version.values
        assert stream.projected == eager.projected

    @pytest.mark.parametrize("text", QUERIES)
    def test_small_root_batches_concatenate_to_eager(self, stocked, text):
        params = {"c": 40.0} if "$c" in text else None
        eager = execute_query(stocked, text, params)
        stream = execute_query_stream(stocked, text, params,
                                      chunk_entries=5, root_batch=4)
        streamed = list(stream.entries())
        assert [_key(e) for e in streamed] == [_key(e) for e in eager.entries]
        assert [e.row for e in streamed] == [e.row for e in eager.entries]

    @pytest.mark.parametrize("text", QUERIES)
    def test_fetch_chunks_equal_the_eager_frame_warm(self, stocked, text):
        """FETCH chunks, written with the fragments the eager response
        kept, splice to exactly the eager frame's entries, and make no
        fragment of their own."""
        from repro.server.protocol import (
            encode_fetch,
            encode_payload,
            encode_result,
            entries_to_payload,
        )

        params = {"c": 40.0} if "$c" in text else None
        keep = stocked.engine.keep_fragments
        eager = execute_query(stocked, text, params)
        frame = encode_result(eager, keep)
        made = stocked.metrics.value("engine.fragment_cache.misses")
        stream = execute_query_stream(stocked, text, params,
                                      chunk_entries=3)
        chunks = [encode_fetch(9, chunk, stream.projected, keep)
                  for chunk in stream.chunks()]
        assert stocked.metrics.value("engine.fragment_cache.misses") == made
        prefix = b'{"cursor_id":9,"done":false,"entries":['
        spliced = b",".join(chunk[len(prefix):-2] for chunk in chunks
                            if chunk != prefix + b"]}")
        assert frame.startswith(b'{"entries":[' + spliced + b"]")
        for chunk, start in zip(chunks, range(0, len(eager), 3)):
            assert chunk == encode_payload({
                "cursor_id": 9, "done": False,
                "entries": entries_to_payload(
                    eager.entries[start:start + 3], eager.projected)})

    def test_chunk_sizes_are_exact(self, stocked):
        stream = execute_query_stream(
            stocked, "SELECT ALL FROM Part VALID AT 5", chunk_entries=5)
        sizes = [len(chunk) for chunk in stream.chunks()]
        assert sizes == [5, 5, 5, 5, 3]

    def test_facade_on_database(self, stocked):
        stream = stocked.query_stream("SELECT ALL FROM Part VALID AT 5",
                                      chunk_entries=10)
        assert isinstance(stream, StreamingResult)
        assert sum(len(c) for c in stream.chunks()) == 23


class TestLaziness:
    def test_roots_fixed_at_stream_creation(self, stocked):
        """Atoms inserted after the stream opens never appear — the
        root candidate set is pinned eagerly."""
        stream = execute_query_stream(
            stocked, "SELECT ALL FROM Part VALID AT 5", chunk_entries=4)
        chunks = stream.chunks()
        first = next(chunks)
        with stocked.transaction() as txn:
            txn.insert("Part", {"name": "latecomer", "cost": 1.0},
                       valid_from=0)
        rest = [entry for chunk in chunks for entry in chunk]
        names = {e.molecule.root.version.values["name"]
                 for e in list(first) + rest}
        assert "latecomer" not in names
        assert len(names) == 23

    def test_writer_between_chunks_does_not_deadlock(self, stocked):
        """The read latch is released between chunks, so a writer can
        commit mid-stream (documented non-repeatable reads)."""
        stream = execute_query_stream(
            stocked, "SELECT ALL FROM Part VALID HISTORY",
            chunk_entries=3)
        chunks = stream.chunks()
        next(chunks)
        with stocked.transaction() as txn:
            txn.update(1, {"cost": 999.0}, valid_from=70)
        remaining = sum(len(c) for c in chunks)
        assert remaining > 0

    def test_close_mid_stream_releases_generator(self, stocked):
        stream = execute_query_stream(
            stocked, "SELECT ALL FROM Part VALID AT 5", chunk_entries=2)
        chunks = stream.chunks()
        next(chunks)
        stream.close()
        assert list(chunks) == []

    def test_context_manager_closes(self, stocked):
        with execute_query_stream(
                stocked, "SELECT ALL FROM Part VALID AT 5",
                chunk_entries=2) as stream:
            iterator = iter(stream)
            next(iterator)
        # After close only the chunk already in hand can still drain;
        # no further chunks are produced.
        assert len(list(iterator)) <= 1


class TestValidation:
    def test_chunk_entries_must_be_positive(self, stocked):
        with pytest.raises(EvaluationError):
            execute_query_stream(stocked, "SELECT ALL FROM Part",
                                 chunk_entries=0)

    def test_bad_query_fails_eagerly_not_mid_iteration(self, stocked):
        with pytest.raises(Exception):
            execute_query_stream(stocked, "SELECT ALL FROM Nonexistent")

    def test_explain_prefix_is_accepted_but_unprofiled(self, stocked):
        stream = execute_query_stream(
            stocked, "EXPLAIN ANALYZE SELECT ALL FROM Part VALID AT 5")
        assert sum(len(c) for c in stream.chunks()) == 23
