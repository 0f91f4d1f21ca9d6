"""Chunked MQL execution: a query as a stream of bounded entry batches.

The eager evaluator materializes every qualifying molecule state before
returning — fine for point queries, fatal for a full ``VALID HISTORY``
over a large type, whose result must otherwise fit in memory (and, over
the wire, in one 8 MiB frame).  This module runs the evaluator's one
execution loop (:func:`repro.mql.evaluator._batches`) in root batches
and re-chunks its finished entries into lists of at most
``chunk_entries``, so every clause — ``VALID AT``, ``DURING``,
``HISTORY``, ``WHEN``, ``AS OF`` and ``DIFF`` — streams as the eager
result split into chunks.  The peak footprint is one chunk plus one
root batch: at most ``root_batch`` roots for a slice or ``DIFF``, one
root's history for a window.

Consistency contract: each root batch is built under the database's
shared read latch and is internally consistent, but the latch is
**released between batches** — a slow consumer never blocks writers,
and a write committed mid-stream may be visible to later chunks
(non-repeatable reads across chunks).  The root candidate set is fixed
when the stream is created, so atoms inserted afterwards never appear.
Callers that need a stable view should pin it with ``AS OF``
(transaction time is immutable) or hold their own transaction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.errors import EvaluationError
from repro.mql.evaluator import (
    _batches,
    _compile,
    _projected,
    _root_candidates,
)
from repro.mql.planner import plan
from repro.mql.result import ResultEntry
from repro.obs import NULL_TRACER

#: Default entries per chunk.  Chosen so a chunk of typical molecules
#: serializes well under the 8 MiB frame cap; callers with huge rows
#: pass something smaller.
DEFAULT_CHUNK_ENTRIES = 128

#: Roots per batch on the time-slice and DIFF paths — large enough to
#: amortize the shared version-batch reads, small enough that a batch
#: never dwarfs a chunk.
ROOT_BATCH = 64


class StreamingResult:
    """A query's plan metadata plus an iterator of entry chunks.

    ``chunks()`` yields ``List[ResultEntry]`` batches of at most the
    requested ``chunk_entries``; ``entries()`` flattens them (the eager
    shape, for callers that only want the lazy evaluation).  Closing
    mid-stream releases the underlying generator immediately.
    """

    def __init__(self, plan_text: str, projected: bool,
                 chunk_entries: int,
                 chunks: Iterator[List[ResultEntry]]) -> None:
        self.plan = plan_text
        self.projected = projected
        self.chunk_entries = chunk_entries
        self._chunks = chunks

    def chunks(self) -> Iterator[List[ResultEntry]]:
        return self._chunks

    def entries(self) -> Iterator[ResultEntry]:
        for chunk in self._chunks:
            yield from chunk

    def __iter__(self) -> Iterator[ResultEntry]:
        return self.entries()

    def close(self) -> None:
        self._chunks.close()

    def __enter__(self) -> "StreamingResult":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def execute_query_stream(db, text: str,
                         params: Optional[Dict[str, Any]] = None,
                         chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
                         root_batch: int = ROOT_BATCH) -> StreamingResult:
    """Compile *text* and return a :class:`StreamingResult` over it.

    Compilation, planning, and the root-candidate scan happen eagerly
    (so a bad query fails here, not mid-iteration); evaluation is lazy,
    driven by the returned stream's chunk iterator.  An ``EXPLAIN``
    prefix is accepted but ignored — profiles describe one complete
    execution, which a stream by design never holds at once.
    """
    if chunk_entries < 1:
        raise EvaluationError("chunk_entries must be >= 1")
    with db._read_view():
        analyzed = _compile(db, text, params)
        query_plan = plan(analyzed, db.engine)
        roots = _root_candidates(db, query_plan)
    batches = _batches(db, query_plan, roots, NULL_TRACER, root_batch)
    return StreamingResult(query_plan.describe(), _projected(analyzed),
                           chunk_entries, _produce(batches, chunk_entries))


def _produce(batches: Iterator[List[ResultEntry]],
             chunk_entries: int) -> Iterator[List[ResultEntry]]:
    """Re-chunk finished root batches into lists of *chunk_entries*."""
    buffer: List[ResultEntry] = []
    for entries in batches:
        buffer.extend(entries)
        while len(buffer) >= chunk_entries:
            yield buffer[:chunk_entries]
            del buffer[:chunk_entries]
    while buffer:
        yield buffer[:chunk_entries]
        del buffer[:chunk_entries]
