"""Chunked MQL execution: a query as a stream of bounded entry batches.

The eager evaluator materializes every qualifying molecule state before
returning — fine for point queries, fatal for a full ``VALID HISTORY``
over a large type, whose result must otherwise fit in memory (and, over
the wire, in one 8 MiB frame).  This module runs the *same* pipeline —
same root candidates, same pushdown, same predicate/WHEN/projection
semantics, same entry order — but yields the entries in chunks of at
most ``chunk_entries``, so the peak footprint is one chunk plus one
root batch regardless of result size.

Consistency contract: each chunk is built under the database's shared
read latch and is internally consistent, but the latch is **released
between chunks** — a slow consumer never blocks writers, and a write
committed mid-stream may be visible to later chunks (non-repeatable
reads across chunks).  The root candidate set is fixed when the stream
is created, so atoms inserted afterwards never appear.  Callers that
need a stable view should pin it with ``AS OF`` (transaction time is
immutable) or hold their own transaction.

Execution shape per temporal clause:

* ``VALID AT`` — roots are processed in batches of ``root_batch``
  through the same set-oriented ``build_many`` path the eager
  evaluator uses, so streaming keeps the R-F6 batched-I/O win.
* ``VALID DURING`` / ``VALID HISTORY`` — per-root ``build_history``
  (one root's history is the natural unit; the existential
  ``prune_roots`` pushdown still drops non-qualifying roots first).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.errors import EvaluationError
from repro.mql.ast_nodes import (
    SelectPaths,
    ValidAt,
    ValidAtNow,
    ValidDuring,
    ValidHistory,
)
from repro.mql.evaluator import (
    _compile,
    _evaluate_slice,
    _filter_when,
    _project,
    _root_candidates,
    _satisfies,
)
from repro.mql.planner import plan
from repro.mql.result import ResultEntry
from repro.temporal import FOREVER, TMIN, Interval

#: Default entries per chunk.  Chosen so a chunk of typical molecules
#: serializes well under the 8 MiB frame cap; callers with huge rows
#: pass something smaller.
DEFAULT_CHUNK_ENTRIES = 128

#: Roots built per ``build_many`` batch on the time-slice path — large
#: enough to amortize the shared version-batch reads, small enough that
#: a batch never dwarfs a chunk.
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
    projected = isinstance(analyzed.query.select, SelectPaths)
    chunks = _produce(db, query_plan, roots, chunk_entries, root_batch)
    return StreamingResult(query_plan.describe(), projected,
                           chunk_entries, chunks)


def _produce(db, query_plan, roots: List[int], chunk_entries: int,
             root_batch: int) -> Iterator[List[ResultEntry]]:
    analyzed = query_plan.analyzed
    valid = analyzed.valid
    buffer: List[ResultEntry] = []

    def finish_batch(entries: List[ResultEntry]) -> List[ResultEntry]:
        if analyzed.query.when is not None:
            entries = _filter_when(entries, analyzed.query.when)
        return _project(analyzed, entries)

    def compiled_pushdown():
        if query_plan.pushdown is not None:
            return db.engine.compile_pushdown(query_plan.pushdown)
        return None, None

    if isinstance(valid, (ValidAt, ValidAtNow)):
        at = valid.at if isinstance(valid, ValidAt) else FOREVER - 1
        for start in range(0, len(roots), root_batch):
            batch = roots[start:start + root_batch]
            with db._read_view():
                pred, projection = compiled_pushdown()
                entries = finish_batch(_evaluate_slice(
                    db, analyzed, batch, at, pred, projection))
            buffer.extend(entries)
            while len(buffer) >= chunk_entries:
                yield buffer[:chunk_entries]
                del buffer[:chunk_entries]
    elif isinstance(valid, (ValidDuring, ValidHistory)):
        window = (Interval(valid.start, valid.end)
                  if isinstance(valid, ValidDuring)
                  else Interval(TMIN, FOREVER))
        tt = analyzed.as_of
        with db._read_view():
            pred, _ = compiled_pushdown()
            if pred is not None:
                roots = db.engine.prune_roots(roots, pred)
        for root_id in roots:
            with db._read_view():
                entries = []
                for span, molecule in db.builder.build_history(
                        root_id, analyzed.molecule_type, window, tt):
                    if _satisfies(analyzed.query.where, molecule):
                        entries.append(
                            ResultEntry(root_id, span, molecule, None))
                entries = finish_batch(entries)
            buffer.extend(entries)
            while len(buffer) >= chunk_entries:
                yield buffer[:chunk_entries]
                del buffer[:chunk_entries]
    else:  # pragma: no cover - parser produces no other clause
        raise EvaluationError(f"unknown temporal clause {valid!r}")
    while buffer:
        yield buffer[:chunk_entries]
        del buffer[:chunk_entries]
