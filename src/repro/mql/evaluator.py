"""MQL evaluator: executing a planned query against a database.

Execution shape:

1. Obtain root candidates from the plan's access path (index lookup or
   type scan).
2. Run them through :func:`_batches`, the one execution loop eager
   (:func:`execute_plan`) and streamed (:mod:`repro.mql.stream`) queries
   share.  For a time-slice (``VALID AT``) it builds each candidate's
   molecule at the instant and keeps those satisfying the predicate;
   for an interval (``VALID DURING`` / ``VALID HISTORY``) it computes
   each candidate's molecule history over the window and keeps the
   satisfying states; for ``DIFF`` it nets change events between two
   transaction-time slices.
3. Apply the WHEN filter and the projection, per batch.

Predicate semantics over a molecule are existential per comparison: a
comparison on type T holds when some atom of type T inside the molecule
satisfies it; ``NOT`` negates the inner predicate's truth.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.cdc.diff import compute_diff
from repro.core.molecule import Molecule
from repro.errors import EvaluationError
from repro.mql.analyzer import AnalyzedQuery, analyze, check_diff_bounds
from repro.mql.ast_nodes import (
    Aggregate,
    And,
    AttrPath,
    Comparison,
    CompareOp,
    Not,
    Or,
    Predicate,
    SelectPaths,
    ValidAt,
    ValidAtNow,
    ValidDuring,
    ValidHistory,
)
from repro.mql.ast_nodes import WhenClause
from repro.mql.parser import bind_parameters, has_parameters, parse_query
from repro.mql.planner import (
    MAX_PARAM_SIGNATURES,
    CompiledQuery,
    IndexLookup,
    QueryPlan,
    TypeScan,
    param_signature,
    plan,
)
from repro.mql.result import QueryResult, ResultEntry
from repro.obs import NULL_TRACER, QueryProfile
from repro.temporal import FOREVER, TMIN, AllenRelation, Interval, Timestamp, allen_relation

_OPERATORS = {
    CompareOp.EQ: operator.eq,
    CompareOp.NE: operator.ne,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
}


def execute_query(db, text: str,
                  params: Optional[Dict[str, Any]] = None,
                  profile: bool = False) -> QueryResult:
    """Parse, bind ``$name`` parameters, analyze, plan, and run.

    Profiling is enabled by an ``EXPLAIN ANALYZE`` prefix on the query
    text or by ``profile=True``; the result then carries a
    :class:`repro.obs.QueryProfile` in its ``profile`` attribute.
    """
    analyzed = _compile(db, text, params)
    query_plan = plan(analyzed, db.engine)
    return execute_plan(db, query_plan,
                        profile=profile or analyzed.query.explain)


def parse_cached(db, text: str) -> CompiledQuery:
    """The plan-cache entry for *text*, parsed and cached on a miss.

    The one way into the database's plan cache: :func:`_compile` starts
    here, and the server's ``PREPARE`` calls it to prime the cache.
    """
    cache = db._plan_cache
    entry = cache.get(text)
    if entry is None:
        entry = CompiledQuery(parse_query(text), None)
        cache.put(text, entry)
    return entry


def _compile(db, text: str,
             params: Optional[Dict[str, Any]]) -> AnalyzedQuery:
    """Parse + bind + analyze, through the database's plan cache.

    The cache stores the parsed query per normalized text; for texts
    without ``$name`` placeholders it also stores the analyzed form, so
    a repeated point query skips compilation entirely.  Parameterized
    texts rebind per call (parameters stay late-bound) but reuse the
    analysis of an earlier binding with the *same parameter types*: the
    analyzer's literal checks are type-directed, so a same-typed
    rebinding cannot change the analysis outcome, and the re-analyze
    walk (molecule resolution + schema checks) is skipped.  This is the
    hot path of the server's PREPARE/EXECUTE protocol.
    """
    cache = db._plan_cache
    entry = parse_cached(db, text)
    if not params and entry.analyzed is not None:
        return entry.analyzed
    if not params and not has_parameters(entry.query):
        analyzed = analyze(entry.query, db.schema)
        cache.put(text, CompiledQuery(entry.query, analyzed))
        return analyzed
    # bind_parameters still runs per call: it validates names and value
    # types and substitutes the fresh values into the parsed AST.
    query = bind_parameters(entry.query, params)
    signature = param_signature(params)
    reusable = entry.analyzed_by_types.get(signature)
    if reusable is not None:
        cache.c_param_analysis_hits.inc()
        if query.diff is not None:
            # Analysis reuse is keyed by parameter *types*, but DIFF's
            # bound checks are value checks (start < end): re-run them
            # so a bad rebinding fails identically warm or cold.
            check_diff_bounds(query.diff)
        return AnalyzedQuery(query, reusable.molecule_type,
                             query.valid, query.as_of)
    cache.c_param_analysis_misses.inc()
    analyzed = analyze(query, db.schema)
    if len(entry.analyzed_by_types) < MAX_PARAM_SIGNATURES:
        entry.analyzed_by_types[signature] = analyzed
    return analyzed


def execute_plan(db, query_plan: QueryPlan,
                 profile: bool = False) -> QueryResult:
    """Run an already planned query (the benchmarks reuse plans)."""
    tracer = getattr(db, "tracer", None) or NULL_TRACER
    if profile and tracer is not NULL_TRACER:
        with tracer.capture() as capture:
            result = _execute(db, query_plan, tracer)
        result.profile = QueryProfile(capture.spans, result.plan)
        return result
    return _execute(db, query_plan, tracer)


def _execute(db, query_plan: QueryPlan, tracer) -> QueryResult:
    """The eager caller of :func:`_batches`: every root in one batch."""
    plan = query_plan.describe()
    with tracer.span("mql.execute", plan=plan) as top:
        with tracer.span("access",
                         path=type(query_plan.root_access).__name__) as span:
            roots = _root_candidates(db, query_plan)
            span.set("roots", len(roots))
        (entries,) = _batches(db, query_plan, roots, tracer)
        top.set("entries", len(entries))
    return QueryResult(entries, plan, _projected(query_plan.analyzed))


def _projected(analyzed: AnalyzedQuery) -> bool:
    """Whether entries carry rows rather than molecules: DIFF rows are
    event records, and ``SELECT`` paths project values."""
    return (analyzed.query.diff is not None
            or isinstance(analyzed.query.select, SelectPaths))


def _batches(db, query_plan: QueryPlan, roots: List[int], tracer,
             root_batch: Optional[int] = None
             ) -> Iterator[List[ResultEntry]]:
    """The one execution loop: finished entry lists, one per root batch.

    "Finished" means the WHERE check, the WHEN filter and the projection
    are applied, so the batches concatenate (roots are sorted) to the
    eager result.  ``root_batch=None`` runs every root as one batch (the
    eager caller, which always gets exactly one, even for no roots);
    otherwise a slice or DIFF batch holds at most *root_batch* roots and
    a window batch one root's history (the streaming caller).

    Each batch compiles the pushdown and runs under its own read view;
    the latch is reentrant, so an eager caller's outer view still covers
    the whole query.  No span stays open across a ``yield``.
    """
    analyzed = query_plan.analyzed
    query = analyzed.query
    valid = analyzed.valid
    size = root_batch
    if query.diff is not None:
        # DIFF rows are event records, not molecules: never WHEN-filtered
        # (the window *is* the tt range) and never value-projected.
        def evaluate(batch, pred):
            return _evaluate_diff(db, analyzed, batch, tracer)
    elif isinstance(valid, (ValidAt, ValidAtNow)):
        # "NOW" in valid time means the current, open-ended state: the
        # far-future instant every until-changed version contains.
        at = valid.at if isinstance(valid, ValidAt) else FOREVER - 1

        def evaluate(batch, pred):
            with tracer.span("slice", at=at) as span:
                entries = _evaluate_slice(db, analyzed, batch, at, pred)
                span.set("entries", len(entries))
            return _finish(analyzed, entries, tracer)
    elif isinstance(valid, (ValidDuring, ValidHistory)):
        if isinstance(valid, ValidDuring):
            window = Interval(valid.start, valid.end)
            label = str(window)
        else:
            window, label = Interval(TMIN, FOREVER), "history"
        if size is not None:
            size = 1

        def evaluate(batch, pred):
            with tracer.span("window", window=label) as span:
                entries = _evaluate_window(db, analyzed, batch, window,
                                           pred)
                span.set("entries", len(entries))
            return _finish(analyzed, entries, tracer)
    else:  # pragma: no cover - parser produces no other clause
        raise EvaluationError(f"unknown temporal clause {valid!r}")
    if size is None:
        size = max(len(roots), 1)
    for start in range(0, max(len(roots), 1), size):
        with db._read_view():
            pred = None
            if query_plan.pushdown is not None:
                pred = db.engine.compile_pushdown(query_plan.pushdown)
            entries = evaluate(roots[start:start + size], pred)
        yield entries


def _finish(analyzed: AnalyzedQuery, entries: List[ResultEntry],
            tracer) -> List[ResultEntry]:
    """Apply the WHEN filter and the projection to one batch."""
    when = analyzed.query.when
    if when is not None:
        with tracer.span("filter.when", relation=when.relation) as span:
            entries = _filter_when(entries, when)
            span.set("entries", len(entries))
    with tracer.span("project") as span:
        entries = _project(analyzed, entries)
        span.set("entries", len(entries))
    return entries


#: Liberalized relation groups for the WHEN clause: each named relation
#: admits the Allen relations a user colloquially means by it.  OVERLAPS
#: means "shares at least one chronon"; DURING means "lies inside";
#: CONTAINS means "covers"; the remaining names are exact.
_WHEN_GROUPS = {
    "OVERLAPS": {AllenRelation.OVERLAPS, AllenRelation.OVERLAPPED_BY,
                 AllenRelation.STARTS, AllenRelation.STARTED_BY,
                 AllenRelation.DURING, AllenRelation.CONTAINS,
                 AllenRelation.FINISHES, AllenRelation.FINISHED_BY,
                 AllenRelation.EQUALS},
    "DURING": {AllenRelation.DURING, AllenRelation.STARTS,
               AllenRelation.FINISHES, AllenRelation.EQUALS},
    "CONTAINS": {AllenRelation.CONTAINS, AllenRelation.STARTED_BY,
                 AllenRelation.FINISHED_BY, AllenRelation.EQUALS},
    "MEETS": {AllenRelation.MEETS},
    "BEFORE": {AllenRelation.BEFORE},
    "AFTER": {AllenRelation.AFTER},
    "EQUALS": {AllenRelation.EQUALS},
    "STARTS": {AllenRelation.STARTS},
    "FINISHES": {AllenRelation.FINISHES},
}


def _filter_when(entries: List[ResultEntry],
                 when: WhenClause) -> List[ResultEntry]:
    try:
        reference = Interval(when.start, when.end)
    except Exception as exc:
        raise EvaluationError(f"bad WHEN interval: {exc}") from exc
    try:
        admitted = _WHEN_GROUPS[when.relation]
    except KeyError:  # pragma: no cover - parser whitelists relations
        raise EvaluationError(
            f"unknown WHEN relation {when.relation!r}") from None
    return [entry for entry in entries
            if allen_relation(entry.valid, reference) in admitted]


# -- root candidates -----------------------------------------------------------


def _root_candidates(db, query_plan: QueryPlan) -> List[int]:
    access = query_plan.root_access
    if isinstance(access, IndexLookup):
        candidates = db.engine.candidates_for_equality(
            access.type_name, access.attribute, access.value)
        if candidates is None:  # index dropped between plan and run
            return sorted(db.engine.atoms_of_type(access.type_name))
        return sorted(candidates)
    if isinstance(access, TypeScan):
        return sorted(db.engine.atoms_of_type(access.type_name))
    raise EvaluationError(f"unknown access path {access!r}")  # pragma: no cover


# -- evaluation ------------------------------------------------------------------


def _evaluate_slice(db, analyzed: AnalyzedQuery, roots: Iterable[int],
                    at: Timestamp, pred=None) -> List[ResultEntry]:
    tt = analyzed.as_of
    entries: List[ResultEntry] = []
    # All candidate roots grow level-at-a-time through one shared
    # version batch per depth; roots invalid at the instant drop out.
    # The pushed predicate drops non-qualifying roots *inside* the
    # store, before decode; _satisfies below still re-filters, so the
    # pushdown can only remove work, never change the answer.
    molecules = db.builder.build_many(roots, analyzed.molecule_type, at, tt,
                                      root_pred=pred)
    for molecule in molecules:
        if not _satisfies(analyzed.query.where, molecule):
            continue
        entries.append(ResultEntry(molecule.root.atom_id,
                                   Interval.instant(at), molecule, None))
    return entries


def _evaluate_diff(db, analyzed: AnalyzedQuery, roots: List[int],
                   tracer) -> List[ResultEntry]:
    """``DIFF m BETWEEN t1 AND t2``: net change events per molecule.

    Two bitemporal slices of every candidate molecule — the current
    valid instant as believed at t1 and at t2 — define the diff's
    *scope* (which atoms belong to each complex object at either
    endpoint); the per-atom deltas themselves come from the version
    histories via :func:`repro.cdc.diff.compute_diff`, so the rows are
    byte-identical to folding the SUBSCRIBE change stream over
    ``(t1, t2]``.  WHERE keeps a molecule when either endpoint state
    satisfies it (a predicate on vanished state still matters for "what
    changed about X").
    """
    diff = analyzed.query.diff
    t1, t2 = diff.start, diff.end
    at = FOREVER - 1
    entries: List[ResultEntry] = []
    with tracer.span("diff", t1=t1, t2=t2) as dspan:
        with tracer.span("slice", at=at, tt=t1) as span:
            before = {m.root.atom_id: m for m in db.builder.build_many(
                roots, analyzed.molecule_type, at, t1)}
            span.set("entries", len(before))
        with tracer.span("slice", at=at, tt=t2) as span:
            after = {m.root.atom_id: m for m in db.builder.build_many(
                roots, analyzed.molecule_type, at, t2)}
            span.set("entries", len(after))
        with tracer.span("compare") as span:
            where = analyzed.query.where
            scopes: Dict[int, Dict[int, Optional[str]]] = {}
            for root_id in roots:
                m1 = before.get(root_id)
                m2 = after.get(root_id)
                if m1 is None and m2 is None:
                    continue
                if where is not None and not (
                        (m1 is not None and _satisfies(where, m1))
                        or (m2 is not None and _satisfies(where, m2))):
                    continue
                scope: Dict[int, Optional[str]] = {}
                for molecule in (m1, m2):
                    if molecule is None:
                        continue
                    for atom in molecule.atoms():
                        scope[atom.atom_id] = atom.type_name
                scopes[root_id] = scope
            rows = compute_diff(db.engine, scopes, t1, t2, at=at)
            window = Interval(t1, t2)
            for root_id in sorted(scopes):
                for row in rows.get(root_id, ()):
                    entries.append(ResultEntry(root_id, window, None, row))
            span.set("entries", len(entries))
        dspan.set("entries", len(entries))
    return entries


def _evaluate_window(db, analyzed: AnalyzedQuery, roots: Iterable[int],
                     window: Interval, pred=None) -> List[ResultEntry]:
    tt = analyzed.as_of
    entries: List[ResultEntry] = []
    if pred is not None:
        # Existential prune: roots with no stored version passing the
        # pushed comparison can never yield a qualifying slice, so
        # their whole histories are skipped before a single decode.
        roots = db.engine.prune_roots(roots, pred)
    for root_id in roots:
        for span, molecule in db.builder.build_history(
                root_id, analyzed.molecule_type, window, tt):
            if not _satisfies(analyzed.query.where, molecule):
                continue
            entries.append(ResultEntry(root_id, span, molecule, None))
    return entries


def _satisfies(predicate: Optional[Predicate],
               molecule: Molecule) -> bool:
    if predicate is None:
        return True
    if isinstance(predicate, Comparison):
        compare = _OPERATORS[predicate.op]
        expected = predicate.literal.value
        for value in _path_values(molecule, predicate.path):
            if expected is None:
                if ((value is None and predicate.op is CompareOp.EQ)
                        or (value is not None
                            and predicate.op is CompareOp.NE)):
                    return True
                continue
            if value is None:
                continue
            try:
                if compare(value, expected):
                    return True
            except TypeError:
                continue
        return False
    if isinstance(predicate, And):
        return all(_satisfies(operand, molecule)
                   for operand in predicate.operands)
    if isinstance(predicate, Or):
        return any(_satisfies(operand, molecule)
                   for operand in predicate.operands)
    if isinstance(predicate, Not):
        return not _satisfies(predicate.operand, molecule)
    raise EvaluationError(f"unknown predicate {predicate!r}")  # pragma: no cover


def _path_values(molecule: Molecule, path: AttrPath) -> List[Any]:
    return [atom.version.values.get(path.attribute)
            for atom in molecule.atoms()
            if atom.type_name == path.type_name]


# -- projection ----------------------------------------------------------------------


def _project(analyzed: AnalyzedQuery,
             entries: List[ResultEntry]) -> List[ResultEntry]:
    select = analyzed.query.select
    if not isinstance(select, SelectPaths):
        return entries
    root_type = analyzed.molecule_type.root
    projected: List[ResultEntry] = []
    for entry in entries:
        molecule = entry.molecule
        assert molecule is not None
        row: Dict[str, Any] = {}
        for item in select.paths:
            if isinstance(item, Aggregate):
                row[str(item)] = _aggregate_value(molecule, item)
                continue
            values = _path_values(molecule, item)
            if item.type_name == root_type:
                row[str(item)] = values[0] if values else None
            else:
                row[str(item)] = values
        projected.append(ResultEntry(entry.root_id, entry.valid, None, row))
    return projected


def _aggregate_value(molecule: Molecule, aggregate: Aggregate) -> Any:
    """Compute one aggregate over one molecule.

    ``COUNT(Type)`` counts atom occurrences of the type; value
    aggregates skip NULLs; SUM/AVG/MIN/MAX over no values yield None
    (SQL convention), COUNT yields 0.
    """
    if aggregate.type_name is not None:
        return sum(1 for atom in molecule.atoms()
                   if atom.type_name == aggregate.type_name)
    values = [value for value in _path_values(molecule, aggregate.path)
              if value is not None]
    if aggregate.func == "COUNT":
        return len(values)
    if not values:
        return None
    if aggregate.func == "SUM":
        return sum(values)
    if aggregate.func == "AVG":
        return sum(values) / len(values)
    if aggregate.func == "MIN":
        return min(values)
    if aggregate.func == "MAX":
        return max(values)
    raise EvaluationError(  # pragma: no cover - parser whitelists
        f"unknown aggregate {aggregate.func!r}")
