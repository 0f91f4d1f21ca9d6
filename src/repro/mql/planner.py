"""MQL planner: choosing how root atoms are found.

The only planning decision a molecule query needs (molecule construction
itself is fixed by the molecule type) is *root selection*:

* ``IndexLookup`` — a top-level conjunctive equality predicate on a root
  attribute with an existing attribute index supplies candidate atoms
  (which the evaluator still rechecks, since the index covers values of
  every version ever written).  The planner asks the catalog whether
  the index exists; the evaluator probes it once, when it runs.
* ``TypeScan`` — otherwise, enumerate all atoms of the root type.

This is exactly the choice experiment R-T4 measures.  A plan may also
carry a :class:`PushdownSpec`: the root comparisons the engine judges
on raw payloads before decode.  There is no projection pushdown: every
version read is decoded whole, once, and shared by every query that
reads it (the engine's slot table).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.engine import StorageEngine
from repro.mql.analyzer import AnalyzedQuery
from repro.mql.ast_nodes import (
    And,
    Comparison,
    CompareOp,
    Predicate,
    Query,
)


@dataclass(frozen=True, slots=True)
class TypeScan:
    """Enumerate every atom of the root type."""

    type_name: str

    def describe(self) -> str:
        return f"scan({self.type_name})"


@dataclass(frozen=True, slots=True)
class IndexLookup:
    """Fetch candidates from an attribute index (recheck required)."""

    type_name: str
    attribute: str
    value: Any

    def describe(self) -> str:
        return f"index({self.type_name}.{self.attribute} = {self.value!r})"


RootAccess = Union[TypeScan, IndexLookup]


@dataclass(frozen=True, slots=True)
class PushdownSpec:
    """What the read stack may evaluate *below* full version decode.

    ``comparisons`` are root-type conjunct comparisons carried as plain
    ``(attribute, operator name, literal)`` triples — deliberately not
    AST nodes, so the storage engine can compile them without importing
    the MQL layer.  Each is a *necessary* condition on the root atom:
    the engine may drop a version failing one before decode, and the
    evaluator still re-checks survivors, so results are byte-identical
    to the post-filter path.
    """

    type_name: str
    comparisons: Tuple[Tuple[str, str, Any], ...]

    def describe(self) -> str:
        return "pred(" + " and ".join(
            f"{attr} {op} {value!r}"
            for attr, op, value in self.comparisons) + ")"


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """An analyzed query plus its chosen root access path."""

    analyzed: AnalyzedQuery
    root_access: RootAccess
    pushdown: Optional[PushdownSpec] = None

    def describe(self) -> str:
        text = (f"molecule {self.analyzed.molecule_type} "
                f"via {self.root_access.describe()}")
        diff = self.analyzed.query.diff
        if diff is not None:
            text += f" diff[tt {diff.start} -> {diff.end}]"
        if self.pushdown is not None:
            text += f" pushdown[{self.pushdown.describe()}]"
        return text


#: Default maximum number of cached compiled queries.
DEFAULT_PLAN_CACHE_SIZE = 256

#: Cap on distinct parameter-type signatures cached per compiled query.
#: A well-behaved client binds each ``$name`` with one stable type, so
#: one or two signatures cover it; the cap only guards against a caller
#: cycling through types adversarially.
MAX_PARAM_SIGNATURES = 16

#: A parameter-type signature: ``((name, type), ...)`` sorted by name.
ParamSignature = Tuple[Tuple[str, type], ...]


def param_signature(params: Optional[Dict[str, Any]]) -> ParamSignature:
    """The type signature of a parameter binding.

    Two bindings with the same signature are interchangeable for
    analysis: every check the analyzer performs on a bound literal
    (comparability with the attribute's data type, the bool/int split,
    NULL-only-with-equality) depends on the value's *type*, never the
    value itself.
    """
    return tuple((name, type(value))
                 for name, value in sorted((params or {}).items()))


@dataclass(frozen=True, slots=True)
class CompiledQuery:
    """A cache entry: the parsed (unbound) query, plus analyzed forms.

    ``analyzed`` is the fully analyzed query for parameter-free texts —
    a repeated point query skips compilation entirely.  For
    parameterized texts, ``analyzed_by_types`` maps a
    :func:`param_signature` to the analyzed form of *some* earlier
    binding with those types: rebinding fresh values into the parsed AST
    is cheap, and because the analyzer's literal checks are purely
    type-directed, the expensive parts of analysis (molecule-type
    resolution and validation, predicate/projection schema walks) carry
    over unchanged — a repeated EXECUTE with same-typed parameters skips
    the re-analyze walk.  A binding with a new signature takes the full
    path once and caches its outcome.

    Root-access planning always reruns (it consults the index catalog),
    so a cached entry can never go stale across DDL — the cache is still
    cleared on DDL as a matter of hygiene.
    """

    query: Query
    analyzed: Optional[AnalyzedQuery]
    analyzed_by_types: Dict[ParamSignature, AnalyzedQuery] = field(
        default_factory=dict)


class PlanCache:
    """Bounded LRU of compiled MQL queries keyed by normalized text.

    R-A3 measured compile (lex + parse + analyze) at ~0.2 ms, which
    dominates small point queries; the cache removes it for repeated
    texts.  Keys are whitespace-normalized only — MQL string literals
    are case-sensitive, so no case folding.  Thread-safe: parallel
    readers share one instance per database.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE,
                 metrics=None) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, "
                             f"got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CompiledQuery]" = OrderedDict()
        if metrics is None:
            from repro.obs import MetricsRegistry
            metrics = MetricsRegistry()
        self._c_hits = metrics.counter("mql.plan_cache.hits")
        self._c_misses = metrics.counter("mql.plan_cache.misses")
        self._c_evictions = metrics.counter("mql.plan_cache.evictions")
        #: Parameterized analysis reuse (incremented by the evaluator).
        self.c_param_analysis_hits = metrics.counter(
            "mql.plan_cache.param_analysis_hits")
        self.c_param_analysis_misses = metrics.counter(
            "mql.plan_cache.param_analysis_misses")

    @staticmethod
    def normalize(text: str) -> str:
        """Collapse whitespace runs *outside* string literals.

        Quoted spans (single or double quotes, with backslash escaping
        the next character, exactly as the lexer tokenizes strings) are
        preserved byte-for-byte — otherwise two queries whose literals
        differ only in internal whitespace would alias to one cache key
        and return each other's plans.
        """
        out: List[str] = []
        length = len(text)
        at = 0
        pending_space = False
        while at < length:
            char = text[at]
            if char in ("'", '"'):
                if pending_space and out:
                    out.append(" ")
                pending_space = False
                start = at
                at += 1
                while at < length:
                    if text[at] == "\\" and at + 1 < length:
                        at += 2
                        continue
                    if text[at] == char:
                        at += 1
                        break
                    at += 1
                out.append(text[start:at])
                continue
            if char.isspace():
                pending_space = True
                at += 1
                continue
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(char)
            at += 1
        return "".join(out)

    def get(self, text: str) -> Optional[CompiledQuery]:
        key = self.normalize(text)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._c_misses.inc()
                return None
            self._entries.move_to_end(key)
            self._c_hits.inc()
            return entry

    def put(self, text: str, entry: CompiledQuery) -> None:
        key = self.normalize(text)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._c_evictions.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _conjunctive_comparisons(predicate: Optional[Predicate]
                             ) -> List[Comparison]:
    """Top-level conjuncts that are plain comparisons.

    Only conjuncts are safe to push into root selection: an ``OR`` branch
    or a ``NOT`` could admit roots the index lookup would miss.
    """
    if predicate is None:
        return []
    if isinstance(predicate, Comparison):
        return [predicate]
    if isinstance(predicate, And):
        result: List[Comparison] = []
        for operand in predicate.operands:
            if isinstance(operand, Comparison):
                result.append(operand)
        return result
    return []


def _pushdown_comparisons(analyzed: AnalyzedQuery
                          ) -> Tuple[Tuple[str, str, Any], ...]:
    """Root comparisons safe to evaluate on raw payloads in the store.

    Pushable only when the root type never reappears as an edge child —
    then the root atom is the sole atom of its type in the molecule, so
    the existential comparison semantics collapse onto the root atom and
    each top-level conjunct is a necessary condition.  Bitemporal
    ``AS OF`` queries never push (stores filter current knowledge only).
    """
    mtype = analyzed.molecule_type
    root = mtype.root
    if analyzed.as_of is not None or analyzed.query.diff is not None:
        return ()
    if any(edge.child == root for edge in mtype.edges):
        return ()
    return tuple(
        (c.path.attribute, c.op.name, c.literal.value)
        for c in _conjunctive_comparisons(analyzed.query.where)
        if c.path.type_name == root)


def plan(analyzed: AnalyzedQuery, engine: StorageEngine) -> QueryPlan:
    """Choose the root access path for an analyzed query."""
    root = analyzed.molecule_type.root
    comparisons = _pushdown_comparisons(analyzed)
    pushdown = PushdownSpec(root, comparisons) if comparisons else None
    for comparison in _conjunctive_comparisons(analyzed.query.where):
        if comparison.path.type_name != root:
            continue
        if comparison.op is not CompareOp.EQ:
            continue
        if comparison.literal.value is None:
            continue
        if engine.has_attribute_index(root, comparison.path.attribute):
            return QueryPlan(analyzed, IndexLookup(
                root, comparison.path.attribute, comparison.literal.value),
                pushdown)
    return QueryPlan(analyzed, TypeScan(root), pushdown)
