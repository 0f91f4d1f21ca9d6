"""Client-side routing predicate: which queries may a replica answer?

A replica at transaction-time watermark ``W`` answers any query whose
*belief time* is pinned at or below ``W`` exactly as the primary does —
never stale — because committed bitemporal history is immutable: records
with transaction time ``<= W`` are fully replayed and later commits
cannot rewrite them.  In MQL the belief time is pinned by ``AS OF T``;
everything else (current-knowledge reads, writes, transactions,
EXPLAIN) must see the primary.

The parse is cached: routing runs on every pooled query, and the same
query texts recur.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.errors import QueryError


@lru_cache(maxsize=512)
def routing_bound(text: str) -> Optional[int]:
    """The query's transaction-time upper bound, or ``None``.

    ``None`` means "not provably time-bounded — route to the primary":
    no ``AS OF`` clause (the parser reads ``AS OF FOREVER`` as none:
    current knowledge), an unparseable text (the server will produce
    the real error), or an ``EXPLAIN`` (profiles must describe the
    primary).
    """
    from repro.mql.parser import parse_query
    try:
        query = parse_query(text)
    except (QueryError, RecursionError):
        return None
    if query.explain or query.as_of is None:
        return None
    return int(query.as_of)
