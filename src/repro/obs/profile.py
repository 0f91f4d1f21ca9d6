"""Per-query profiles: the span tree behind ``EXPLAIN ANALYZE``.

The MQL evaluator opens one span per plan operator (root access,
molecule construction, WHEN filtering, projection).  A
:class:`QueryProfile` wraps the captured tree with the plan description
and renders it as the operator table the CLI prints, or exports it as a
JSON-safe dict.

The rendered metric columns are the machine-independent costs the
reconstructed evaluation reports: page touches (buffer pins split into
hits/misses), physical disk I/O, index probes, B+-tree node reads,
versions scanned, and molecules built.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.trace import Span

#: (counter name, short column label) pairs rendered per span, in order.
_COLUMNS = (
    ("buffer.hits", "hit"),
    ("buffer.misses", "miss"),
    ("disk.reads", "read"),
    ("disk.writes", "write"),
    ("index.probes", "probes"),
    ("btree.node_reads", "nodes"),
    ("engine.versions_scanned", "versions"),
    ("builder.molecules", "molecules"),
)


def _dict_metric(metrics: Dict[str, int], name: str) -> int:
    return sum(value for key, value in metrics.items()
               if key == name or key.startswith(name + "{"))


def _dict_metric_cells(span: Dict[str, Any]) -> List[str]:
    metrics = span.get("metrics") or {}
    cells: List[str] = []
    hits = _dict_metric(metrics, "buffer.hits")
    misses = _dict_metric(metrics, "buffer.misses")
    if hits or misses:
        cells.append(f"pages={hits + misses} ({hits} hit/{misses} miss)")
    for name, label in _COLUMNS[2:]:
        value = _dict_metric(metrics, name)
        if value:
            cells.append(f"{label}={value}")
    return cells


def _render_tree(span: Dict[str, Any], lines: List[str], prefix: str,
                 last: bool, top: bool = False) -> None:
    connector = "" if top else ("└─ " if last else "├─ ")
    attrs = " ".join(f"{key}={value}"
                     for key, value in (span.get("attrs") or {}).items())
    head = span.get("name", "?") + (f" [{attrs}]" if attrs else "")
    cells = "  ".join(_dict_metric_cells(span))
    duration_ms = float(span.get("duration_ms") or 0.0)
    line = f"{prefix}{connector}{head:<44} {duration_ms:8.3f} ms"
    if cells:
        line += f"  {cells}"
    lines.append(line)
    child_prefix = prefix + ("" if top else ("   " if last else "│  "))
    children = span.get("children") or []
    for index, child in enumerate(children):
        _render_tree(child, lines, child_prefix,
                     last=index == len(children) - 1)


def render_profile_dict(profile: Dict[str, Any]) -> str:
    """The operator table for a JSON-safe profile dict.

    Accepts the shape :meth:`QueryProfile.to_dict` exports — which is
    also what ``EXPLAIN`` returns over the wire, where the client holds
    a stitched span-tree dict (``client.request`` wrapping the server's
    spans) but no live :class:`~repro.obs.trace.Span` objects to build
    a :class:`QueryProfile` from.  Renders the same tree the local CLI
    prints, with the shared ``trace_id`` on the header line when the
    profile carries one.
    """
    header = f"plan: {profile.get('plan', '?')}"
    trace_id = profile.get("trace_id")
    if trace_id:
        header += f"  trace={trace_id}"
    lines = [header]
    for span in profile.get("spans") or []:
        _render_tree(span, lines, prefix="", last=True, top=True)
    return "\n".join(lines)


class QueryProfile:
    """The profiled execution of one MQL query."""

    def __init__(self, spans: List[Span], plan: str) -> None:
        self.spans = spans
        self.plan = plan

    @property
    def root(self) -> Span:
        if not self.spans:
            raise ValueError("empty profile")
        return self.spans[0]

    def find(self, name: str) -> List[Span]:
        """Every span with *name*, pre-order across the whole tree."""
        return [span for top in self.spans for span in top.walk()
                if span.name == name]

    # -- export -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"plan": self.plan,
                "spans": [span.to_dict() for span in self.spans]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        """The operator tree as the CLI prints it."""
        return render_profile_dict(self.to_dict())

    def __repr__(self) -> str:
        names = ", ".join(span.name for span in self.spans)
        return f"QueryProfile([{names}], plan={self.plan})"
