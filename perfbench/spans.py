"""Span recording around each layer's public entry points.

The benchmark wraps, from its own files, the calls into every layer
(:data:`TARGETS`).  Each call becomes a span -- name, layer, start, end,
parent span and request id -- kept in memory and written out as JSON
lines when the traced phase ends.  The benchmark opens one root span
per request on the client side (layer ``server``); the first span a
server thread opens while that request is in flight takes it as parent.

A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class or None for a module function, attributes)
TARGETS: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = [
    ("facade", "repro.core.database", "TemporalDatabase", ("query",)),
    ("facade", "repro.core.database", "TransactionContext",
     ("insert", "update", "delete", "correct", "link", "unlink", "commit")),
    ("mql", "repro.mql", None, ("execute_query",)),
    ("builder", "repro.core.builder", "MoleculeBuilder",
     ("build_many", "build_history")),
    ("engine", "repro.core.engine", "StorageEngine",
     ("version_at_many", "all_versions_many", "insert", "update", "delete",
      "correct", "link", "unlink")),
    ("strategies", "repro.storage.strategies", "SeparatedStore",
     ("read_at_many", "read_all_many", "read_live", "append_version",
      "replace_version")),
    ("directory", "repro.storage.directory", "AtomDirectory", ("get_many",)),
    ("directory", "repro.access.btree", "BPlusTree",
     ("search", "range_scan", "insert_many")),
    ("buffer", "repro.storage.buffer", "BufferManager", ("pin",)),
    ("heap", "repro.storage.heap", "HeapSegment",
     ("read_many", "insert", "update")),
    ("disk", "repro.storage.disk", "DiskManager", ("read_page", "write_page")),
    ("wal", "repro.txn.wal", "WriteAheadLog", ("append", "sync_to")),
    ("cdc", "repro.cdc.source", None, ("decode_operation",)),
]

LAYERS = ("server", "facade", "mql", "builder", "engine", "strategies",
          "directory", "buffer", "heap", "disk", "wal", "cdc")

# Span slots: a list per span keeps recording cheap.
NAME, LAYER, START, END, PARENT, REQUEST, CHILD = range(7)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.response_bytes = 0
        self._local = threading.local()
        self._root: Optional[list] = None
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, class_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                self._patch(owner, attr, self._wrap(
                    getattr(owner, attr), f"{class_name or module_name}."
                    f"{attr}", layer))
        client = importlib.import_module("repro.server.client")
        self._patch(client, "read_frame", self._count_frames(client.read_frame))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, replacement)

    def _wrap(self, original: Callable, name: str, layer: str) -> Callable:
        spans, local, perf = self.spans, self._local, time.perf_counter
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else recorder._root
            span = [name, layer, perf(), 0.0, parent,
                    parent[REQUEST] if parent is not None else None, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = end = perf()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += end - span[START]
        return traced

    def _count_frames(self, original: Callable) -> Callable:
        recorder = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            frame = original(*args, **kwargs)
            recorder.response_bytes += len(frame.payload)
            return frame
        return counted

    # -- requests -------------------------------------------------------------

    def request(self, request_id: int, run: Callable[[Any], Any]
                ) -> Callable[[Any], Any]:
        """*run* wrapped in the request's client-side root span."""
        def traced(client: Any) -> Any:
            root = ["request", "server", time.perf_counter(), 0.0, None,
                    request_id, 0.0]
            self.spans.append(root)
            self._root = root
            try:
                return run(client)
            finally:
                root[END] = time.perf_counter()
                self._root = None
        return traced

    # -- results ---------------------------------------------------------------

    def self_ms(self, scale_of: Callable[[Optional[int]], float]
                ) -> Dict[str, float]:
        """Total calibrated self time per layer, in ms."""
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            own = max(0.0, span[END] - span[START] - span[CHILD])
            out[span[LAYER]] += own * 1000.0 * scale_of(span[REQUEST])
        return out

    def inclusive_ms(self, names: Tuple[str, ...],
                     scale_of: Callable[[Optional[int]], float]) -> float:
        """Calibrated time inside the named calls, outermost only."""
        total = 0.0
        for span in self.spans:
            if span[NAME] in names and (span[PARENT] is None
                                        or span[PARENT][NAME] not in names):
                total += ((span[END] - span[START]) * 1000.0
                          * scale_of(span[REQUEST]))
        return total

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[NAME] == name)

    def write(self, path: str) -> None:
        """One JSON line per span; times in µs from the first span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps({
                    "id": i, "name": span[NAME], "layer": span[LAYER],
                    "start_us": round((span[START] - origin) * 1e6, 1),
                    "end_us": round((span[END] - origin) * 1e6, 1),
                    "parent": None if parent is None else index[id(parent)],
                    "request": span[REQUEST]}) + "\n")
