"""Persistent database catalog.

The catalog records everything needed to reopen a database: the schema,
the version-storage strategy, the page lists of every segment, index
roots, the next atom identifier, the transaction clock, and the id of the
last log record already applied to storage (the recovery horizon).

It is persisted as a JSON document written with the atomic
write-to-temporary-then-rename pattern, so a crash during a checkpoint
leaves the previous catalog intact.  The write-ahead log replays every
committed change newer than ``applied_lsn``, which is exactly what makes
the out-of-line catalog crash-safe: storage plus catalog are only ever
trusted up to the checkpoint they were written in.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.errors import CatalogError

#: Bumped whenever a page format changes (2: the direct-mapped atom
#: directory; 3: transaction time in the version envelope).  An older
#: database is refused; migrate it with ``repro dump`` under the code
#: that wrote it, then ``repro load``.
_FORMAT_VERSION = 3


class Catalog:
    """In-memory view of the catalog document, with atomic save/load."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = os.fspath(path)
        self.schema: Optional[Dict[str, Any]] = None
        self.strategy: Optional[str] = None
        self.segments: Dict[str, List[int]] = {}
        self.index_roots: Dict[str, int] = {}
        self.next_atom_id: int = 1
        self.clock: int = 0
        self.applied_lsn: int = 0
        self.page_size: int = 0
        self.extras: Dict[str, Any] = {}

    @property
    def path(self) -> str:
        return self._path

    def exists(self) -> bool:
        return os.path.exists(self._path)

    # -- persistence --------------------------------------------------------

    def save(self) -> None:
        """Atomically persist the catalog next to the database file."""
        document = {
            "format_version": _FORMAT_VERSION,
            "schema": self.schema,
            "strategy": self.strategy,
            "segments": self.segments,
            "index_roots": self.index_roots,
            "next_atom_id": self.next_atom_id,
            "clock": self.clock,
            "applied_lsn": self.applied_lsn,
            "page_size": self.page_size,
            "extras": self.extras,
        }
        directory = os.path.dirname(self._path) or "."
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".catalog.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self._path)
        except OSError as exc:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise CatalogError(f"cannot persist catalog: {exc}") from exc

    def load(self) -> None:
        """Read the catalog document, replacing in-memory state."""
        try:
            with open(self._path, encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError as exc:
            raise CatalogError(f"no catalog at {self._path}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise CatalogError(f"corrupt catalog at {self._path}") from exc
        version = document.get("format_version")
        if version != _FORMAT_VERSION:
            raise CatalogError(
                f"catalog format {version!r} unsupported "
                f"(expected {_FORMAT_VERSION}); migrate with 'repro dump' "
                f"under the release that wrote it, then 'repro load'")
        self.schema = document.get("schema")
        self.strategy = document.get("strategy")
        self.segments = {name: list(pages) for name, pages
                         in document.get("segments", {}).items()}
        self.index_roots = dict(document.get("index_roots", {}))
        self.next_atom_id = int(document.get("next_atom_id", 1))
        self.clock = int(document.get("clock", 0))
        self.applied_lsn = int(document.get("applied_lsn", 0))
        self.page_size = int(document.get("page_size", 0))
        self.extras = dict(document.get("extras", {}))
