"""Page-based storage system (the PRIMA-style kernel's lowest layer).

The storage system knows nothing about atoms or time: it stores untyped
byte records in *segments* (heap files) built from fixed-size pages that are
cached by a buffer manager.  Layering, bottom to top:

* :class:`~repro.storage.disk.DiskManager` — page I/O against one database
  file, with a free-page list and I/O counters.
* :class:`~repro.storage.buffer.BufferManager` — fixed pool of frames with a
  pluggable replacement policy (LRU or Clock), pin counting, dirty tracking.
* :class:`~repro.storage.slotted.SlottedPage` — the record layout within a
  page: slot directory at the front, record bodies packed from the back.
* :class:`~repro.storage.heap.HeapSegment` — unordered record files with a
  free-space map and transparent spanning of records larger than one page.
* :mod:`~repro.storage.serialization` — binary row codec for typed values.
* :class:`~repro.storage.catalog.Catalog` — persistent database metadata
  (schema, segment directory, index roots, clock), written atomically.
* :class:`~repro.storage.directory.AtomDirectory` — address translation:
  a direct-mapped array of fixed-width entries indexed by atom id.
* :mod:`~repro.storage.strategies` — the paper's version-storage mapping
  alternatives (CLUSTERED / CHAINED / SEPARATED), built on the layers above.
"""

from repro.storage.buffer import BufferManager, BufferStats, ReplacementPolicy
from repro.storage.catalog import Catalog
from repro.storage.constants import DEFAULT_PAGE_SIZE, INVALID_PAGE_ID
from repro.storage.disk import DiskManager, DiskStats
from repro.storage.heap import HeapSegment, RecordId
from repro.storage.serialization import FieldSpec, FieldType, decode_row, encode_row
from repro.storage.slotted import SlottedPage
from repro.storage.strategies import (
    StorageStats,
    VersionStore,
    VersionStrategy,
    open_version_store,
)

__all__ = [
    "BufferManager",
    "BufferStats",
    "ReplacementPolicy",
    "Catalog",
    "DEFAULT_PAGE_SIZE",
    "INVALID_PAGE_ID",
    "DiskManager",
    "DiskStats",
    "HeapSegment",
    "RecordId",
    "FieldSpec",
    "FieldType",
    "decode_row",
    "encode_row",
    "SlottedPage",
    "StorageStats",
    "VersionStore",
    "VersionStrategy",
    "open_version_store",
]
