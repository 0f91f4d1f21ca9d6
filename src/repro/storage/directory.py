"""Atom directory: persistent hash map from atom identifier to bytes.

Every version-storage strategy needs address translation — given an atom
identifier, find where its versions live.  The directory is a bucketed
hash table on slotted pages (the page-table style translation a PRIMA-type
kernel uses): a fixed array of bucket head pages, each the start of an
overflow chain, with entries ``(atom id, payload)`` stored as slotted
records.  Payloads are small per-strategy location descriptors (record
ids, counts, envelopes) and may vary in length.

The bucket page array is persisted through the catalog like any segment's
page list; the first page id of a chain is the bucket head, overflow pages
are linked through the slotted page's reserved header area.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PageFullError, StorageError
from repro.storage.buffer import BufferManager
from repro.storage.constants import INVALID_PAGE_ID
from repro.storage.slotted import SlottedPage

_ENTRY_KEY = struct.Struct("<q")
_NEXT_PTR = struct.Struct("<Q")  # stored in the page's reserved area

#: Default number of hash buckets; a power of two keeps the modulo cheap.
DEFAULT_BUCKETS = 64


def _get_next(page: bytearray) -> int:
    return _NEXT_PTR.unpack_from(page, 0)[0]


def _set_next(page: bytearray, next_page: int) -> None:
    _NEXT_PTR.pack_into(page, 0, next_page)


class AtomDirectory:
    """Hash-bucketed persistent map ``atom_id -> payload bytes``."""

    def __init__(self, buffer: BufferManager, name: str,
                 bucket_pages: Optional[List[int]] = None,
                 num_buckets: int = DEFAULT_BUCKETS) -> None:
        self._buffer = buffer
        self.name = name
        if bucket_pages:
            self._buckets = list(bucket_pages)
        else:
            self._buckets = [self._new_chain_page(INVALID_PAGE_ID)
                             for _ in range(num_buckets)]
        self._count: Optional[int] = None  # lazy entry counter

    # -- persistence hooks -----------------------------------------------------

    @property
    def bucket_pages(self) -> List[int]:
        """Bucket head page ids, persisted by the catalog."""
        return list(self._buckets)

    def pages(self) -> List[int]:
        """Every page id used by the directory (heads plus overflow)."""
        result: List[int] = []
        for head in self._buckets:
            page_id = head
            while page_id != INVALID_PAGE_ID:
                result.append(page_id)
                with self._buffer.page(page_id) as frame:
                    page_id = _get_next(frame.data)
        return result

    # -- page management -----------------------------------------------------------

    def _new_chain_page(self, next_page: int) -> int:
        frame = self._buffer.new_page()
        try:
            SlottedPage.format(frame.data)
            _set_next(frame.data, next_page)
        finally:
            self._buffer.unpin(frame.page_id, dirty=True)
        return frame.page_id

    def _bucket_for(self, atom_id: int) -> int:
        return self._buckets[hash(atom_id) % len(self._buckets)]

    # -- entry codec -------------------------------------------------------------------

    @staticmethod
    def _pack_entry(atom_id: int, payload: bytes) -> bytes:
        return _ENTRY_KEY.pack(atom_id) + payload

    @staticmethod
    def _unpack_entry(record: bytes) -> Tuple[int, bytes]:
        (atom_id,) = _ENTRY_KEY.unpack_from(record, 0)
        return atom_id, record[_ENTRY_KEY.size:]

    # -- lookup ----------------------------------------------------------------------------

    def _locate(self, atom_id: int) -> Optional[Tuple[int, int]]:
        """Find (page id, slot) of the entry for *atom_id*, if present."""
        page_id = self._bucket_for(atom_id)
        key = _ENTRY_KEY.pack(atom_id)
        while page_id != INVALID_PAGE_ID:
            with self._buffer.page(page_id) as frame:
                slot = SlottedPage(frame.data).find(key)
                if slot is not None:
                    return page_id, slot
                page_id = _get_next(frame.data)
        return None

    def get(self, atom_id: int) -> Optional[bytes]:
        """Return the payload stored for *atom_id*, or ``None``."""
        location = self._locate(atom_id)
        if location is None:
            return None
        page_id, slot = location
        with self._buffer.page(page_id) as frame:
            _, payload = self._unpack_entry(SlottedPage(frame.data).read(slot))
            return payload

    def get_many(self, atom_ids: Iterable[int]) -> Dict[int, Optional[bytes]]:
        """Batched :meth:`get`: payloads for many atoms at once.

        Requests are grouped by bucket so every chain is walked once per
        batch no matter how many of its atoms were asked for — a chain
        page is pinned once per batch instead of once per atom.  Returns
        ``{atom_id: payload or None}`` with every requested id present.
        """
        result: Dict[int, Optional[bytes]] = {}
        by_bucket: Dict[int, List[int]] = {}
        for atom_id in atom_ids:
            if atom_id in result:
                continue
            result[atom_id] = None
            by_bucket.setdefault(
                hash(atom_id) % len(self._buckets), []).append(atom_id)
        for bucket_index, wanted in by_bucket.items():
            pending = {_ENTRY_KEY.pack(atom_id): atom_id for atom_id in wanted}
            page_id = self._buckets[bucket_index]
            while page_id != INVALID_PAGE_ID and pending:
                with self._buffer.page(page_id) as frame:
                    page = SlottedPage(frame.data)
                    for key in list(pending):
                        slot = page.find(key)
                        if slot is not None:
                            result[pending.pop(key)] = (
                                page.read(slot)[_ENTRY_KEY.size:])
                    page_id = _get_next(frame.data)
        return result

    def __contains__(self, atom_id: int) -> bool:
        return self._locate(atom_id) is not None

    # -- mutation ----------------------------------------------------------------------------

    def put(self, atom_id: int, payload: bytes) -> None:
        """Insert or replace the entry for *atom_id*."""
        record = self._pack_entry(atom_id, payload)
        location = self._locate(atom_id)
        if location is not None:
            page_id, slot = location
            with self._buffer.page(page_id, dirty=True) as frame:
                page = SlottedPage(frame.data)
                try:
                    page.update(slot, record)
                    return
                except PageFullError:
                    page.delete(slot)
            self._insert_into_bucket(atom_id, record)
            return
        self._insert_into_bucket(atom_id, record)
        if self._count is not None:
            self._count += 1

    def _insert_into_bucket(self, atom_id: int, record: bytes) -> None:
        bucket_index = hash(atom_id) % len(self._buckets)
        page_id = self._buckets[bucket_index]
        while True:
            with self._buffer.page(page_id, dirty=True) as frame:
                page = SlottedPage(frame.data)
                try:
                    page.insert(record)
                    return
                except PageFullError:
                    next_page = _get_next(frame.data)
            if next_page == INVALID_PAGE_ID:
                # Prepend a fresh overflow page so the chain head stays
                # the least-full page.
                new_head = self._new_chain_page(self._buckets[bucket_index])
                self._buckets[bucket_index] = new_head
                page_id = new_head
            else:
                page_id = next_page

    def delete(self, atom_id: int) -> bool:
        """Remove the entry for *atom_id*; returns whether it existed."""
        location = self._locate(atom_id)
        if location is None:
            return False
        page_id, slot = location
        with self._buffer.page(page_id, dirty=True) as frame:
            SlottedPage(frame.data).delete(slot)
        if self._count is not None:
            self._count -= 1
        return True

    # -- iteration --------------------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, bytes]]:
        """Yield every (atom id, payload) pair; order is physical."""
        for head in self._buckets:
            page_id = head
            while page_id != INVALID_PAGE_ID:
                with self._buffer.page(page_id) as frame:
                    page = SlottedPage(frame.data)
                    entries = [self._unpack_entry(page.read(slot))
                               for slot in page.iter_slots()]
                    page_id = _get_next(frame.data)
                yield from entries

    def keys(self) -> Iterator[int]:
        for atom_id, _ in self.items():
            yield atom_id

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self.items())
        return self._count

    # -- integrity ---------------------------------------------------------------------------------

    def check(self) -> None:
        """Verify that every entry hashes to the chain it is stored in."""
        for index, head in enumerate(self._buckets):
            page_id = head
            while page_id != INVALID_PAGE_ID:
                with self._buffer.page(page_id) as frame:
                    page = SlottedPage(frame.data)
                    for slot in page.iter_slots():
                        key, _ = self._unpack_entry(page.read(slot))
                        if hash(key) % len(self._buckets) != index:
                            raise StorageError(
                                f"{self.name}: atom {key} filed in wrong "
                                f"bucket {index}")
                    page_id = _get_next(frame.data)
