"""Heap segments: unordered record files with spanned (multi-page) records.

A segment owns an ordered list of pages (persisted via the catalog) and
stores byte records addressed by stable :class:`RecordId`\\ s.  Records
larger than one page are transparently *spanned*: the payload is split into
fragments chained by record ids, and only the head fragment's id is visible
to callers.  Spanning is what makes the paper's CLUSTERED strategy — the
whole version history of an atom in one logical record — realizable.

Fragment envelope (first byte of every stored record):

====  =============================================
flag  meaning
====  =============================================
0     complete record (payload follows)
1     head fragment   (next RecordId + payload follow)
2     middle fragment (next RecordId + payload follow)
3     tail fragment   (payload follows)
====  =============================================

Scans yield only complete records and head fragments, so every logical
record appears exactly once.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PageFullError, RecordNotFoundError, StorageError
from repro.storage.buffer import BufferManager
from repro.storage.slotted import SlottedPage

_RID = struct.Struct("<QH")

_FLAG_WHOLE = 0
_FLAG_HEAD = 1
_FLAG_MIDDLE = 2
_FLAG_TAIL = 3

#: Sort key for batches of record ids: the same order as RecordId's own.
_PAGE_SLOT = operator.attrgetter("page_id", "slot")


@dataclass(frozen=True, slots=True, order=True)
class RecordId:
    """Stable address of a logical record: (page id, slot number)."""

    page_id: int
    slot: int

    PACKED_SIZE = _RID.size

    def pack(self) -> bytes:
        return _RID.pack(self.page_id, self.slot)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "RecordId":
        page_id, slot = _RID.unpack_from(data, offset)
        return cls(page_id, slot)

    def __str__(self) -> str:
        return f"@{self.page_id}.{self.slot}"


class HeapSegment:
    """An unordered collection of byte records built on slotted pages."""

    def __init__(self, buffer: BufferManager, name: str,
                 page_ids: Optional[List[int]] = None) -> None:
        self._buffer = buffer
        self.name = name
        self._pages: List[int] = list(page_ids or [])
        # Free-space map: page id -> worst-case insertable payload bytes.
        # Rebuilt lazily; kept approximate and corrected on PageFullError.
        self._free_map: Dict[int, int] = {}
        self._free_map_ready = False
        metrics = buffer.metrics
        self._c_reads = metrics.counter("heap.record_reads", segment=name)
        self._c_inserts = metrics.counter("heap.record_inserts", segment=name)
        self._c_deletes = metrics.counter("heap.record_deletes", segment=name)
        self._c_spanned = metrics.counter("heap.spanned_inserts", segment=name)

    # -- catalog integration -------------------------------------------------

    @property
    def pages(self) -> List[int]:
        """The segment's page ids in order (persisted by the catalog)."""
        return list(self._pages)

    def page_count(self) -> int:
        return len(self._pages)

    # -- free-space map ----------------------------------------------------------

    def _ensure_free_map(self) -> None:
        if self._free_map_ready:
            return
        for page_id in self._pages:
            with self._buffer.page(page_id) as frame:
                self._free_map[page_id] = SlottedPage(frame.data).free_space()
        self._free_map_ready = True

    def _page_with_room(self, needed: int) -> int:
        self._ensure_free_map()
        for page_id, free in self._free_map.items():
            if free >= needed:
                return page_id
        frame = self._buffer.new_page()
        try:
            SlottedPage.format(frame.data)
        finally:
            self._buffer.unpin(frame.page_id, dirty=True)
        self._pages.append(frame.page_id)
        self._free_map[frame.page_id] = SlottedPage.capacity(
            self._buffer.page_size)
        return frame.page_id

    def _refresh_free(self, page_id: int, page: SlottedPage) -> None:
        self._free_map[page_id] = page.free_space()

    # -- fragment-level helpers -----------------------------------------------------

    def _insert_fragment(self, body: bytes) -> RecordId:
        needed = len(body)
        while True:
            page_id = self._page_with_room(needed)
            with self._buffer.page(page_id, dirty=True) as frame:
                page = SlottedPage(frame.data)
                try:
                    slot = page.insert(body)
                except PageFullError:
                    # The map was stale; correct it and retry elsewhere.
                    self._refresh_free(page_id, page)
                    continue
                self._refresh_free(page_id, page)
                return RecordId(page_id, slot)

    def _read_fragment(self, rid: RecordId) -> bytes:
        with self._buffer.page(rid.page_id) as frame:
            page = SlottedPage(frame.data)
            try:
                return page.read(rid.slot)
            except Exception as exc:  # slot errors become record errors
                raise RecordNotFoundError(
                    f"{self.name}: no record {rid}") from exc

    def _delete_fragment(self, rid: RecordId) -> None:
        with self._buffer.page(rid.page_id, dirty=True) as frame:
            page = SlottedPage(frame.data)
            try:
                page.delete(rid.slot)
            except Exception as exc:
                raise RecordNotFoundError(
                    f"{self.name}: no record {rid}") from exc
            self._refresh_free(rid.page_id, page)

    # -- public record protocol ---------------------------------------------------------

    def max_unspanned(self) -> int:
        """Largest payload stored without spanning (envelope deducted)."""
        return SlottedPage.capacity(self._buffer.page_size) - 1

    def insert(self, payload: bytes) -> RecordId:
        """Store *payload*, spanning pages if necessary; return its id."""
        self._c_inserts.inc()
        if len(payload) <= self.max_unspanned():
            return self._insert_fragment(bytes([_FLAG_WHOLE]) + payload)
        self._c_spanned.inc()
        chunk = self.max_unspanned() - RecordId.PACKED_SIZE
        if chunk <= 0:
            raise StorageError("page size too small for spanned records")
        pieces = [payload[i:i + chunk] for i in range(0, len(payload), chunk)]
        # Build the chain back to front so each fragment knows its successor.
        next_rid: Optional[RecordId] = None
        for index in range(len(pieces) - 1, 0, -1):
            flag = _FLAG_TAIL if next_rid is None else _FLAG_MIDDLE
            body = bytes([flag])
            if next_rid is not None:
                body += next_rid.pack()
            body += pieces[index]
            next_rid = self._insert_fragment(body)
        assert next_rid is not None
        head = bytes([_FLAG_HEAD]) + next_rid.pack() + pieces[0]
        return self._insert_fragment(head)

    def read(self, rid: RecordId) -> bytes:
        """Return the full payload of the logical record at *rid*."""
        self._c_reads.inc()
        body = self._read_fragment(rid)
        flag = body[0]
        if flag == _FLAG_WHOLE:
            return body[1:]
        if flag != _FLAG_HEAD:
            raise RecordNotFoundError(
                f"{self.name}: {rid} addresses a spanning fragment, "
                f"not a record head")
        parts = [body[1 + RecordId.PACKED_SIZE:]]
        next_rid: Optional[RecordId] = RecordId.unpack(body, 1)
        while next_rid is not None:
            body = self._read_fragment(next_rid)
            flag = body[0]
            if flag == _FLAG_TAIL:
                parts.append(body[1:])
                next_rid = None
            elif flag == _FLAG_MIDDLE:
                parts.append(body[1 + RecordId.PACKED_SIZE:])
                next_rid = RecordId.unpack(body, 1)
            else:
                raise StorageError(
                    f"{self.name}: corrupt spanning chain at {next_rid}")
        return b"".join(parts)

    def read_many(self, rids: Iterable[RecordId]) -> Dict[RecordId, bytes]:
        """Batched :meth:`read`: payloads for many records at once.

        Record ids are sorted (on a plain ``(page_id, slot)`` key: the
        dataclass ordering's per-pair ``__lt__`` cost more than the reads
        it orders) and grouped by page so each underlying page
        is pinned once per batch regardless of how many of its records
        were requested.  Spanned records (head fragments) fall back to
        the chained per-fragment read.  Returns ``{rid: payload}`` for
        every distinct requested id; a missing record raises
        :class:`RecordNotFoundError`, exactly like :meth:`read`.
        """
        out: Dict[RecordId, bytes] = {}
        spanned: List[RecordId] = []
        group: List[RecordId] = []
        for rid in sorted(set(rids), key=_PAGE_SLOT):
            if group and group[-1].page_id != rid.page_id:
                self._read_page_group(group, out, spanned)
                group = []
            group.append(rid)
        if group:
            self._read_page_group(group, out, spanned)
        for rid in spanned:
            out[rid] = self.read(rid)
        return out

    def _read_page_group(self, rids: List[RecordId],
                         out: Dict[RecordId, bytes],
                         spanned: List[RecordId]) -> None:
        """Read all *rids* of one page under a single pin."""
        with self._buffer.page(rids[0].page_id) as frame:
            page = SlottedPage(frame.data)
            for rid in rids:
                try:
                    body = page.read(rid.slot)
                except Exception as exc:
                    raise RecordNotFoundError(
                        f"{self.name}: no record {rid}") from exc
                flag = body[0]
                if flag == _FLAG_WHOLE:
                    self._c_reads.inc()
                    out[rid] = body[1:]
                elif flag == _FLAG_HEAD:
                    spanned.append(rid)
                else:
                    raise RecordNotFoundError(
                        f"{self.name}: {rid} addresses a spanning fragment, "
                        f"not a record head")

    def delete(self, rid: RecordId) -> None:
        """Remove the logical record at *rid*, including all fragments."""
        self._c_deletes.inc()
        body = self._read_fragment(rid)
        flag = body[0]
        self._delete_fragment(rid)
        next_rid = (RecordId.unpack(body, 1)
                    if flag in (_FLAG_HEAD, _FLAG_MIDDLE) else None)
        while next_rid is not None:
            body = self._read_fragment(next_rid)
            self._delete_fragment(next_rid)
            next_rid = (RecordId.unpack(body, 1)
                        if body[0] == _FLAG_MIDDLE else None)

    def update(self, rid: RecordId, payload: bytes) -> RecordId:
        """Replace the record at *rid*; returns its (possibly new) id.

        Unspanned records that still fit in their page keep their id;
        anything else is a delete + reinsert and the caller must store the
        returned id.
        """
        if len(payload) <= self.max_unspanned():
            # One pin checks the envelope and rewrites; a spanned head
            # falls through to the delete, which dirties the page anyway.
            with self._buffer.page(rid.page_id, dirty=True) as frame:
                page = SlottedPage(frame.data)
                try:
                    flag = page.read(rid.slot)[0]
                except Exception as exc:
                    raise RecordNotFoundError(
                        f"{self.name}: no record {rid}") from exc
                if flag == _FLAG_WHOLE:
                    try:
                        page.update(rid.slot, bytes([_FLAG_WHOLE]) + payload)
                    except PageFullError:
                        pass  # the page is unchanged; relocate below
                    else:
                        self._refresh_free(rid.page_id, page)
                        return rid
        self.delete(rid)
        return self.insert(payload)

    def scan(self) -> Iterator[Tuple[RecordId, bytes]]:
        """Yield every logical record (head id, payload) in storage order."""
        for page_id in list(self._pages):
            with self._buffer.page(page_id) as frame:
                page = SlottedPage(frame.data)
                heads = []
                for slot in page.iter_slots():
                    body = page.read(slot)
                    if body[0] in (_FLAG_WHOLE, _FLAG_HEAD):
                        heads.append(RecordId(page_id, slot))
            # Read outside the pin so spanned chains can pin other pages
            # without holding this one.
            for rid in heads:
                yield rid, self.read(rid)

    def record_count(self) -> int:
        """Number of logical records (scans the segment)."""
        return sum(1 for _ in self.scan())
