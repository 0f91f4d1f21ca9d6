"""Atom directory: persistent direct-mapped array from atom id to bytes.

Every version-storage strategy needs address translation — given an atom
identifier, find where its versions live.  Atom ids are small,
non-negative and allocated densely, so the directory is an array of
fixed-width entries indexed by the id itself, the page-table style
translation a PRIMA-type kernel uses.  Each entry is one present-flag
byte plus the strategy's fixed-width location value (record ids, counts,
envelopes); the entry for atom *i* lives on directory page
``i // per_page`` at slot ``i % per_page``, so a lookup pins exactly one
page however many atoms the store holds.

Directory pages are raw page images (a zeroed page is a page of absent
entries) allocated on the first ``put`` that lands on them.  The page
table ``page number -> page id`` is sparse, so one large id costs one
page rather than one for every id below it; it is persisted through the
catalog as a flat ``[page number, page id, ...]`` list.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferManager

_PRESENT = 1


class AtomDirectory:
    """Direct-mapped persistent map ``atom_id -> fixed-width payload``."""

    def __init__(self, buffer: BufferManager, name: str, value_size: int,
                 page_table: Optional[List[int]] = None) -> None:
        self._buffer = buffer
        self.name = name
        self._value_size = value_size
        self._entry_size = 1 + value_size
        self._per_page = buffer.page_size // self._entry_size
        table = page_table or []
        self._pages: Dict[int, int] = dict(zip(table[0::2], table[1::2]))

    # -- persistence hooks -----------------------------------------------------

    @property
    def page_table(self) -> List[int]:
        """``[page number, page id, ...]``, persisted by the catalog."""
        return [value for pair in self._pages.items() for value in pair]

    def pages(self) -> List[int]:
        """Every page id used by the directory."""
        return list(self._pages.values())

    # -- lookup ----------------------------------------------------------------------------

    def get(self, atom_id: int) -> Optional[bytes]:
        """Return the payload stored for *atom_id*, or ``None``."""
        page_no, slot = divmod(atom_id, self._per_page)
        page_id = self._pages.get(page_no)
        if page_id is None:
            return None
        at = slot * self._entry_size
        frame = self._buffer.pin(page_id)
        try:
            data = frame.data
            if data[at] != _PRESENT:
                return None
            return bytes(data[at + 1:at + self._entry_size])
        finally:
            self._buffer.unpin(page_id)

    def get_many(self, atom_ids: Iterable[int]) -> Dict[int, Optional[bytes]]:
        """Batched :meth:`get`: payloads for many atoms at once.

        Requests are grouped by directory page, so a page is pinned once
        per batch no matter how many of its atoms were asked for.
        Returns ``{atom_id: payload or None}`` with every requested id
        present.
        """
        result: Dict[int, Optional[bytes]] = {}
        by_page: Dict[int, List[int]] = {}
        per_page = self._per_page
        for atom_id in atom_ids:
            if atom_id in result:
                continue
            result[atom_id] = None
            page_no = atom_id // per_page
            if page_no in self._pages:
                by_page.setdefault(page_no, []).append(atom_id)
        size = self._entry_size
        for page_no, wanted in by_page.items():
            page_id = self._pages[page_no]
            frame = self._buffer.pin(page_id)
            try:
                data = frame.data
                for atom_id in wanted:
                    at = (atom_id % per_page) * size
                    if data[at] == _PRESENT:
                        result[atom_id] = bytes(data[at + 1:at + size])
            finally:
                self._buffer.unpin(page_id)
        return result

    def __contains__(self, atom_id: int) -> bool:
        return self.get(atom_id) is not None

    # -- mutation ----------------------------------------------------------------------------

    def put(self, atom_id: int, payload: bytes) -> None:
        """Insert or replace the entry for *atom_id*."""
        if atom_id < 0:
            raise StorageError(f"{self.name}: negative atom id {atom_id}")
        if len(payload) != self._value_size:
            raise StorageError(
                f"{self.name}: payload of {len(payload)} bytes for atom "
                f"{atom_id}, entries hold {self._value_size}")
        page_no, slot = divmod(atom_id, self._per_page)
        page_id = self._pages.get(page_no)
        if page_id is None:
            frame = self._buffer.new_page()
            page_id = self._pages[page_no] = frame.page_id
        else:
            frame = self._buffer.pin(page_id)
        at = slot * self._entry_size
        try:
            frame.data[at] = _PRESENT
            frame.data[at + 1:at + self._entry_size] = payload
        finally:
            self._buffer.unpin(page_id, dirty=True)

    def delete(self, atom_id: int) -> bool:
        """Remove the entry for *atom_id*; returns whether it existed."""
        page_no, slot = divmod(atom_id, self._per_page)
        page_id = self._pages.get(page_no)
        if page_id is None:
            return False
        at = slot * self._entry_size
        existed = False
        frame = self._buffer.pin(page_id)
        try:
            if frame.data[at] == _PRESENT:
                frame.data[at] = 0
                existed = True
        finally:
            self._buffer.unpin(page_id, dirty=existed)
        return existed

    # -- iteration --------------------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, bytes]]:
        """Yield every (atom id, payload) pair in ascending id order."""
        per_page, size = self._per_page, self._entry_size
        for page_no in sorted(self._pages):
            page_id = self._pages[page_no]
            with self._buffer.page(page_id) as frame:
                data = frame.data
                flags = data[0:per_page * size:size]
                entries = [(page_no * per_page + slot,
                            bytes(data[slot * size + 1:(slot + 1) * size]))
                           for slot in compress(range(per_page), flags)]
            yield from entries

    def keys(self) -> Iterator[int]:
        for atom_id, _ in self.items():
            yield atom_id

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())
