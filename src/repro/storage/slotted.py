"""Slotted-page record layout.

A slotted page stores variable-length records inside one page image::

    +--------------+-----------+----------------------+------------------+
    | reserved(16) | header(4) | slot directory -->   |  <-- record data |
    +--------------+-----------+----------------------+------------------+

* The 16 reserved bytes at the front belong to the page's owner (the heap
  keeps its chain pointer there); the slotted layout never touches them.
* The header holds the slot count and ``data_start``, the offset of the
  lowest record byte; records are packed from the page end towards the
  front, the slot directory grows from the front towards the end.
* Each 4-byte slot holds ``(offset, length)`` of one record.  Offset 0
  marks a dead slot (no record can start at offset 0 because the reserved
  area occupies it), so slot numbers — and hence record ids — stay stable
  across deletes and compaction.

Deleting or shrinking records leaves dead space between live records;
:meth:`SlottedPage.insert` compacts lazily when the contiguous gap is too
small but the total free space suffices.

Every question about the slot directory as a whole (live slots, live
bytes, the first dead slot, free space, compaction) is answered from one
tuple read by a single C-level ``struct`` unpack of the whole directory
and filtered with ``itertools`` and tuple methods, never by a Python
loop per slot.
"""

from __future__ import annotations

import struct
from itertools import compress
from typing import Dict, Iterator, Tuple

from repro.errors import PageError, PageFullError

RESERVED_BYTES = 16
_HEADER = struct.Struct("<HH")  # num_slots, data_start
_SLOT = struct.Struct("<HH")    # offset, length
_HEADER_AT = RESERVED_BYTES
_SLOTS_AT = RESERVED_BYTES + _HEADER.size
_DEAD = 0  # offset value marking an empty slot

#: Whole-directory codecs by slot count: ``<{2n}H`` (offset, length) pairs.
_DIRECTORIES: Dict[int, struct.Struct] = {}


def _directory_codec(num_slots: int) -> struct.Struct:
    codec = _DIRECTORIES.get(num_slots)
    if codec is None:
        codec = _DIRECTORIES[num_slots] = struct.Struct(f"<{2 * num_slots}H")
    return codec


class SlottedPage:
    """A view interpreting a page image (bytearray) as a slotted page.

    The view holds a reference to the underlying buffer frame data and
    mutates it in place; the caller is responsible for pinning the frame
    for the lifetime of the view and for marking it dirty.
    """

    __slots__ = ("_data",)

    def __init__(self, data: bytearray) -> None:
        self._data = data

    # -- formatting -----------------------------------------------------------

    @classmethod
    def format(cls, data: bytearray) -> "SlottedPage":
        """Initialize a zeroed page image as an empty slotted page."""
        page = cls(data)
        page._write_header(0, len(data))
        return page

    @classmethod
    def capacity(cls, page_size: int) -> int:
        """Largest record payload a fresh page of *page_size* can hold."""
        return page_size - _SLOTS_AT - _SLOT.size

    # -- header helpers ----------------------------------------------------------

    def _read_header(self) -> Tuple[int, int]:
        return _HEADER.unpack_from(self._data, _HEADER_AT)

    def _write_header(self, num_slots: int, data_start: int) -> None:
        _HEADER.pack_into(self._data, _HEADER_AT, num_slots, data_start)

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        return _SLOT.unpack_from(self._data, _SLOTS_AT + slot * _SLOT.size)

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._data, _SLOTS_AT + slot * _SLOT.size,
                        offset, length)

    def _scan(self) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]:
        """``(num_slots, data_start, offsets, lengths)`` in two unpacks.

        A dead slot's offset is 0, so ``offsets`` doubles as the liveness
        mask for :func:`itertools.compress`.
        """
        num_slots, data_start = _HEADER.unpack_from(self._data, _HEADER_AT)
        pairs = _directory_codec(num_slots).unpack_from(self._data, _SLOTS_AT)
        return num_slots, data_start, pairs[0::2], pairs[1::2]

    # -- inspection ----------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self._read_header()[0]

    def live_records(self) -> int:
        """Number of slots holding a record."""
        _, _, offsets, _ = self._scan()
        return len(offsets) - offsets.count(_DEAD)

    def iter_slots(self) -> Iterator[int]:
        """Yield the slot numbers of live records, ascending.

        The directory is read once up front, so the caller may mutate the
        page while iterating.
        """
        num_slots, _, offsets, _ = self._scan()
        return compress(range(num_slots), offsets)

    @staticmethod
    def _directory_end(num_slots: int) -> int:
        return _SLOTS_AT + num_slots * _SLOT.size

    def _unused_bytes(self, num_slots: int, offsets: Tuple[int, ...],
                      lengths: Tuple[int, ...]) -> int:
        """Bytes held by neither the slot directory nor a live record:
        the contiguous gap plus the holes compaction would reclaim."""
        return (len(self._data) - self._directory_end(num_slots)
                - sum(compress(lengths, offsets)))

    def free_space(self) -> int:
        """Largest record insertable into this page.

        Counts dead space (recoverable by compaction); the slot-directory
        entry is only charged when no dead slot can be reused.
        """
        num_slots, _, offsets, lengths = self._scan()
        slot_cost = 0 if _DEAD in offsets else _SLOT.size
        return max(0, self._unused_bytes(num_slots, offsets, lengths)
                   - slot_cost)

    # -- mutation -------------------------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Store *payload* and return its slot number.

        Raises :class:`PageFullError` when the page cannot hold it even
        after compaction.
        """
        num_slots, data_start, offsets, lengths = self._scan()
        slot = offsets.index(_DEAD) if _DEAD in offsets else num_slots
        slot_cost = 0 if slot < num_slots else _SLOT.size
        total_free = self._unused_bytes(num_slots, offsets, lengths)
        needed = len(payload) + slot_cost
        if needed > total_free:
            raise PageFullError(
                f"record of {len(payload)} bytes does not fit "
                f"({total_free - slot_cost} free)")
        if needed > data_start - self._directory_end(num_slots):
            data_start = self._compact(num_slots, offsets, lengths)
        offset = data_start - len(payload)
        self._data[offset:data_start] = payload
        self._write_header(max(num_slots, slot + 1), offset)
        self._write_slot(slot, offset, len(payload))
        return slot

    def read(self, slot: int) -> bytes:
        """Return the record stored in *slot*."""
        offset, length = self._slot_or_raise(slot)
        return bytes(self._data[offset:offset + length])

    def delete(self, slot: int) -> None:
        """Remove the record in *slot*; the slot number may be reused."""
        self._slot_or_raise(slot)
        self._write_slot(slot, _DEAD, 0)

    def update(self, slot: int, payload: bytes) -> None:
        """Replace the record in *slot*, keeping its slot number.

        Shrinking updates rewrite in place; growing updates relocate the
        record within the page.  Raises :class:`PageFullError` (leaving
        the page unchanged) when the new payload does not fit even after
        compaction.
        """
        offset, length = self._slot_or_raise(slot)
        if len(payload) <= length:
            self._data[offset:offset + len(payload)] = payload
            self._write_slot(slot, offset, len(payload))
            return
        # The old image counts as reclaimable space.
        num_slots, data_start, offsets, lengths = self._scan()
        if len(payload) > (self._unused_bytes(num_slots, offsets, lengths)
                           + length):
            raise PageFullError(
                f"grown record of {len(payload)} bytes does not fit")
        if len(payload) > data_start - self._directory_end(num_slots):
            self._write_slot(slot, _DEAD, 0)
            num_slots, _, offsets, lengths = self._scan()
            data_start = self._compact(num_slots, offsets, lengths)
        new_offset = data_start - len(payload)
        self._data[new_offset:data_start] = payload
        self._write_header(num_slots, new_offset)
        self._write_slot(slot, new_offset, len(payload))

    def compact(self) -> None:
        """Repack live records against the page end, squeezing out holes."""
        num_slots, _, offsets, lengths = self._scan()
        self._compact(num_slots, offsets, lengths)

    def _compact(self, num_slots: int, offsets: Tuple[int, ...],
                 lengths: Tuple[int, ...]) -> int:
        """Repack the live records (lowest slot at the page end) with one
        image write and one directory write; returns the new data start."""
        data = self._data
        new_offsets = [_DEAD] * num_slots
        records = []
        data_start = len(data)
        for slot in compress(range(num_slots), offsets):
            offset, length = offsets[slot], lengths[slot]
            records.append(data[offset:offset + length])
            data_start -= length
            new_offsets[slot] = data_start
        records.reverse()
        data[data_start:] = b"".join(records)
        pairs = [0] * (2 * num_slots)
        pairs[0::2] = new_offsets
        pairs[1::2] = lengths
        _directory_codec(num_slots).pack_into(data, _SLOTS_AT, *pairs)
        self._write_header(num_slots, data_start)
        return data_start

    # -- internals --------------------------------------------------------------------

    def _slot_or_raise(self, slot: int) -> Tuple[int, int]:
        num_slots, _ = self._read_header()
        if not (0 <= slot < num_slots):
            raise PageError(f"slot {slot} out of range (page has {num_slots})")
        offset, length = self._read_slot(slot)
        if offset == _DEAD:
            raise PageError(f"slot {slot} holds no record")
        return offset, length
