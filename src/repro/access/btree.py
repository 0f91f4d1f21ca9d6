"""Page-based B+-tree with fixed-width keys and values.

Design points:

* Keys and values are fixed-width byte strings (widths chosen at tree
  creation); keys compare with raw ``bytes`` order, which the encoders in
  :mod:`repro.access.keys` make order-preserving.
* Duplicate keys are allowed — attribute indexes map one value to many
  atoms.  An entry is the *pair* (key, value); deletion removes one
  specific pair.
* Leaves are chained left-to-right, so range scans descend once and then
  walk the chain.
* Splits propagate upward along the descent path; deletion never merges
  nodes (underfull nodes are tolerated — the classic simplification for
  workloads that are insert-heavy, which version histories are).

Node page layout::

    leaf:      [type:1][count:2][next_leaf:8][(key value) * count]
    internal:  [type:1][count:2][child0:8]  [(key child) * count]

In an internal node, ``child_i`` (with ``child_0`` stored separately)
covers keys ``k`` with ``keys[i-1] <= k < keys[i]``.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import IndexCorruptError, KeyEncodingError
from repro.storage.buffer import BufferManager
from repro.storage.constants import INVALID_PAGE_ID

_TYPE_LEAF = 1
_TYPE_INTERNAL = 2
_HEAD = struct.Struct("<BHQ")  # type, count, next_leaf / child0


class _Node:
    """Decoded image of one tree page."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children",
                 "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: List[bytes] = []
        self.values: List[bytes] = []      # leaf payloads
        self.children: List[int] = []      # internal child page ids
        self.next_leaf: int = INVALID_PAGE_ID


class BPlusTree:
    """A B+-tree over buffered pages.

    The caller owns persistence of ``root_page_id`` (typically via the
    catalog's ``index_roots`` map).
    """

    def __init__(self, buffer: BufferManager, key_size: int, value_size: int,
                 root_page_id: Optional[int] = None, name: str = "btree") -> None:
        if key_size < 1 or value_size < 0:
            raise KeyEncodingError("key/value sizes must be positive")
        self._buffer = buffer
        self.name = name
        self.key_size = key_size
        self.value_size = value_size
        metrics = buffer.metrics
        self._c_node_reads = metrics.counter("btree.node_reads", index=name)
        self._c_node_writes = metrics.counter("btree.node_writes", index=name)
        self._c_splits = metrics.counter("btree.splits", index=name)
        # One entry of each node kind, so a node decodes with a single
        # ``iter_unpack`` over its entry bytes.
        self._leaf_entry = struct.Struct(f"<{key_size}s{value_size}s")
        self._internal_entry = struct.Struct(f"<{key_size}sQ")
        page_size = buffer.page_size
        self._leaf_cap = (page_size - _HEAD.size) // (key_size + value_size)
        self._internal_cap = (page_size - _HEAD.size) // (key_size + 8)
        if self._leaf_cap < 3 or self._internal_cap < 3:
            raise KeyEncodingError(
                f"key width {key_size} too large for page size {page_size}")
        if root_page_id is None:
            root = _Node(self._allocate(), is_leaf=True)
            self._write(root)
            self.root_page_id = root.page_id
        else:
            self.root_page_id = root_page_id

    # -- node I/O ----------------------------------------------------------

    def _allocate(self) -> int:
        frame = self._buffer.new_page()
        self._buffer.unpin(frame.page_id, dirty=True)
        return frame.page_id

    def _read(self, page_id: int) -> _Node:
        self._c_node_reads.inc()
        with self._buffer.page(page_id) as frame:
            data = frame.data
            node_type, count, link = _HEAD.unpack_from(data, 0)
            if node_type not in (_TYPE_LEAF, _TYPE_INTERNAL):
                raise IndexCorruptError(
                    f"{self.name}: page {page_id} is not a tree node")
            node = _Node(page_id, node_type == _TYPE_LEAF)
            entry = self._leaf_entry if node.is_leaf else self._internal_entry
            entries = entry.iter_unpack(
                data[_HEAD.size:_HEAD.size + count * entry.size])
            keys, seconds = map(list, zip(*entries)) if count else ([], [])
        node.keys = keys
        if node.is_leaf:
            node.next_leaf = link
            node.values = seconds
        else:
            node.children = [link] + seconds
        return node

    def _write(self, node: _Node) -> None:
        self._c_node_writes.inc()
        with self._buffer.page(node.page_id, dirty=True) as frame:
            data = frame.data
            link = node.next_leaf if node.is_leaf else node.children[0]
            _HEAD.pack_into(data, 0,
                            _TYPE_LEAF if node.is_leaf else _TYPE_INTERNAL,
                            len(node.keys), link)
            at = _HEAD.size
            if node.is_leaf:
                for key, value in zip(node.keys, node.values):
                    data[at:at + self.key_size] = key
                    at += self.key_size
                    data[at:at + self.value_size] = value
                    at += self.value_size
            else:
                for key, child in zip(node.keys, node.children[1:]):
                    data[at:at + self.key_size] = key
                    at += self.key_size
                    struct.pack_into("<Q", data, at, child)
                    at += 8

    # -- validation ------------------------------------------------------------

    def _check_key(self, key: bytes) -> bytes:
        if len(key) != self.key_size:
            raise KeyEncodingError(
                f"{self.name}: key must be {self.key_size} bytes, "
                f"got {len(key)}")
        return key

    def _check_value(self, value: bytes) -> bytes:
        if len(value) != self.value_size:
            raise KeyEncodingError(
                f"{self.name}: value must be {self.value_size} bytes, "
                f"got {len(value)}")
        return value

    # -- insertion -----------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert the (key, value) pair; duplicates are kept."""
        self._check_key(key)
        self._check_value(value)
        split = self._insert_into(self.root_page_id, key, value)
        if split is not None:
            separator, right_pid = split
            new_root = _Node(self._allocate(), is_leaf=False)
            new_root.children = [self.root_page_id, right_pid]
            new_root.keys = [separator]
            self._write(new_root)
            self.root_page_id = new_root.page_id

    def _insert_into(self, page_id: int, key: bytes,
                     value: bytes) -> Optional[Tuple[bytes, int]]:
        """Insert below *page_id*; return (separator, new right page) on split."""
        node = self._read(page_id)
        if node.is_leaf:
            at = bisect_right(node.keys, key)
            node.keys.insert(at, key)
            node.values.insert(at, value)
            if len(node.keys) <= self._leaf_cap:
                self._write(node)
                return None
            return self._split_leaf(node)
        slot = bisect_right(node.keys, key)
        split = self._insert_into(node.children[slot], key, value)
        if split is None:
            return None
        separator, right_pid = split
        node.keys.insert(slot, separator)
        node.children.insert(slot + 1, right_pid)
        if len(node.keys) <= self._internal_cap:
            self._write(node)
            return None
        return self._split_internal(node)

    def insert_many(self, pairs: Iterable[Tuple[bytes, bytes]],
                    skip_present: bool = False) -> int:
        """Insert many pairs with one leaf traversal per run of
        adjacent keys; returns how many were actually inserted.

        The batch is sorted, then consumed in runs: one descent finds
        the leaf for a run's first key, subsequent pairs keep landing
        in the same in-memory leaf while they sort at or below the
        leaf's upper fence, and the leaf is written back once per run
        instead of once per pair.  The first pair of every descent is
        always placed in the reached leaf (legal under the inclusive
        fence invariant, and the guarantee that every run makes
        progress even when its key equals the fence).  A run that
        would overflow the leaf flushes it and falls back to
        :meth:`insert` for that one pair — the split path — then
        re-descends, since the split rearranged the fences.

        With *skip_present*, pairs already in the tree (or earlier in
        the batch) are skipped — the attribute indexes' idempotence
        contract, previously paid for with one probe descent plus one
        insert descent per entry.
        """
        batch = sorted(pairs)
        for key, value in batch:
            self._check_key(key)
            self._check_value(value)
        inserted = 0
        position = 0
        total = len(batch)
        while position < total:
            key, value = batch[position]
            node = self._read(self.root_page_id)
            fence: Optional[bytes] = None
            while not node.is_leaf:
                slot = bisect_left(node.keys, key)
                if slot < len(node.keys):
                    fence = node.keys[slot]
                node = self._read(node.children[slot])
            dirty = False
            while True:
                if skip_present and self._pair_present(node, key, value):
                    position += 1
                elif len(node.keys) >= self._leaf_cap:
                    if dirty:
                        self._write(node)
                        dirty = False
                    self.insert(key, value)
                    inserted += 1
                    position += 1
                    break  # the split moved fences: re-descend
                else:
                    at = bisect_right(node.keys, key)
                    node.keys.insert(at, key)
                    node.values.insert(at, value)
                    dirty = True
                    inserted += 1
                    position += 1
                if position >= total:
                    break
                key, value = batch[position]
                if fence is not None and key > fence:
                    break
            if dirty:
                self._write(node)
        return inserted

    def _pair_present(self, leaf: _Node, key: bytes, value: bytes) -> bool:
        """Whether the exact (key, value) pair exists, starting from the
        (possibly dirty, in-memory) *leaf* the key descends to.

        Equal keys may straddle the leaf's right fence — single inserts
        place them right of the separator while batched runs keep them
        left — so the probe walks the sibling chain as long as it keeps
        seeing the key.
        """
        node = leaf
        at = bisect_left(node.keys, key)
        while True:
            while at < len(node.keys):
                if node.keys[at] != key:
                    return False
                if node.values[at] == value:
                    return True
                at += 1
            if node.next_leaf == INVALID_PAGE_ID:
                return False
            node = self._read(node.next_leaf)
            at = 0

    def _split_leaf(self, node: _Node) -> Tuple[bytes, int]:
        self._c_splits.inc()
        mid = len(node.keys) // 2
        right = _Node(self._allocate(), is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right.page_id
        self._write(right)
        self._write(node)
        return right.keys[0], right.page_id

    def _split_internal(self, node: _Node) -> Tuple[bytes, int]:
        self._c_splits.inc()
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Node(self._allocate(), is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        self._write(right)
        self._write(node)
        return separator, right.page_id

    # -- search ------------------------------------------------------------------------

    def _leftmost_leaf_for(self, key: bytes) -> _Node:
        node = self._read(self.root_page_id)
        while not node.is_leaf:
            slot = bisect_left(node.keys, key)
            node = self._read(node.children[slot])
        return node

    def search(self, key: bytes) -> List[bytes]:
        """All values stored under exactly *key* (duplicates in order)."""
        self._check_key(key)
        return [value for _, value in self.range_scan(key, key,
                                                      hi_inclusive=True)]

    def range_scan(self, lo: Optional[bytes], hi: Optional[bytes],
                   hi_inclusive: bool = False
                   ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) with ``lo <= key < hi`` (or ``<= hi``).

        ``None`` bounds mean unbounded on that side.
        """
        if lo is not None:
            self._check_key(lo)
            node = self._leftmost_leaf_for(lo)
            at = bisect_left(node.keys, lo)
        else:
            node = self._read(self.root_page_id)
            while not node.is_leaf:
                node = self._read(node.children[0])
            at = 0
        if hi is not None:
            self._check_key(hi)
        while True:
            while at < len(node.keys):
                key = node.keys[at]
                if hi is not None:
                    if hi_inclusive and key > hi:
                        return
                    if not hi_inclusive and key >= hi:
                        return
                yield key, node.values[at]
                at += 1
            if node.next_leaf == INVALID_PAGE_ID:
                return
            node = self._read(node.next_leaf)
            at = 0

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every (key, value) pair in key order."""
        return self.range_scan(None, None)

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # -- deletion --------------------------------------------------------------------------

    def delete(self, key: bytes, value: bytes) -> bool:
        """Remove one (key, value) pair; returns whether it was present.

        Nodes are allowed to underflow; structure is never rebalanced.
        """
        self._check_key(key)
        self._check_value(value)
        node = self._leftmost_leaf_for(key)
        at = bisect_left(node.keys, key)
        while True:
            while at < len(node.keys):
                if node.keys[at] != key:
                    return False
                if node.values[at] == value:
                    del node.keys[at]
                    del node.values[at]
                    self._write(node)
                    return True
                at += 1
            if node.next_leaf == INVALID_PAGE_ID:
                return False
            node = self._read(node.next_leaf)
            at = 0

    # -- integrity ---------------------------------------------------------------------------

    def check(self) -> int:
        """Validate ordering, fences, and uniform leaf depth; return height."""
        leaf_depths: List[int] = []
        self._check_node(self.root_page_id, None, None, 0, leaf_depths)
        if len(set(leaf_depths)) > 1:
            raise IndexCorruptError(f"{self.name}: leaves at mixed depths")
        return leaf_depths[0] if leaf_depths else 0

    def _check_node(self, page_id: int, lo: Optional[bytes],
                    hi: Optional[bytes], depth: int,
                    leaf_depths: List[int]) -> None:
        node = self._read(page_id)
        for a, b in zip(node.keys, node.keys[1:]):
            if a > b:
                raise IndexCorruptError(
                    f"{self.name}: unordered keys in page {page_id}")
        # Duplicate keys may straddle a separator (equal keys can remain in
        # the left sibling after a split), so both fences are inclusive.
        for key in node.keys:
            if lo is not None and key < lo:
                raise IndexCorruptError(
                    f"{self.name}: key below fence in page {page_id}")
            if hi is not None and key > hi:
                raise IndexCorruptError(
                    f"{self.name}: key above fence in page {page_id}")
        if node.is_leaf:
            leaf_depths.append(depth)
            return
        bounds = [lo, *node.keys, hi]
        for index, child in enumerate(node.children):
            self._check_node(child, bounds[index], bounds[index + 1],
                             depth + 1, leaf_depths)
