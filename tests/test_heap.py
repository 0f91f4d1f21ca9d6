"""Tests for heap segments, including spanned records."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordNotFoundError
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapSegment


@pytest.fixture
def heap(buffer):
    return HeapSegment(buffer, "test")


class TestBasics:
    def test_insert_read(self, heap):
        rid = heap.insert(b"payload")
        assert heap.read(rid) == b"payload"

    def test_read_unknown_rid(self, heap):
        rid = heap.insert(b"x")
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.read(rid)

    def test_many_records(self, heap):
        rids = {heap.insert(f"rec-{i}".encode()): f"rec-{i}".encode()
                for i in range(500)}
        for rid, expected in rids.items():
            assert heap.read(rid) == expected

    def test_record_count(self, heap):
        for i in range(7):
            heap.insert(bytes([i]))
        assert heap.record_count() == 7

    def test_pages_grow_with_data(self, heap):
        assert heap.page_count() == 0
        heap.insert(b"x")
        assert heap.page_count() == 1
        for _ in range(100):
            heap.insert(b"y" * 200)
        assert heap.page_count() > 1


class TestSpannedRecords:
    def test_record_larger_than_page(self, heap, buffer):
        big = bytes(range(256)) * 40  # ~10 KiB > page size
        rid = heap.insert(big)
        assert heap.read(rid) == big

    def test_huge_record(self, heap):
        huge = b"Z" * 50_000
        rid = heap.insert(huge)
        assert heap.read(rid) == huge

    def test_spanned_delete_removes_fragments(self, heap):
        big = b"A" * 20_000
        rid = heap.insert(big)
        pages_used = heap.page_count()
        heap.delete(rid)
        # All fragment space is reusable: the same record fits again
        # without growing the segment.
        heap.insert(big)
        assert heap.page_count() == pages_used

    def test_spanned_then_small_records_coexist(self, heap):
        big_rid = heap.insert(b"B" * 12_000)
        small_rids = [heap.insert(f"s{i}".encode()) for i in range(20)]
        assert heap.read(big_rid) == b"B" * 12_000
        for index, rid in enumerate(small_rids):
            assert heap.read(rid) == f"s{index}".encode()

    def test_scan_reports_spanned_record_once(self, heap):
        heap.insert(b"C" * 15_000)
        heap.insert(b"small")
        payloads = sorted(payload for _, payload in heap.scan())
        assert payloads == sorted([b"C" * 15_000, b"small"])


class TestUpdate:
    def test_update_in_place_keeps_rid(self, heap):
        rid = heap.insert(b"a" * 100)
        new_rid = heap.update(rid, b"b" * 100)
        assert new_rid == rid
        assert heap.read(rid) == b"b" * 100

    def test_update_growing_beyond_page_moves(self, heap):
        rid = heap.insert(b"a" * 100)
        new_rid = heap.update(rid, b"c" * 20_000)
        assert heap.read(new_rid) == b"c" * 20_000

    def test_update_shrinking_spanned(self, heap):
        rid = heap.insert(b"d" * 20_000)
        new_rid = heap.update(rid, b"small now")
        assert heap.read(new_rid) == b"small now"


class TestReadMany:
    def test_results_and_order_match_record_id_order(self, heap):
        """Whole records come back in ``RecordId`` order, then spanned
        ones in the same order: one pin per page, results unchanged."""
        payloads = {}
        for i in range(120):
            body = (f"r{i}".encode() * 3000 if i % 17 == 0
                    else f"r{i}".encode() * (1 + i % 40))
            payloads[heap.insert(body)] = body
        rids = list(payloads) * 2
        random.Random(3).shuffle(rids)
        ordered = sorted(set(rids))  # the dataclass ordering
        whole = [rid for rid in ordered if len(payloads[rid]) < 3000]
        spanned = [rid for rid in ordered if len(payloads[rid]) >= 3000]
        assert spanned and len({rid.page_id for rid in whole}) > 1
        found = heap.read_many(rids)
        assert list(found) == whole + spanned
        assert found == {rid: payloads[rid] for rid in ordered}

    def test_missing_record_raises(self, heap):
        kept = heap.insert(b"y")
        rid = heap.insert(b"x")
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.read_many([kept, rid])


class TestScan:
    def test_scan_empty(self, heap):
        assert list(heap.scan()) == []

    def test_scan_returns_all_live_records(self, heap):
        keep = [heap.insert(f"k{i}".encode()) for i in range(5)]
        doomed = [heap.insert(f"d{i}".encode()) for i in range(5)]
        for rid in doomed:
            heap.delete(rid)
        found = dict(heap.scan())
        assert set(found) == set(keep)

    def test_segment_reopen_from_page_list(self, tmp_path):
        disk = DiskManager(tmp_path / "h.db")
        pool = BufferManager(disk, capacity=16)
        heap = HeapSegment(pool, "seg")
        rids = [heap.insert(f"v{i}".encode() * 10) for i in range(50)]
        pages = heap.pages
        pool.flush_all()
        reopened = HeapSegment(pool, "seg", pages)
        for index, rid in enumerate(rids):
            assert reopened.read(rid) == f"v{index}".encode() * 10
        disk.close()


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "update"]),
              st.integers(0, 30),
              st.binary(min_size=0, max_size=9000)),
    max_size=40))
def test_random_operations_match_model(tmp_path_factory, operations):
    """Heap behaves like a dict from rid to payload, spanning included."""
    directory = tmp_path_factory.mktemp("heapprop")
    disk = DiskManager(directory / "h.db")
    pool = BufferManager(disk, capacity=16)
    heap = HeapSegment(pool, "prop")
    model = {}
    for kind, key, payload in operations:
        if kind == "insert":
            rid = heap.insert(payload)
            assert rid not in model
            model[rid] = payload
        elif kind == "delete" and model:
            rid = sorted(model)[key % len(model)]
            heap.delete(rid)
            del model[rid]
        elif kind == "update" and model:
            rid = sorted(model)[key % len(model)]
            new_rid = heap.update(rid, payload)
            del model[rid]
            model[new_rid] = payload
    assert dict(heap.scan()) == model
    disk.close()
