"""Tests for the slotted page layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, PageFullError
from repro.storage.slotted import RESERVED_BYTES, SlottedPage

PAGE_SIZE = 512


@pytest.fixture
def page():
    return SlottedPage.format(bytearray(PAGE_SIZE))


class TestBasics:
    def test_insert_and_read(self, page):
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records(self, page):
        slots = [page.insert(f"rec-{i}".encode()) for i in range(5)]
        for index, slot in enumerate(slots):
            assert page.read(slot) == f"rec-{index}".encode()

    def test_empty_record(self, page):
        slot = page.insert(b"")
        assert page.read(slot) == b""

    def test_capacity_record_fits(self):
        page = SlottedPage.format(bytearray(PAGE_SIZE))
        big = b"x" * SlottedPage.capacity(PAGE_SIZE)
        slot = page.insert(big)
        assert page.read(slot) == big

    def test_oversized_record_rejected(self, page):
        with pytest.raises(PageFullError):
            page.insert(b"x" * (SlottedPage.capacity(PAGE_SIZE) + 1))

    def test_reserved_area_untouched(self):
        data = bytearray(PAGE_SIZE)
        page = SlottedPage.format(data)
        data[:RESERVED_BYTES] = b"R" * RESERVED_BYTES
        page.insert(b"x" * 100)
        page.insert(b"y" * 100)
        assert bytes(data[:RESERVED_BYTES]) == b"R" * RESERVED_BYTES


class TestDelete:
    def test_delete_frees_slot(self, page):
        slot = page.insert(b"doomed")
        page.delete(slot)
        with pytest.raises(PageError):
            page.read(slot)

    def test_deleted_slot_is_reused(self, page):
        a = page.insert(b"a")
        page.insert(b"b")
        page.delete(a)
        again = page.insert(b"c")
        assert again == a

    def test_delete_twice_rejected(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(PageError):
            page.delete(slot)

    def test_bad_slot_rejected(self, page):
        with pytest.raises(PageError):
            page.read(17)

    def test_iter_slots_skips_deleted(self, page):
        slots = [page.insert(bytes([i])) for i in range(4)]
        page.delete(slots[1])
        assert list(page.iter_slots()) == [slots[0], slots[2], slots[3]]


class TestUpdate:
    def test_shrinking_update_in_place(self, page):
        slot = page.insert(b"a much longer record body")
        page.update(slot, b"short")
        assert page.read(slot) == b"short"

    def test_growing_update(self, page):
        slot = page.insert(b"tiny")
        page.update(slot, b"g" * 200)
        assert page.read(slot) == b"g" * 200

    def test_update_keeps_slot_number(self, page):
        a = page.insert(b"a" * 50)
        b = page.insert(b"b" * 50)
        page.update(a, b"A" * 150)
        assert page.read(a) == b"A" * 150
        assert page.read(b) == b"b" * 50

    def test_growing_update_reuses_its_own_space(self, page):
        a = page.insert(b"a" * 200)
        b = page.insert(b"b" * 200)
        # 84 bytes free: the grown record fits only in its old image's
        # space plus the gap, which takes a compaction.
        page.update(a, b"A" * 250)
        assert page.read(a) == b"A" * 250
        assert page.read(b) == b"b" * 200
        # Header, two slots and the next insert's slot are charged.
        assert page.free_space() == PAGE_SIZE - RESERVED_BYTES - 4 - 12 - 450

    def test_growing_update_beyond_capacity_rejected(self, page):
        slot = page.insert(b"x")
        with pytest.raises(PageFullError):
            page.update(slot, b"y" * PAGE_SIZE)
        assert page.read(slot) == b"x"  # rolled back


class TestCompaction:
    def test_space_reclaimed_after_deletes(self, page):
        chunk = SlottedPage.capacity(PAGE_SIZE) // 4
        slots = [page.insert(b"x" * chunk) for _ in range(3)]
        for slot in slots:
            page.delete(slot)
        big = b"y" * (chunk * 3)
        slot = page.insert(big)  # requires compaction to fit contiguously
        assert page.read(slot) == big

    def test_interleaved_delete_then_fill(self, page):
        chunk = 60
        slots = [page.insert(bytes([i]) * chunk) for i in range(6)]
        for slot in slots[::2]:
            page.delete(slot)
        survivors = {slot: page.read(slot) for slot in slots[1::2]}
        page.insert(b"z" * (chunk * 2))  # forces compaction
        for slot, expected in survivors.items():
            assert page.read(slot) == expected

    def test_explicit_compact_preserves_records(self, page):
        slots = {page.insert(f"r{i}".encode() * 3): f"r{i}".encode() * 3
                 for i in range(5)}
        page.compact()
        for slot, expected in slots.items():
            assert page.read(slot) == expected


class TestFreeSpace:
    def test_free_space_decreases_on_insert(self, page):
        before = page.free_space()
        page.insert(b"x" * 100)
        assert page.free_space() <= before - 100

    def test_free_space_recovers_on_delete(self, page):
        baseline = page.free_space()
        slot = page.insert(b"x" * 100)
        page.delete(slot)
        assert page.free_space() == baseline

    def test_live_records_count(self, page):
        page.insert(b"a")
        slot = page.insert(b"b")
        page.delete(slot)
        assert page.live_records() == 1


# Model of the layout's space accounting: the directory never shrinks
# (slot numbers are stable), each slot costs 4 bytes, live records cost
# their length, and a dead slot is reused before the directory grows.
_DIRECTORY_AT = RESERVED_BYTES + 4
_SLOT_BYTES = 4


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "update"]),
                          st.integers(0, 20),
                          st.one_of(st.just(b""), st.binary(max_size=60))),
                max_size=60))
def test_random_operations_match_model(operations):
    """The slotted page behaves like a dict from slot to payload, and its
    space accounting matches a byte-exact model after every step."""
    page = SlottedPage.format(bytearray(PAGE_SIZE))
    model = {}
    num_slots = 0
    for kind, key, payload in operations:
        free = (PAGE_SIZE - _DIRECTORY_AT - _SLOT_BYTES * num_slots
                - sum(map(len, model.values())))
        dead = [slot for slot in range(num_slots) if slot not in model]
        slot_cost = 0 if dead else _SLOT_BYTES
        if kind == "insert":
            fits = len(payload) + slot_cost <= free
            try:
                slot = page.insert(payload)
            except PageFullError:
                assert not fits
                continue
            assert fits
            assert slot == (dead[0] if dead else num_slots)
            num_slots = max(num_slots, slot + 1)
            model[slot] = payload
        elif kind == "delete" and model:
            slot = sorted(model)[key % len(model)]
            page.delete(slot)
            del model[slot]
        elif kind == "update" and model:
            slot = sorted(model)[key % len(model)]
            fits = len(payload) <= free + len(model[slot])
            try:
                page.update(slot, payload)
            except PageFullError:
                assert not fits
                assert page.read(slot) == model[slot]
                continue
            assert fits
            model[slot] = payload
        free = (PAGE_SIZE - _DIRECTORY_AT - _SLOT_BYTES * num_slots
                - sum(map(len, model.values())))
        has_dead = len(model) < num_slots
        assert page.num_slots == num_slots
        assert page.live_records() == len(model)
        assert page.free_space() == max(
            0, free - (0 if has_dead else _SLOT_BYTES))
    assert {slot: page.read(slot) for slot in page.iter_slots()} == model
