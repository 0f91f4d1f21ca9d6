"""Tests for the version codec (model objects to store payloads)."""

import dataclasses

import pytest

from repro.core.codec import VersionCodec
from repro.core.version import Version
from repro.errors import SerializationError, UnknownTypeError
from repro.temporal import FOREVER, Interval


@pytest.fixture
def codec(cad_schema):
    return VersionCodec(cad_schema)


def make_version(values=None, refs=None, vt=(0, 10), tt=(3, FOREVER)):
    return Version(Interval(*vt), Interval(*tt), values or {}, refs or {})


class TestRoundTrip:
    def test_values_and_times(self, codec):
        version = make_version({"name": "wheel", "cost": 2.5,
                                "released": True})
        stored = codec.encode("Part", version)
        assert stored.vt_start == 0 and stored.vt_end == 10
        assert stored.live
        assert codec.decode(stored) == ("Part", version)

    def test_closed_version_not_live(self, codec):
        version = make_version(tt=(1, 7))
        stored = codec.encode("Part", version)
        assert not stored.live
        assert codec.decode(stored)[1].tt == Interval(1, 7)

    def test_refs_round_trip(self, codec):
        version = make_version(
            {"name": "x"},
            {"contains.out": frozenset({9, 3, 7})})
        _, decoded = codec.decode(codec.encode("Part", version))
        assert decoded.refs["contains.out"] == frozenset({3, 7, 9})

    def test_in_refs(self, codec):
        version = make_version({"cname": "hub"},
                               {"contains.in": frozenset({1}),
                                "supplied_by.out": frozenset({5})})
        _, decoded = codec.decode(codec.encode("Component", version))
        assert decoded.refs == {"contains.in": frozenset({1}),
                                "supplied_by.out": frozenset({5})}

    def test_null_values(self, codec):
        version = make_version({"name": "x", "cost": None,
                                "released": None})
        _, decoded = codec.decode(codec.encode("Part", version))
        assert decoded.values["cost"] is None

    def test_empty_refs_dropped(self, codec):
        version = make_version({"name": "x"},
                               {"contains.out": frozenset()})
        _, decoded = codec.decode(codec.encode("Part", version))
        assert decoded.refs == {}


class TestRefKeys:
    def test_part_ref_keys(self, codec):
        assert codec.ref_keys("Part") == ["contains.out"]

    def test_component_has_both_directions(self, codec):
        assert set(codec.ref_keys("Component")) == {"contains.in",
                                                    "supplied_by.out"}

    def test_supplier_only_in(self, codec):
        assert codec.ref_keys("Supplier") == ["supplied_by.in"]


class TestErrors:
    def test_unknown_type_rejected(self, codec):
        with pytest.raises(SerializationError):
            codec.encode("Mystery", make_version())
        stored = codec.encode("Part", make_version({"name": "x"}))
        with pytest.raises(UnknownTypeError):
            codec.decode(dataclasses.replace(
                stored, payload=b"\xff\xff" + stored.payload[2:]))

    def test_payload_carries_its_type(self, codec):
        stored = codec.encode("Supplier", make_version({"sname": "s"}))
        assert codec.type_name(stored.payload) == "Supplier"
        assert codec.peek("Supplier", stored.payload, ("sname",)) == {
            "sname": "s"}
        assert codec.peek("Part", stored.payload, ("name",)) is None

    def test_self_link_schema(self):
        from repro import AtomType, Attribute, DataType, LinkType, Schema
        schema = Schema("s")
        schema.add_atom_type(AtomType("Part", [
            Attribute("name", DataType.STRING)]))
        schema.add_link_type(LinkType("part_of", "Part", "Part"))
        codec = VersionCodec(schema)
        assert set(codec.ref_keys("Part")) == {"part_of.out", "part_of.in"}
        version = make_version({"name": "x"},
                               {"part_of.out": frozenset({2}),
                                "part_of.in": frozenset({3})})
        _, decoded = codec.decode(codec.encode("Part", version))
        assert decoded.refs == {"part_of.out": frozenset({2}),
                                "part_of.in": frozenset({3})}
