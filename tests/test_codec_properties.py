"""Property-based codec tests: round-trips over generated schemas."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AtomType, Attribute, DataType, LinkType, Schema
from repro.core.codec import VersionCodec
from repro.core.version import Version
from repro.temporal import FOREVER, Interval

_DATATYPES = list(DataType)


@st.composite
def schemas(draw):
    """A random schema of 1-3 atom types with random attributes/links."""
    schema = Schema("prop")
    type_count = draw(st.integers(1, 3))
    names = [f"T{i}" for i in range(type_count)]
    for name in names:
        attr_count = draw(st.integers(0, 5))
        attributes = [
            Attribute(f"a{i}", draw(st.sampled_from(_DATATYPES)))
            for i in range(attr_count)
        ]
        schema.add_atom_type(AtomType(name, attributes))
    link_count = draw(st.integers(0, 3))
    for index in range(link_count):
        schema.add_link_type(LinkType(
            f"l{index}", draw(st.sampled_from(names)),
            draw(st.sampled_from(names))))
    return schema


def _value_strategy(data_type):
    if data_type in (DataType.INT, DataType.TIME):
        return st.integers(min_value=-(2**62), max_value=2**62)
    if data_type is DataType.FLOAT:
        return st.floats(allow_nan=False, allow_infinity=False, width=64)
    if data_type is DataType.STRING:
        return st.text(max_size=30)
    return st.booleans()


@st.composite
def versions_for(draw, schema, type_name):
    atom_type = schema.atom_type(type_name)
    codec_keys = VersionCodec(schema).ref_keys(type_name)
    values = {}
    for attribute in atom_type.attributes:
        if draw(st.booleans()):
            values[attribute.name] = draw(
                _value_strategy(attribute.data_type))
        else:
            values[attribute.name] = None
    refs = {}
    for key in codec_keys:
        partners = draw(st.frozensets(
            st.integers(min_value=1, max_value=10**9), max_size=5))
        if partners:
            refs[key] = partners
    vt_start = draw(st.integers(-1000, 1000))
    vt_end = draw(st.integers(vt_start + 1, 2000))
    tt_start = draw(st.integers(0, 1000))
    tt_end = draw(st.one_of(st.just(FOREVER),
                            st.integers(tt_start + 1, 2000)))
    return Version(Interval(vt_start, vt_end), Interval(tt_start, tt_end),
                   values, refs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_codec_round_trips_any_schema(data):
    schema = data.draw(schemas())
    codec = VersionCodec(schema)
    type_name = data.draw(st.sampled_from(
        [atom_type.name for atom_type in schema.atom_types]))
    version = data.draw(versions_for(schema, type_name))
    stored = codec.encode(type_name, version)
    assert codec.decode(stored) == (type_name, version)
    assert stored.live == version.live
    assert (stored.vt_start, stored.vt_end) == (version.vt.start,
                                                version.vt.end)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_codec_through_engine_prefix(tmp_path_factory, data):
    """A database's codec round-trips its type-prefixed payloads."""
    from repro import DatabaseConfig, TemporalDatabase

    schema = data.draw(schemas())
    type_name = data.draw(st.sampled_from(
        [atom_type.name for atom_type in schema.atom_types]))
    version = data.draw(versions_for(schema, type_name))
    path = tmp_path_factory.mktemp("codecprop")
    db = TemporalDatabase.create(str(path / "db"), schema)
    codec = db.engine.codec
    stored = codec.encode(type_name, version)
    assert codec.type_name(stored.payload) == type_name
    assert codec.decode(stored) == (type_name, version)
    db.close()
