"""Tests for attribute data types."""

import pytest

from repro.core.datatypes import DataType, parse_datatype
from repro.errors import TypeMismatchError
from repro.storage.serialization import FieldType


class TestValidation:
    def test_int(self):
        assert DataType.INT.validate("a", 5) == 5
        with pytest.raises(TypeMismatchError):
            DataType.INT.validate("a", 5.0)
        with pytest.raises(TypeMismatchError):
            DataType.INT.validate("a", True)

    def test_float_widening(self):
        assert DataType.FLOAT.validate("a", 5) == 5.0
        assert isinstance(DataType.FLOAT.validate("a", 5), float)
        with pytest.raises(TypeMismatchError):
            DataType.FLOAT.validate("a", "5")

    def test_string(self):
        assert DataType.STRING.validate("a", "x") == "x"
        with pytest.raises(TypeMismatchError):
            DataType.STRING.validate("a", 5)
        with pytest.raises(TypeMismatchError):
            DataType.STRING.validate("a", "x\ud800")  # not UTF-8

    def test_bool(self):
        assert DataType.BOOL.validate("a", True) is True
        with pytest.raises(TypeMismatchError):
            DataType.BOOL.validate("a", 1)

    def test_time(self):
        assert DataType.TIME.validate("a", -100) == -100
        with pytest.raises(TypeMismatchError):
            DataType.TIME.validate("a", 1.5)

    def test_none_passes_all(self):
        for data_type in DataType:
            assert data_type.validate("a", None) is None

    def test_error_names_attribute(self):
        with pytest.raises(TypeMismatchError, match="'price'"):
            DataType.INT.validate("price", "cheap")


class TestMappings:
    def test_field_types(self):
        assert DataType.INT.field_type is FieldType.INT
        assert DataType.FLOAT.field_type is FieldType.FLOAT
        assert DataType.STRING.field_type is FieldType.STRING
        assert DataType.BOOL.field_type is FieldType.BOOL
        assert DataType.TIME.field_type is FieldType.TIME

    def test_key_widths(self):
        assert DataType.INT.key_width == 8
        assert DataType.BOOL.key_width == 1
        assert DataType.STRING.key_width == 16

    def test_encode_key_lossiness(self):
        _, lossy = DataType.STRING.encode_key("short")
        assert not lossy
        _, lossy = DataType.STRING.encode_key("x" * 40)
        assert lossy
        _, lossy = DataType.INT.encode_key(5)
        assert not lossy

    def test_encode_key_order(self):
        low, _ = DataType.FLOAT.encode_key(1.5)
        high, _ = DataType.FLOAT.encode_key(2.5)
        assert low < high


class TestParsing:
    def test_round_trip_names(self):
        for data_type in DataType:
            assert parse_datatype(data_type.value) is data_type

    def test_case_insensitive(self):
        assert parse_datatype("INT") is DataType.INT

    def test_unknown_rejected(self):
        with pytest.raises(TypeMismatchError):
            parse_datatype("varchar")
