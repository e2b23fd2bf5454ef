"""Tests for datatype inference (section 4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datatypes import (
    infer_datatype,
    infer_datatype_sampled,
    infer_value_type,
    is_value_compatible,
    join_types,
    join_value_type,
    join_value_types,
)
from repro.schema.model import DataType


class TestValueTypes:
    @pytest.mark.parametrize("value,expected", [
        (5, DataType.INTEGER),
        (-3, DataType.INTEGER),
        ("42", DataType.INTEGER),
        ("+7", DataType.INTEGER),
        (3.5, DataType.FLOAT),
        ("3.5", DataType.FLOAT),
        ("1e-3", DataType.FLOAT),
        (True, DataType.BOOLEAN),
        (False, DataType.BOOLEAN),
        ("true", DataType.BOOLEAN),
        ("FALSE", DataType.BOOLEAN),
        ("2024-01-31", DataType.DATE),
        ("19/12/1999", DataType.DATE),
        ("2024-01-31T10:30:00Z", DataType.TIMESTAMP),
        ("2024-01-31 10:30", DataType.TIMESTAMP),
        ("hello", DataType.STRING),
        ("2024-13-99-junk", DataType.STRING),
        (None, DataType.STRING),
    ])
    def test_individual_values(self, value, expected):
        assert infer_value_type(value) is expected

    def test_bool_checked_before_int(self):
        """bool is an int subclass; it must classify as BOOLEAN."""
        assert infer_value_type(True) is DataType.BOOLEAN

    def test_integer_valued_float_is_integer(self):
        """Paper: v in R \\ Z is float; 2.0 is in Z."""
        assert infer_value_type(2.0) is DataType.INTEGER


class TestCalendarValidation:
    """Shape-matching alone typed ``99/99/9999`` as DATE; the component
    ranges must be validated after the regex match."""

    @pytest.mark.parametrize("text", [
        "99/99/9999",
        "2024-13-45",
        "2024-00-10",   # month 0
        "2024-01-00",   # day 0
        "2024-01-32",   # day past any month
        "2024-04-31",   # April has 30 days
        "31/04/2024",   # DD/MM form of the same
        "00/01/2024",   # day 0, DMY
        "2023-02-29",   # not a leap year
        "1900-02-29",   # century non-leap year
    ])
    def test_invalid_dates_fall_back_to_string(self, text):
        assert infer_value_type(text) is DataType.STRING

    @pytest.mark.parametrize("text", [
        "2024-02-29",   # leap year
        "29/02/2024",   # DD/MM leap day
        "2000-02-29",   # divisible-by-400 leap year
        "2024-12-31",
        "01/01/1970",
        "19/12/1999",   # day > 12 disambiguates DD/MM
    ])
    def test_valid_dates_still_infer_date(self, text):
        assert infer_value_type(text) is DataType.DATE

    @pytest.mark.parametrize("text", [
        "2024-02-30T25:99",       # invalid date AND time components
        "2024-01-31T24:00",       # hour 24
        "2024-01-31T10:60",       # minute 60
        "2024-01-31T10:30:61",    # second 61
        "2024-13-01T10:00",       # invalid month under valid time
        "2023-02-29 10:30",       # non-leap date part
        "2024-01-31T10:30+25:00", # offset hour out of range
        "2024-01-31T10:30+05:61", # offset minute out of range
    ])
    def test_invalid_timestamps_fall_back_to_string(self, text):
        assert infer_value_type(text) is DataType.STRING

    @pytest.mark.parametrize("text", [
        "2024-02-29T23:59:59",
        "2024-02-29T23:59:59.999+05:30",
        "2024-01-31 10:30",
        "2024-12-31T00:00Z",
    ])
    def test_valid_timestamps_still_infer_timestamp(self, text):
        assert infer_value_type(text) is DataType.TIMESTAMP

    def test_invalid_dates_join_to_string_in_columns(self):
        values = ["2024-01-15", "99/99/9999"]
        assert infer_datatype(values) is DataType.STRING


class TestJoin:
    def test_int_float_joins_to_float(self):
        assert join_types(DataType.INTEGER, DataType.FLOAT) is DataType.FLOAT

    def test_date_timestamp_joins_to_timestamp(self):
        assert join_types(DataType.DATE, DataType.TIMESTAMP) is DataType.TIMESTAMP

    def test_incomparable_join_to_string(self):
        assert join_types(DataType.BOOLEAN, DataType.DATE) is DataType.STRING
        assert join_types(DataType.INTEGER, DataType.DATE) is DataType.STRING

    def test_unknown_is_identity(self):
        assert join_types(DataType.UNKNOWN, DataType.DATE) is DataType.DATE
        assert join_types(DataType.DATE, DataType.UNKNOWN) is DataType.DATE

    def test_join_idempotent(self):
        for datatype in DataType:
            if datatype is DataType.UNKNOWN:
                continue
            assert join_types(datatype, datatype) is datatype

    @given(st.sampled_from(list(DataType)), st.sampled_from(list(DataType)))
    def test_join_commutative(self, a, b):
        assert join_types(a, b) is join_types(b, a)


class TestInferDatatype:
    def test_homogeneous_ints(self):
        assert infer_datatype([1, 2, 3]) is DataType.INTEGER

    def test_mixed_numeric_generalizes(self):
        assert infer_datatype([1, 2.5]) is DataType.FLOAT

    def test_outlier_string_forces_string(self):
        assert infer_datatype([1, 2, "oops"]) is DataType.STRING

    def test_empty_is_unknown(self):
        assert infer_datatype([]) is DataType.UNKNOWN

    def test_dates(self):
        assert infer_datatype(["2020-01-01", "1999-12-19"]) is DataType.DATE

    @given(st.lists(st.one_of(
        st.integers(), st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(), st.text(max_size=12),
    ), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_inferred_type_compatible_with_every_value(self, values):
        """Soundness guarantee of section 4.7: all values conform."""
        inferred = infer_datatype(values)
        assert all(is_value_compatible(v, inferred) for v in values)


class TestSampledInference:
    def test_small_data_equals_full_scan(self):
        values = [1, 2, 3, "x"]
        assert infer_datatype_sampled(values, minimum=10) is infer_datatype(values)

    def test_sampling_can_miss_outliers(self):
        # 10,000 ints with a single trailing string outlier; a 100-value
        # sample will usually miss it.
        values = list(range(10_000)) + ["outlier"]
        sampled = infer_datatype_sampled(
            values, fraction=0.01, minimum=100, seed=3
        )
        full = infer_datatype(values)
        assert full is DataType.STRING
        assert sampled is DataType.INTEGER

    def test_empty(self):
        assert infer_datatype_sampled([]) is DataType.UNKNOWN


class TestCompatibility:
    def test_string_accepts_anything(self):
        assert is_value_compatible(object(), DataType.STRING)

    def test_int_value_compatible_with_float(self):
        assert is_value_compatible(3, DataType.FLOAT)

    def test_float_not_compatible_with_int(self):
        assert not is_value_compatible(3.7, DataType.INTEGER)

    def test_date_compatible_with_timestamp(self):
        assert is_value_compatible("2020-01-01", DataType.TIMESTAMP)


class TestListValues:
    def test_list_value_type(self):
        from repro.schema.model import DataType

        assert infer_value_type(["a", "b"]) is DataType.LIST
        assert infer_value_type(()) is DataType.LIST

    def test_homogeneous_lists(self):
        from repro.schema.model import DataType

        assert infer_datatype([["GR"], ["FR", "DE"]]) is DataType.LIST

    def test_list_mixed_with_scalar_generalizes(self):
        from repro.schema.model import DataType

        assert infer_datatype([["GR"], "plain"]) is DataType.STRING

    def test_list_compatibility(self):
        from repro.schema.model import DataType

        assert is_value_compatible(["x"], DataType.LIST)
        assert not is_value_compatible("x", DataType.LIST)

    def test_list_discovered_end_to_end(self):
        from repro.core.pipeline import PGHive
        from repro.graph.builder import GraphBuilder
        from repro.graph.store import GraphStore
        from repro.schema.model import DataType

        b = GraphBuilder()
        for i in range(5):
            b.node(["Officer"], {"country_codes": ["GR", "FR"][: 1 + i % 2]})
        result = PGHive().discover(GraphStore(b.build()))
        officer = result.schema.node_types["Officer"]
        assert officer.properties["country_codes"].datatype is DataType.LIST


def _two(low, high):
    return st.integers(low, high).map(lambda n: f"{n:02d}")


#: Calendar-shaped strings around every edge of the strict patterns:
#: months 00-13, days 00-31 (so Feb 29-31 in leap and other years),
#: hour 24, minute/second 60, tz offsets, Unicode digits, whitespace
#: and a trailing newline.
_YEARS = st.sampled_from(["2019", "2020", "1900", "2000", "0000", "9999",
                          "\u0662\u0660\u0662\u0660"])
_DATE_PARTS = st.tuples(_YEARS, _two(0, 13), _two(0, 31))
_TZ = st.sampled_from(["", "Z", "+05:30", "-0800", "+24:00", "+23:60",
                       "+0000", "-12", "z"])
_CLOCK = st.tuples(_two(0, 24), _two(0, 60),
                   st.sampled_from(["", ":00", ":59", ":60", ":07.5",
                                    ":07.", ".5"]), _TZ)
_PADDING = st.sampled_from(["", " ", "\n", "\t", "\u00a0"])


@st.composite
def _calendar_strings(draw):
    year, month, day = draw(_DATE_PARTS)
    shape = draw(st.sampled_from(["iso", "dmy", "timestamp"]))
    if shape == "iso":
        text = f"{year}-{month}-{day}"
    elif shape == "dmy":
        text = f"{day}/{month}/{year}"
    else:
        hour, minute, rest, tz = draw(_CLOCK)
        separator = draw(st.sampled_from(["T", " ", "t"]))
        text = f"{year}-{month}-{day}{separator}{hour}:{minute}{rest}{tz}"
    return draw(_PADDING) + text + draw(_PADDING)


_VALUES = st.one_of(
    _calendar_strings(),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=8),
    st.sampled_from(["12", "1.5", "true", "nan", "2020-02-29"]),
)
_CURRENT = st.sampled_from(list(DataType))


def _fold(current, values):
    for value in values:
        current = join_value_type(current, value)
    return current


class TestBulkJoin:
    """``join_value_types`` equals the per-value ``join_value_type`` fold."""

    @given(_calendar_strings())
    @settings(max_examples=400, deadline=None)
    def test_strict_shapes_classify_as_the_cascade(self, text):
        from repro.core.datatypes import _STRICT_DATE_RE, _STRICT_TIMESTAMP_RE

        if _STRICT_TIMESTAMP_RE.fullmatch(text):
            assert infer_value_type(text) is DataType.TIMESTAMP
        if _STRICT_DATE_RE.fullmatch(text):
            assert infer_value_type(text) is DataType.DATE

    @given(_CURRENT, st.lists(_calendar_strings(), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_calendar_runs(self, current, values):
        assert join_value_types(current, values) is _fold(current, values)

    @given(_CURRENT, st.lists(_VALUES, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_mixed_runs(self, current, values):
        assert join_value_types(current, values) is _fold(current, values)

    @given(_CURRENT, st.one_of(
        st.lists(st.integers(), max_size=12),
        st.lists(st.floats(), max_size=12),
        st.lists(st.booleans(), max_size=12),
    ))
    @settings(max_examples=200, deadline=None)
    def test_homogeneous_native_runs(self, current, values):
        assert join_value_types(current, values) is _fold(current, values)

    @pytest.mark.parametrize("values", [
        ["2020-01-01T10:00:00", " 2020-01-01T10:00:00"],
        ["2020-01-01T10:00:00", "2020-01-01T10:00:00\n"],
        ["\u0662\u0660\u0662\u0660-01-01", "2020-01-01"],
        ["2020-02-29", "2020-01-01"],
        ["2019-02-29", "2020-01-01"],
        ["2020-01-31", "2020-04-31"],
        ["2020-01-01T24:00:00"],
        ["2020-01-01T23:59:59+05:30", "2020-01-01T00:00-0800"],
        ["2020-01-01T10:00+24:00"],
        ["2020-01-01", "2020-01-01T10:00:00Z"],
        [True, 1.0, 2],
        [1.0, 2.5, False],
        [[1], 2.0],
        [1, 2.0],
        [float("nan"), 1.0],
        [float("inf")],
    ])
    @pytest.mark.parametrize("current", list(DataType))
    def test_edges(self, current, values):
        assert join_value_types(current, values) is _fold(current, values)
