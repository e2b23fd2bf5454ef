"""Property datatype inference (paper section 4.4).

A priority-based scheme: INTEGER before FLOAT before BOOLEAN before
DATE/TIMESTAMP (format regexes plus calendar-range validation, so
impossible literals like ``2024-13-45`` stay STRING) before the STRING
fallback.  The
type of a *property* is the most specific type compatible with all of its
observed values, computed by joining per-value types in a small
generalization lattice (INTEGER < FLOAT < STRING; BOOLEAN < STRING;
DATE < TIMESTAMP < STRING).

``infer_datatype_sampled`` implements the paper's optional sampling mode:
inspect 10 % of the values but at least 1000 (section 4.4), falling back to
STRING-compatible generalization exactly like the full scan.
"""

from __future__ import annotations

import random
import re
from typing import Any, Iterable, Sequence

from repro.schema.model import DataType

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_BOOL_LITERALS = {"true", "false"}
# ISO dates plus the DD/MM/YYYY form of the paper's Example 7.  The
# regexes only check shape; the component ranges (month 1-12, day valid
# for the month including leap years, hour/minute/second in range) are
# validated afterwards so that "2024-13-45" or "99/99/9999" fall back to
# STRING instead of declaring a DATE the instance does not satisfy.
_DATE_ISO_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_DATE_DMY_RE = re.compile(r"^(\d{2})/(\d{2})/(\d{4})$")
_TIMESTAMP_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2})(?::(\d{2})(?:\.\d+)?)?"
    r"(?:Z|[+-](\d{2}):?(\d{2}))?$"
)

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# Strict ASCII shapes for bulk classification: every full match is a
# literal the cascade classifies as TIMESTAMP (resp. DATE).  Days stop
# at 28, valid in every month of every year, and every other component
# is range-checked by the pattern itself; anything else (whitespace,
# non-ASCII digits, days 29-31, hour 24, a trailing newline) falls back
# to the per-value cascade.
_STRICT_DAY = r"(?:0[1-9]|1[0-9]|2[0-8])"
_STRICT_MONTH = r"(?:0[1-9]|1[0-2])"
_STRICT_ISO_DATE = rf"[0-9]{{4}}-{_STRICT_MONTH}-{_STRICT_DAY}"
_STRICT_TIMESTAMP_RE = re.compile(
    rf"{_STRICT_ISO_DATE}[T ](?:[01][0-9]|2[0-3]):[0-5][0-9]"
    r"(?::[0-5][0-9](?:\.[0-9]+)?)?"
    r"(?:Z|[+-](?:[01][0-9]|2[0-3]):?[0-5][0-9])?"
)
_STRICT_DATE_RE = re.compile(
    rf"{_STRICT_ISO_DATE}|{_STRICT_DAY}/{_STRICT_MONTH}/[0-9]{{4}}"
)


def _is_leap_year(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _valid_calendar_date(year: int, month: int, day: int) -> bool:
    """Whether (year, month, day) names a real calendar date."""
    if not 1 <= month <= 12:
        return False
    days = _DAYS_IN_MONTH[month - 1]
    if month == 2 and _is_leap_year(year):
        days = 29
    return 1 <= day <= days


def _is_date(text: str) -> bool:
    """Shape *and* calendar validity of a date literal."""
    match = _DATE_ISO_RE.match(text)
    if match is not None:
        return _valid_calendar_date(
            int(match[1]), int(match[2]), int(match[3])
        )
    match = _DATE_DMY_RE.match(text)
    if match is not None:
        return _valid_calendar_date(
            int(match[3]), int(match[2]), int(match[1])
        )
    return False


def _is_timestamp(text: str) -> bool:
    """Shape and component validity of a timestamp literal."""
    match = _TIMESTAMP_RE.match(text)
    if match is None:
        return False
    if not _valid_calendar_date(int(match[1]), int(match[2]), int(match[3])):
        return False
    hour, minute = int(match[4]), int(match[5])
    second = int(match[6]) if match[6] else 0
    if hour > 23 or minute > 59 or second > 59:
        return False
    if match[7] and (int(match[7]) > 23 or int(match[8]) > 59):
        return False
    return True

# Generalization lattice: child -> parent (STRING is the top element).
# LIST (Neo4j array properties) sits directly under STRING: joining a list
# with any scalar type generalizes to STRING.
_PARENT: dict[DataType, DataType] = {
    DataType.INTEGER: DataType.FLOAT,
    DataType.FLOAT: DataType.STRING,
    DataType.BOOLEAN: DataType.STRING,
    DataType.DATE: DataType.TIMESTAMP,
    DataType.TIMESTAMP: DataType.STRING,
    DataType.LIST: DataType.STRING,
    DataType.STRING: DataType.STRING,
}


def infer_value_type(value: Any) -> DataType:
    """Most specific datatype of a single value.

    Python native types are trusted directly (``bool`` is checked before
    ``int`` since it subclasses it); strings go through the priority regex
    cascade of section 4.4.
    """
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.INTEGER if value.is_integer() else DataType.FLOAT
    if isinstance(value, (list, tuple)):
        return DataType.LIST
    if isinstance(value, str):
        text = value.strip()
        if _INT_RE.match(text):
            return DataType.INTEGER
        if _FLOAT_RE.match(text):
            return DataType.FLOAT
        if text.lower() in _BOOL_LITERALS:
            return DataType.BOOLEAN
        if _is_date(text):
            return DataType.DATE
        if _is_timestamp(text):
            return DataType.TIMESTAMP
        return DataType.STRING
    return DataType.STRING


def join_value_type(current: DataType, value: Any) -> DataType:
    """``join_types(current, infer_value_type(value))``, cheaper on strings.

    A string is tested first against the current lattice element when
    that is DATE or TIMESTAMP, skipping the cascade's integer, float and
    boolean patterns.  The shortcut is exact: a valid date or timestamp
    matches none of those patterns, nor the other temporal shape, so the
    cascade would classify it the same way.
    """
    if type(value) is str:
        if current is DataType.TIMESTAMP:
            if _is_timestamp(value.strip()):
                return current
        elif current is DataType.DATE:
            if _is_date(value.strip()):
                return current
    return join_types(current, infer_value_type(value))


def join_value_types(current: DataType, values: Sequence[Any]) -> DataType:
    """:func:`join_value_type` folded over ``values``, in bulk when it can.

    A value's lattice element depends on the value alone, so a run of
    one exact type joins at once: all ``int`` is INTEGER; all ``float``
    is FLOAT when any value is non-integral, else INTEGER; all ``str``
    matching the strict timestamp (or date) shape is TIMESTAMP (DATE).
    Any other run folds value by value, stopping at STRING, the top.
    """
    if current is DataType.STRING or not values:
        return current
    kinds = set(map(type, values))
    if kinds == {int}:
        return join_types(current, DataType.INTEGER)
    if kinds == {float}:
        integral = all(map(float.is_integer, values))
        return join_types(
            current, DataType.INTEGER if integral else DataType.FLOAT
        )
    if kinds == {str}:
        if all(map(_STRICT_TIMESTAMP_RE.fullmatch, values)):
            return join_types(current, DataType.TIMESTAMP)
        if all(map(_STRICT_DATE_RE.fullmatch, values)):
            return join_types(current, DataType.DATE)
    for value in values:
        if current is DataType.STRING:
            break
        current = join_value_type(current, value)
    return current


def join_types(a: DataType, b: DataType) -> DataType:
    """Least upper bound of two datatypes in the generalization lattice."""
    if a is DataType.UNKNOWN:
        return b
    if b is DataType.UNKNOWN or a is b:
        return a
    ancestors_a = _ancestors(a)
    current = b
    while current not in ancestors_a:
        current = _PARENT[current]
    return current


def _ancestors(datatype: DataType) -> set[DataType]:
    """The value itself plus everything above it in the lattice."""
    out = {datatype}
    current = datatype
    while current is not DataType.STRING:
        current = _PARENT[current]
        out.add(current)
    return out


def infer_datatype(values: Iterable[Any]) -> DataType:
    """Most specific datatype compatible with every value (full scan)."""
    result = DataType.UNKNOWN
    for value in values:
        result = join_types(result, infer_value_type(value))
        if result is DataType.STRING:
            break  # top of the lattice; no point scanning further
    return result


def infer_datatype_sampled(
    values: Sequence[Any],
    fraction: float = 0.1,
    minimum: int = 1000,
    seed: int = 0,
) -> DataType:
    """Datatype from a random sample of the values (paper's fast mode).

    Takes ``max(minimum, fraction * len(values))`` values (all of them if
    fewer exist).  Cheaper than the full scan but can miss outliers, which
    is exactly the error the paper quantifies in Figure 8.
    """
    if not values:
        return DataType.UNKNOWN
    target = max(minimum, int(round(fraction * len(values))))
    if target >= len(values):
        sample: Sequence[Any] = values
    else:
        sample = random.Random(seed).sample(list(values), target)
    return infer_datatype(sample)


def is_value_compatible(value: Any, datatype: DataType) -> bool:
    """True when a value conforms to (or specializes) a declared datatype."""
    if datatype in (DataType.UNKNOWN, DataType.STRING):
        return True
    return datatype in _ancestors(infer_value_type(value))
