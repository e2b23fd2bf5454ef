"""Value profiles: enumerations and bounded ranges (paper future work).

Section 4.4 leaves "the identification of more detailed datatypes, such as
enumerated types or bounded ranges" for future work.  This module
implements both:

* **enumerations** -- a property whose observed values come from a small
  closed set (at most ``enum_cap`` distinct values and no more than
  ``enum_ratio`` of the observation count) is profiled as an ENUM of those
  values;
* **bounded ranges** -- numeric properties get (min, max) bounds, and
  temporal properties get (earliest, latest) bounds.

Profiles attach to :class:`~repro.schema.model.PropertySpec` and render in
the STRICT PG-Schema output, e.g. ``status STRING /* enum {open, closed}
*/`` or ``age INT /* range 0..120 */``.

:class:`PropertyPartial` is the *mergeable* form of the same statistics:
parallel shard workers accumulate one partial per (type, property key),
the schema merge folds them with :meth:`PropertyPartial.merge`, and
:meth:`PropertyPartial.to_profile` reconstructs the exact profile a
serial :func:`profile_values` scan over the concatenated values would
produce.  Every constituent statistic is an associative, commutative
fold (count sum, set union, canonical min/max), so the result is
independent of shard count and merge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.datatypes import (
    infer_datatype,
    join_types,
    join_value_type,
    join_value_types,
)
from repro.schema.model import DataType

_DEFAULT_ENUM_CAP = 12
_DEFAULT_ENUM_RATIO = 0.5
_NUMERIC = (DataType.INTEGER, DataType.FLOAT)
_TEMPORAL = (DataType.DATE, DataType.TIMESTAMP)


@dataclass(frozen=True, slots=True)
class ValueProfile:
    """Refined description of a property's value domain.

    Attributes:
        is_enum: True when the value domain is a small closed set.
        enum_values: The sorted enum members (empty unless ``is_enum``).
        minimum / maximum: Range bounds for numeric or temporal properties
            (``None`` when not applicable).
        distinct_count: Number of distinct observed values.
        observation_count: Number of observed values.
    """

    is_enum: bool = False
    enum_values: tuple[bool | int | float | str | None, ...] = ()
    minimum: int | float | str | None = None
    maximum: int | float | str | None = None
    distinct_count: int = 0
    observation_count: int = 0

    def render(self) -> str:
        """Annotation text for serializers; empty when nothing applies."""
        if self.is_enum:
            members = ", ".join(str(v) for v in self.enum_values)
            return f"enum {{{members}}}"
        if self.minimum is not None and self.maximum is not None:
            return f"range {self.minimum}..{self.maximum}"
        return ""


def profile_values(
    values: Sequence[Any],
    enum_cap: int = _DEFAULT_ENUM_CAP,
    enum_ratio: float = _DEFAULT_ENUM_RATIO,
    datatype: DataType | None = None,
) -> ValueProfile:
    """Analyze a property's observed values.

    Args:
        values: All (or sampled) values of one property.
        enum_cap: Maximum distinct values for an enumeration.
        enum_ratio: Distinct/observed ratio ceiling -- a property with ten
            values, all distinct, is not an enum; one with three distinct
            values over a thousand observations is.
        datatype: The property's inferred datatype (computed if omitted).
    """
    if not values:
        return ValueProfile()
    if datatype is None or datatype is DataType.UNKNOWN:
        datatype = infer_datatype(values)
    hashable = [_freeze(v) for v in values]
    distinct = set(hashable)
    is_enum = (
        len(distinct) <= enum_cap
        and len(distinct) <= max(1, int(enum_ratio * len(values)))
        and datatype in (DataType.STRING, DataType.BOOLEAN, DataType.INTEGER)
    )
    enum_values: tuple[bool | int | float | str | None, ...] = ()
    if is_enum:
        enum_values = _thaw_sorted(distinct)
    minimum = maximum = None
    if datatype in _NUMERIC:
        numeric = [v for v in values if isinstance(v, (int, float))
                   and not isinstance(v, bool)]
        numeric += [
            number
            for number in (
                _parse_number(v) for v in values if isinstance(v, str)
            )
            if number is not None
        ]
        if numeric:
            minimum = min(numeric, key=_numeric_sort_key)
            maximum = max(numeric, key=_numeric_sort_key)
    elif datatype in _TEMPORAL:
        temporal = sorted(str(v) for v in values)
        minimum, maximum = temporal[0], temporal[-1]
    return ValueProfile(
        is_enum=is_enum,
        enum_values=enum_values,
        minimum=minimum,
        maximum=maximum,
        distinct_count=len(distinct),
        observation_count=len(values),
    )


@dataclass
class PropertyPartial:
    """Mergeable per-shard statistics of one property's values.

    A worker observes each value exactly once; the driver folds partials
    from different shards with :meth:`merge`.  All fields are commutative
    monoid folds, so any merge order over any sharding of the same value
    multiset reaches the same state:

    * ``datatype`` -- shard-local lattice join
      (:func:`~repro.core.datatypes.join_types` is associative and
      commutative, so per-shard joins fold exactly);
    * ``observations`` / ``distinct`` -- count sum and union of frozen
      values (the enum-candidate sketch);
    * ``numeric_min`` / ``numeric_max`` -- bounds over native numbers and
      numeric strings under the canonical :func:`_numeric_sort_key`
      order (tie between an equal int and float resolves the same way
      everywhere);
    * ``text_min`` / ``text_max`` -- lexicographic bounds over ``str(v)``
      of *all* values, consulted only when the final datatype turns out
      temporal (temporal datatypes only arise from all-string values, so
      these equal the serial temporal bounds).
    """

    datatype: DataType = DataType.UNKNOWN
    observations: int = 0
    distinct: set[tuple[str, bool | int | float | str | None]] = field(
        default_factory=set
    )
    numeric_min: int | float | None = None
    numeric_max: int | float | None = None
    text_min: str | None = None
    text_max: str | None = None

    def observe_datatype(self, value: Any) -> None:
        """Fold only the datatype lattice and the observation count.

        The bounded-memory form used when value profiles are disabled:
        retaining the distinct-value sketch and the min/max bounds would
        make the driver-side stats merge O(data) -- the whole value
        multiset rides the shard schemas home -- for statistics
        :func:`~repro.core.postprocess.apply_partial_stats` then never
        reads.  Datatype and count are all the profile-less passes
        consume, and both stay exact.  STRING is the lattice top, so
        once reached no value can change it and none is classified, as
        :func:`~repro.core.datatypes.infer_datatype` stops there too.
        A string is first tested against the current element
        (:func:`~repro.core.datatypes.join_value_type`), so a run of
        timestamps costs one pattern each, not the whole cascade.
        """
        if self.datatype is not DataType.STRING:
            self.datatype = join_value_type(self.datatype, value)
        self.observations += 1

    def observe(self, value: Any) -> None:
        """Fold one observed value into the partial."""
        self.observe_datatype(value)
        self.distinct.add(_freeze(value))
        if isinstance(value, str):
            self._observe_number(_parse_number(value))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            self._observe_number(value)
        self._observe_text(str(value))

    def observe_all(
        self, values: Sequence[Any], track_values: bool = True
    ) -> None:
        """Fold a sequence of observed values, in order.

        The same state as :meth:`observe` (or, with ``track_values``
        off, :meth:`observe_datatype`) per value; the datatype joins a
        homogeneous run in bulk
        (:func:`~repro.core.datatypes.join_value_types`).  Numeric
        bounds fold value by value: a NaN (``float("nan")`` parses from
        ``"Nan"``) compares false both ways, so a min-then-fold would
        not be exact.
        """
        self.datatype = join_value_types(self.datatype, values)
        self.observations += len(values)
        if not track_values:
            return
        self.distinct.update(map(_freeze, values))
        for value in values:
            if isinstance(value, str):
                self._observe_number(_parse_number(value))
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                self._observe_number(value)
        texts = [str(value) for value in values]
        self._observe_text(min(texts, default=None))
        self._observe_text(max(texts, default=None))

    def _observe_number(self, number: int | float | None) -> None:
        """Widen the numeric bounds to ``number`` (strict comparisons)."""
        if number is None:
            return
        if (
            self.numeric_min is None
            or _numeric_sort_key(number) < _numeric_sort_key(self.numeric_min)
        ):
            self.numeric_min = number
        if (
            self.numeric_max is None
            or _numeric_sort_key(number) > _numeric_sort_key(self.numeric_max)
        ):
            self.numeric_max = number

    def _observe_text(self, text: str | None) -> None:
        """Widen the text bounds to ``text``."""
        if text is None:
            return
        if self.text_min is None or text < self.text_min:
            self.text_min = text
        if self.text_max is None or text > self.text_max:
            self.text_max = text

    def merge(self, other: "PropertyPartial") -> "PropertyPartial":
        """Fold another shard's partial into this one (returns self)."""
        self.datatype = join_types(self.datatype, other.datatype)
        self.observations += other.observations
        self.distinct |= other.distinct
        for number in (other.numeric_min, other.numeric_max):
            self._observe_number(number)
        for text in (other.text_min, other.text_max):
            self._observe_text(text)
        return self

    def to_profile(
        self,
        enum_cap: int = _DEFAULT_ENUM_CAP,
        enum_ratio: float = _DEFAULT_ENUM_RATIO,
    ) -> ValueProfile:
        """The profile a serial scan over the same values would produce."""
        is_enum = (
            len(self.distinct) <= enum_cap
            and len(self.distinct)
            <= max(1, int(enum_ratio * self.observations))
            and self.datatype
            in (DataType.STRING, DataType.BOOLEAN, DataType.INTEGER)
        )
        enum_values: tuple[bool | int | float | str | None, ...] = ()
        if is_enum:
            enum_values = _thaw_sorted(self.distinct)
        minimum: int | float | str | None = None
        maximum: int | float | str | None = None
        if self.datatype in _NUMERIC:
            minimum, maximum = self.numeric_min, self.numeric_max
        elif self.datatype in _TEMPORAL:
            minimum, maximum = self.text_min, self.text_max
        return ValueProfile(
            is_enum=is_enum,
            enum_values=enum_values,
            minimum=minimum,
            maximum=maximum,
            distinct_count=len(self.distinct),
            observation_count=self.observations,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (used by the parallel shard journal)."""
        return {
            "datatype": self.datatype.name,
            "observations": self.observations,
            "distinct": [
                list(item)
                for item in sorted(
                    self.distinct,
                    key=lambda item: (item[0], repr(item[1])),
                )
            ],
            "numeric_min": self.numeric_min,
            "numeric_max": self.numeric_max,
            "text_min": self.text_min,
            "text_max": self.text_max,
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "PropertyPartial":
        """Inverse of :meth:`to_dict`."""
        return cls(
            datatype=DataType[str(record.get("datatype", "UNKNOWN"))],
            observations=int(record.get("observations", 0)),
            distinct={
                (str(tag), value)
                for tag, value in record.get("distinct", ())
            },
            numeric_min=record.get("numeric_min"),
            numeric_max=record.get("numeric_max"),
            text_min=record.get("text_min"),
            text_max=record.get("text_max"),
        )


def _numeric_sort_key(value: int | float) -> tuple[int | float, bool]:
    """Total order over mixed int/float numbers, ties broken by kind.

    ``1`` and ``1.0`` compare equal but render differently (``1`` vs
    ``1.0``), so a plain ``min()``/``max()`` would depend on scan order.
    The tuple key makes the choice canonical -- the minimum prefers the
    int, the maximum the float -- which keeps bounds associative under
    partial merging and identical between serial and sharded scans.
    """
    return (value, isinstance(value, float))


def _freeze(value: Any) -> tuple[str, bool | int | float | str | None]:
    """Canonical hashable stand-in for a value, tagged with its type.

    Cross-type equality (``0 == False``, ``1 == True``, ``1 == 1.0``)
    would otherwise let a plain set keep whichever representative was
    inserted first, making the distinct set -- and the enum members built
    from it -- depend on scan order. Tagging every frozen form with the
    value's type name keeps such values distinct, so serial scans and
    merged shard partials agree on the frozen set byte for byte.
    Non-primitive values (lists, dicts, hashable composites) freeze to
    their ``repr`` under a dedicated tag.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return (type(value).__name__, value)
    return ("repr", repr(value))


def _thaw_sorted(
    distinct: set[tuple[str, bool | int | float | str | None]],
) -> tuple[bool | int | float | str | None, ...]:
    """Deterministic enum ordering over a set of frozen values.

    Sorts by the ``repr`` of the original value (matching the rendered
    form), with the type tag breaking exact-repr ties.
    """
    return tuple(
        value
        for _tag, value in sorted(
            distinct, key=lambda item: (repr(item[1]), item[0])
        )
    )


def _parse_number(text: str) -> float | None:
    """Numeric value of a string, if it is one."""
    try:
        return float(text)
    except ValueError:
        return None
