"""Table schemas: ordered, typed, optionally keyed column lists."""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from operator import itemgetter
from typing import Any, Sequence

from ..errors import SchemaError
from ..types import SQLType

#: The one class a value of each type is stored as (what
#: :meth:`SQLType.validate` returns for a non-NULL value, whatever the
#: class of the value it was handed).
_STORED_CLASS = {
    SQLType.INT: int,
    SQLType.FLOAT: float,
    SQLType.STR: str,
    SQLType.DATE: str,
    SQLType.BOOL: bool,
}


@dataclass(frozen=True)
class Column:
    """A single column: name, declared type, nullability."""

    name: str
    type: SQLType
    nullable: bool = True

    def validate(self, value: Any) -> Any:
        """Validate ``value`` against type and nullability."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is NOT NULL")
            return None
        try:
            return self.type.validate(value)
        except SchemaError as error:
            raise SchemaError(f"column {self.name!r}: {error}") from None


class Schema:
    """An ordered collection of :class:`Column` with an optional primary key.

    Column names are case-insensitive (stored lower-cased), matching the SQL
    front-end's identifier folding.
    """

    def __init__(
        self,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
    ):
        self.columns: tuple[Column, ...] = tuple(
            Column(c.name.lower(), c.type, c.nullable) for c in columns
        )
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        self.primary_key: tuple[str, ...] = tuple(k.lower() for k in primary_key)
        for key_col in self.primary_key:
            if key_col not in self._index:
                raise SchemaError(f"primary key column {key_col!r} not in schema")

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def names(self) -> list[str]:
        """Column names in schema order."""
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        """True when ``name`` (case-insensitive) is a column of this schema."""
        return name.lower() in self._index

    def position(self, name: str) -> int:
        """Ordinal position of column ``name``; raises on unknown name."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def column(self, name: str) -> Column:
        """The :class:`Column` named ``name``."""
        return self.columns[self.position(name)]

    def stored_class(self, position: int) -> type:
        """The class of every non-NULL value stored in column ``position``:
        a table holds nothing but what :meth:`validate_row` returns, so a
        value of the column is exactly this class or ``None``."""
        return _STORED_CLASS[self.columns[position].type]

    # -- validation ------------------------------------------------------

    def validate_row(self, row: Sequence[Any]) -> tuple:
        """Validate one row (arity, types, nullability); returns a tuple."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity {len(self.columns)}"
            )
        return tuple(col.validate(val) for col, val in zip(self.columns, row))

    def stores_as_is(self, rows: Sequence[Any]) -> bool:
        """True when every row of ``rows`` is already what
        :meth:`validate_row` returns for it, with no NULL key: a tuple of
        the schema's arity whose every value is of the exact class its
        column's type stores, or NULL where the column is nullable and not
        part of the primary key, and no NaN in a FLOAT column.

        One C-level pass per column over the whole batch, and a second
        for FLOAT: its sum is NaN when it holds a NaN (or both infinities,
        which :meth:`validate_row` then stores). False sends the batch to
        :meth:`validate_row`, which coerces what it may (an int into a
        FLOAT column) and raises on the rest."""
        if set(map(type, rows)) - {tuple} or set(map(len, rows)) - {len(self.columns)}:
            return False
        for pos, col in enumerate(self.columns):
            allowed = {self.stored_class(pos)}
            if col.nullable and col.name not in self.primary_key:
                allowed.add(type(None))
            if not set(map(type, map(itemgetter(pos), rows))) <= allowed:
                return False
            if col.type is SQLType.FLOAT and isnan(
                sum(filter(None, map(itemgetter(pos), rows)))
            ):
                return False
        return True

    def key_positions(self) -> tuple[int, ...]:
        """Ordinal positions of the primary key columns (empty if keyless)."""
        return tuple(self._index[k] for k in self.primary_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name} {c.type.value}" for c in self.columns)
        pk = f" PRIMARY KEY ({', '.join(self.primary_key)})" if self.primary_key else ""
        return f"Schema({cols}{pk})"
