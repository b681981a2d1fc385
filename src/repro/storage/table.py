"""In-memory tables: validated rows plus attached secondary indexes."""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Sequence

from ..errors import CatalogError, SchemaError
from .index import HashIndex
from .schema import Schema


class Table:
    """A named, schema-validated, append-only row store.

    Rows are tuples in schema order. A primary key declared on the schema is
    enforced through an implicit unique :class:`HashIndex`. Additional
    indexes can be attached (and dropped -- the paper's Figure 7 experiment
    drops an index) by name.

    Concurrency contract: every *mutation* (row insert, index create/drop)
    takes the table's own lock, so concurrent writers and DDL serialise and
    an index is never torn with respect to the rows it covers. *Readers*
    are lock-free by design: ``rows`` is append-only (a CPython list can be
    iterated while another thread appends), and ``indexes`` is replaced
    wholesale on DDL (copy-on-write), so a scan or planner holding a
    snapshot of either keeps seeing a consistent -- if slightly stale --
    view. A query that raced a ``CREATE INDEX`` may plan without the new
    index; it never observes a half-backfilled one.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name.lower()
        self.schema = schema
        self.rows: list[tuple] = []
        self.indexes: dict[str, HashIndex] = {}
        self._pk_index: HashIndex | None = None
        self._lock = threading.Lock()
        if schema.primary_key:
            self._pk_index = HashIndex(
                f"{self.name}_pkey", schema.key_positions(), unique=True
            )
            self.indexes[self._pk_index.name] = self._pk_index

    # -- data loading ----------------------------------------------------

    def insert(self, row: Sequence[Any]) -> None:
        """Validate and append one row, maintaining all indexes
        (:meth:`insert_many` of the one row)."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Validate and append ``rows``, all or none; returns how many.

        Every row is checked before the first is appended -- arity, types
        and nullability, a NULL primary key, and each unique index against
        the table and the rows ahead of it in ``rows``. A batch that
        :meth:`Schema.stores_as_is` is stored as it is, checked a column at
        a time; any other goes row by row through
        :meth:`Schema.validate_row`, which coerces (an int into a FLOAT
        column) and raises the error of the first bad row. The checks
        against the table, the row-id assignment and every index update
        then happen under one hold of the table lock, so a failed call
        leaves the table as it was and concurrent inserts and index DDL
        never interleave with it."""
        batch = list(rows)
        if not self.schema.stores_as_is(batch):
            batch = [self._validated(row) for row in batch]
        with self._lock:
            indexes = self.indexes.values()
            for index in indexes:
                index.check_unique(batch)
            # Checked, an insert into an index cannot fail. The rows go in
            # first, so a lock-free probe never finds a row id that ``rows``
            # does not hold yet; every index shares one int object per id.
            first_id = len(self.rows)
            row_ids = list(range(first_id, first_id + len(batch)))
            self.rows.extend(batch)
            for index in indexes:
                index.insert_many(row_ids, batch)
        return len(batch)

    def _validated(self, row: Sequence[Any]) -> tuple:
        validated = self.schema.validate_row(row)
        if self._pk_index is not None:
            for pos in self.schema.key_positions():
                if validated[pos] is None:
                    raise SchemaError(
                        f"primary key column of table {self.name!r} cannot be NULL"
                    )
        return validated

    # -- access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def scan(self) -> Iterator[tuple]:
        """Full scan in insertion order."""
        return iter(self.rows)

    def fetch(self, row_id: int) -> tuple:
        """Row at ``row_id`` (as assigned at insert time)."""
        return self.rows[row_id]

    # -- index management --------------------------------------------------

    def create_index(
        self, index_name: str, columns: Sequence[str], unique: bool = False,
    ) -> HashIndex:
        """Create and backfill a secondary hash index.

        Atomic: the duplicate check, the backfill over existing rows and
        the registration run under the table lock, serialised against
        concurrent inserts -- the new index covers exactly the rows present
        when it becomes visible. ``indexes`` is replaced copy-on-write so
        concurrent readers iterating the old dict are unaffected.
        """
        index_name = index_name.lower()
        with self._lock:
            if index_name in self.indexes:
                raise CatalogError(
                    f"index {index_name!r} already exists on {self.name!r}"
                )
            positions = [self.schema.position(c) for c in columns]
            index = HashIndex(index_name, positions, unique=unique)
            index.check_unique(self.rows)
            index.insert_many(range(len(self.rows)), self.rows)
            updated = dict(self.indexes)
            updated[index_name] = index
            self.indexes = updated
            return index

    def drop_index(self, index_name: str) -> None:
        """Drop a secondary index (the primary key index cannot be dropped).

        Copy-on-write like :meth:`create_index`: in-flight readers holding
        the old ``indexes`` dict (or the index object itself) keep a usable
        snapshot."""
        index_name = index_name.lower()
        with self._lock:
            if index_name not in self.indexes:
                raise CatalogError(
                    f"no index {index_name!r} on table {self.name!r}"
                )
            if self.indexes[index_name] is self._pk_index:
                raise CatalogError("cannot drop the primary key index")
            updated = dict(self.indexes)
            del updated[index_name]
            self.indexes = updated

    def find_index(self, columns: Sequence[str]) -> HashIndex | None:
        """An index whose key is exactly ``columns`` (order-insensitive), or
        ``None``. Used by the planner for access selection."""
        wanted = tuple(sorted(self.schema.position(c) for c in columns))
        for index in self.indexes.values():
            if tuple(sorted(index.column_positions)) == wanted:
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, {len(self.rows)} rows, {len(self.indexes)} indexes)"
