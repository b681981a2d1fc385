"""The catalog: named tables, views, and their statistics."""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from ..errors import CatalogError
from .schema import Schema
from .stats import StatsCache, TableStats
from .table import Table


class Catalog:
    """Registry of base tables and view definitions.

    Views are stored as SQL text and expanded by the QGM builder; the engine
    uses them both for user views and for the rewritten-query examples in the
    README.

    Concurrency contract: one coarse reentrant lock guards every catalog
    mutation (table/view creation and drops, stats invalidation) *and* every
    lookup, so concurrent DDL can never tear the registry -- in particular
    the duplicate-name check-then-create in :meth:`create_table` /
    :meth:`create_view` is atomic, and a reader never observes a
    half-registered relation. Statistics reads (:meth:`stats`) compute under
    the same lock, which serialises them against invalidation; the cache
    itself is additionally validity-keyed by row count, so a stats entry
    that raced with an append self-heals on the next read (see
    :class:`~repro.storage.stats.StatsCache`). Row-level operations on a
    :class:`~repro.storage.table.Table` are guarded by the table's own lock,
    not this one -- the catalog lock is about the *namespace*, the table
    lock about the *data*.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, str] = {}
        self._stats = StatsCache()
        self._lock = threading.RLock()
        self._generation = 0

    def generation(self) -> int:
        """The catalog's monotonic change epoch.

        Bumped (under the lock) by every namespace mutation and stats
        invalidation -- DDL, view changes, and the post-INSERT
        :meth:`invalidate_stats`. The plan cache stamps each entry with the
        generation observed *before* building it and treats any mismatch as
        stale, so a plan can never outlive the catalog state it was
        optimized against (even when DDL races the build itself)."""
        with self._lock:
            return self._generation

    # -- tables ------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create an empty table; fails on duplicate names (tables or views).
        Atomic: two threads racing on the same name cannot both succeed."""
        key = name.lower()
        with self._lock:
            if key in self._tables or key in self._views:
                raise CatalogError(f"relation {name!r} already exists")
            table = Table(key, schema)
            self._tables[key] = table
            self._generation += 1
            return table

    def drop_table(self, name: str) -> None:
        """Drop a table and its cached statistics."""
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"no table named {name!r}")
            del self._tables[key]
            self._stats.invalidate(key)
            self._generation += 1

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def table(self, name: str) -> Table:
        """Look up a base table by name."""
        with self._lock:
            try:
                return self._tables[name.lower()]
            except KeyError:
                raise CatalogError(f"no table named {name!r}") from None

    def tables(self) -> Iterable[Table]:
        with self._lock:
            return list(self._tables.values())

    # -- views -------------------------------------------------------------

    def create_view(self, name: str, sql_text: str) -> None:
        """Register a view as SQL text (expanded at bind time)."""
        key = name.lower()
        with self._lock:
            if key in self._tables or key in self._views:
                raise CatalogError(f"relation {name!r} already exists")
            self._views[key] = sql_text
            self._generation += 1

    def drop_view(self, name: str) -> None:
        key = name.lower()
        with self._lock:
            if key not in self._views:
                raise CatalogError(f"no view named {name!r}")
            del self._views[key]
            self._generation += 1

    def has_view(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._views

    def relation_names(self) -> list[str]:
        """Every table and view name (one snapshot, under the lock)."""
        with self._lock:
            return [*self._tables, *self._views]

    def view_sql(self, name: str) -> str:
        with self._lock:
            try:
                return self._views[name.lower()]
            except KeyError:
                raise CatalogError(f"no view named {name!r}") from None

    # -- statistics ----------------------------------------------------------

    def stats(self, name: str) -> TableStats:
        """(Cached) statistics for a base table.

        Computed and cached under the catalog lock: a concurrent
        ``invalidate_stats`` cannot interleave with the cache update, so an
        invalidation is never lost behind a stale store."""
        with self._lock:
            return self._stats.get(self.table(name))

    def invalidate_stats(self, name: str) -> None:
        """Drop the cached statistics for ``name`` (atomic with respect to
        in-flight :meth:`stats` readers)."""
        with self._lock:
            self._stats.invalidate(name)
            self._generation += 1

    # -- keys ---------------------------------------------------------------

    def is_key(self, table_name: str, columns: Sequence[str]) -> bool:
        """True when ``columns`` is a superset of a declared key of the table,
        or a unique index exists on a subset of ``columns``.

        Used by the OptMag check (section 5.1: "when the correlation
        attributes form a key of the supplementary table") and by Dayal's
        rewrite, which must group on a key of the outer relation.
        """
        table = self.table(table_name)
        cols = {c.lower() for c in columns}
        pk = set(table.schema.primary_key)
        if pk and pk <= cols:
            return True
        # table.indexes is replaced wholesale on DDL (copy-on-write), so
        # iterating this snapshot is safe against concurrent CREATE INDEX.
        for index in table.indexes.values():
            if not index.unique:
                continue
            index_cols = {
                table.schema.columns[p].name for p in index.column_positions
            }
            if index_cols <= cols:
                return True
        return False
