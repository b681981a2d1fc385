"""Secondary indexes over in-memory tables.

:class:`HashIndex`, the one index kind, serves equality lookups on a
(possibly composite) key. It maps key values to *row ids*
(positions in the owning table's row list, valid under appends) and, for
a key that may hold several rows, to those rows themselves, so that a
probe hands back rows without fetching each by its id. Tables in this
engine are append-only once loaded, mirroring the read-mostly
decision-support setting of the paper.
"""

from __future__ import annotations

from collections import defaultdict, deque
from operator import itemgetter
from typing import Any, Iterable, Sequence

from ..errors import SchemaError


class HashIndex:
    """Equality index on one or more columns.

    NULL keys are indexed (under the key ``None``/tuple containing ``None``)
    but equality probes with NULL never match, matching SQL semantics --
    callers must therefore pre-filter NULL probe values, which
    :meth:`lookup` and :meth:`probe` do for them.

    One dict maps each key to its bucket. A key of a unique index that
    holds no NULL has one row, and its bucket is the bare row id, which
    :meth:`probe` resolves against the table's rows. Every other bucket is
    one list ``[id, row, id, row, ...]`` in row-id order: :meth:`lookup`
    reads its ids, :meth:`probe` its rows.

    Rows come in one at a time (:meth:`insert`) or a batch at a time
    (:meth:`insert_many`: a table's load and an index's backfill); either
    way the map, its bucket shapes and the NULL flag come out the same.
    """

    def __init__(self, name: str, column_positions: Sequence[int], unique: bool = False):
        if not column_positions:
            raise SchemaError("index needs at least one column")
        self.name = name
        self.column_positions = tuple(column_positions)
        self.unique = unique
        #: A row's key: the bare value of one column, a tuple of several.
        self._key_of = itemgetter(*self.column_positions)
        #: key -> bucket: the bare row id for a key of a unique index
        #: without a NULL, which saves a list per key; else ``[id, row,
        #: ...]``, which grows by whole pairs in one C call (``bucket +=``)
        #: so that a lock-free reader never sees an id without its row.
        self._map: dict[Any, Any] = {}
        #: Does some key hold a NULL? Never false again once true: the
        #: index only grows.
        self._nulls = False

    def insert(self, row_id: int, row: Sequence[Any]) -> None:
        """Index ``row`` stored at ``row_id``."""
        key = self._key_of(row)
        bucket = self._map.get(key)
        # The flag is set before the key it is about becomes visible: a
        # lock-free :meth:`probe` that finds the key then sees the flag.
        if bucket is None:
            if self._key_has_null(key):
                self._nulls = True
            elif self.unique:
                self._map[key] = row_id
                return
            self._map[key] = [row_id, row]
        elif self.unique and not self._key_has_null(key):
            raise SchemaError(
                f"unique index {self.name!r} violated for key {key!r}"
            )
        else:
            bucket += (row_id, row)

    def insert_many(self, row_ids: Iterable[int], rows: Sequence[Sequence[Any]]) -> None:
        """Index each of ``rows`` stored at the matching one of ``row_ids``
        (ascending): :meth:`insert` of each row in turn, in one pass.

        The rows must have passed :meth:`check_unique`, so the keys a unique
        index gets are new and distinct, and go in with one ``dict.update``.
        A non-unique index builds the same buckets :meth:`insert` does, in
        row-id order, and publishes whole pairs only. A batch with a NULL in
        some key goes row by row through :meth:`insert`, which publishes
        the NULL flag first."""
        if any(None in map(itemgetter(pos), rows) for pos in self.column_positions):
            for row_id, row in zip(row_ids, rows):
                self.insert(row_id, row)
            return
        keys = map(self._key_of, rows)
        index = self._map
        if self.unique:
            index.update(zip(keys, row_ids))
            return
        # The batch's pairs are gathered per key in C, then each key's go
        # into the map in one C call, in the order the keys first appear.
        batch: defaultdict = defaultdict(list)
        deque(map(list.extend, map(batch.__getitem__, keys), zip(row_ids, rows)), maxlen=0)
        get = index.get
        for key, pairs in batch.items():
            bucket = get(key)
            if bucket is None:
                index[key] = pairs
            else:
                bucket += pairs

    def check_unique(self, rows: Sequence[Sequence[Any]]) -> None:
        """Raise the error :meth:`insert` would for the first of ``rows``
        whose key a unique index already holds, or an earlier one of
        ``rows`` has; change nothing."""
        if not self.unique:
            return
        keys = set(map(self._key_of, rows))
        if len(keys) == len(rows) and self._map.keys().isdisjoint(keys):
            return  # no key twice, none held: a NULL would not matter
        seen: set = set()
        for key in map(self._key_of, rows):
            if self._key_has_null(key):
                continue
            if key in self._map or key in seen:
                raise SchemaError(
                    f"unique index {self.name!r} violated for key {key!r}"
                )
            seen.add(key)

    @staticmethod
    def _key_has_null(key: Any) -> bool:
        if key is None:
            return True
        return isinstance(key, tuple) and any(part is None for part in key)

    def lookup(self, key: Any) -> list[int]:
        """Row ids with column values equal to ``key``, in a new list.

        A NULL anywhere in the probe key yields no matches (SQL ``=``).
        """
        if self._key_has_null(key):
            return []
        bucket = self._map.get(key)
        if bucket is None:
            return []
        return [bucket] if type(bucket) is int else bucket[0::2]

    def probe(self, keys: Sequence[Any], rows: Sequence[tuple]) -> list[Sequence[tuple]]:
        """For each key of a batch, the rows it matches (empty when none):
        the rows at :meth:`lookup`'s ids, given the table's ``rows``.

        The index's own ``dict.get`` is mapped over the keys. A NULL probe
        key is decided once per batch, not once per key: only an index
        that holds a NULL key can match one, and only then are the probes
        looked at. A bare id is resolved against ``rows``; a list's rows
        are a slice of it, never the bucket itself: a reader that does not
        hold the table lock reads them as often as it likes while an
        insert lengthens the bucket."""
        found = list(map(self._map.get, keys))
        if self._nulls:
            has_null = self._key_has_null
            found = [
                None if has_null(key) else bucket
                for key, bucket in zip(keys, found)
            ]
        return [
            () if bucket is None else (rows[bucket],) if bucket.__class__ is int
            else bucket[1::2]
            for bucket in found
        ]

    def __len__(self) -> int:
        return sum(
            1 if type(b) is int else len(b) // 2 for b in self._map.values()
        )
