"""In-memory storage engine: schemas, tables, indexes, catalog, statistics."""

from .schema import Column, Schema
from .table import Table
from .index import HashIndex
from .catalog import Catalog
from .stats import ColumnStats, TableStats, compute_table_stats

__all__ = [
    "Column",
    "Schema",
    "Table",
    "HashIndex",
    "Catalog",
    "ColumnStats",
    "TableStats",
    "compute_table_stats",
]
