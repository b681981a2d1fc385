"""The oracle: each template's answer by plain Python loops over ``Table.scan()``.

It shares nothing with the engine but the stored rows: no parser, no QGM,
no planner, no executor. NULL follows SQL: an aggregate over no rows is
NULL (COUNT is 0) and a comparison with NULL selects nothing.

Kim's method on EMP/DEPT has its own expected answer: the rows of every
other strategy minus the departments in buildings without employees (the
COUNT bug of section 2, which the repository documents and keeps).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Iterator

from repro.storage import Catalog

Row = tuple[Any, ...]


def _records(catalog: Catalog, table_name: str) -> Iterator[dict[str, Any]]:
    table = catalog.table(table_name)
    names = [column.name for column in table.schema]
    for row in table.scan():
        yield dict(zip(names, row))


def _min_cost_suppliers(catalog: Catalog, part_ok, supplier_ok) -> list[Row]:
    """Q1 and its variant: for every qualifying part, the qualifying
    suppliers that offer it at the lowest cost among qualifying suppliers."""
    suppliers = {
        s["s_suppkey"]: s for s in _records(catalog, "suppliers") if supplier_ok(s)
    }
    parts = {p["p_partkey"] for p in _records(catalog, "parts") if part_ok(p)}
    offers: dict[int, list[dict[str, Any]]] = defaultdict(list)
    for ps in _records(catalog, "partsupp"):
        if ps["ps_partkey"] in parts and ps["ps_suppkey"] in suppliers:
            offers[ps["ps_partkey"]].append(ps)
    rows: list[Row] = []
    for part_offers in offers.values():
        lowest = min(ps["ps_supplycost"] for ps in part_offers)
        for ps in part_offers:
            if ps["ps_supplycost"] == lowest:
                s = suppliers[ps["ps_suppkey"]]
                rows.append(
                    (s["s_name"], s["s_acctbal"], s["s_address"], s["s_phone"], s["s_comment"])
                )
    return rows


def q1(catalog: Catalog, nation: str, size: int, ptype: str) -> list[Row]:
    return _min_cost_suppliers(
        catalog,
        lambda p: p["p_size"] == size and p["p_type"] == ptype,
        lambda s: s["s_nation"] == nation,
    )


def q1v(catalog: Catalog, region_a: str, region_b: str, ptype: str) -> list[Row]:
    return _min_cost_suppliers(
        catalog,
        lambda p: p["p_type"] == ptype,
        lambda s: s["s_region"] in (region_a, region_b),
    )


def q2(catalog: Catalog, brand: str, container: str) -> list[Row]:
    parts = {
        p["p_partkey"]
        for p in _records(catalog, "parts")
        if p["p_brand"] == brand and p["p_container"] == container
    }
    by_part: dict[int, list[dict[str, Any]]] = defaultdict(list)
    for line in _records(catalog, "lineitem"):
        if line["l_partkey"] in parts:
            by_part[line["l_partkey"]].append(line)
    total = None
    for lines in by_part.values():
        threshold = 0.2 * (sum(line["l_quantity"] for line in lines) / len(lines))
        for line in lines:
            if line["l_quantity"] < threshold:
                total = (total or 0.0) + line["l_extendedprice"] * line["l_quantity"]
    return [(None if total is None else total / 5,)]


def q3(catalog: Catalog, segment_a: str, segment_b: str, region: str) -> list[Row]:
    balances: dict[str, list[float]] = defaultdict(list)
    for segment in (segment_a, segment_b):  # UNION ALL: a segment named twice counts twice
        for c in _records(catalog, "customers"):
            if c["c_mktsegment"] == segment:
                balances[c["c_nation"]].append(c["c_acctbal"])
    return [
        (s["s_name"], s["s_nation"], sum(balances[s["s_nation"]]) if balances[s["s_nation"]] else None)
        for s in _records(catalog, "suppliers")
        if s["s_region"] == region
    ]


def empdept(catalog: Catalog, budget: float, kim: bool = False) -> list[Row]:
    staff: dict[str, int] = defaultdict(int)
    for e in _records(catalog, "emp"):
        staff[e["building"]] += 1
    return [
        (d["name"],)
        for d in _records(catalog, "dept")
        if d["budget"] < budget
        and d["num_emps"] > staff[d["building"]]
        and not (kim and staff[d["building"]] == 0)
    ]


def emp_point(catalog: Catalog, salary: float) -> list[Row]:
    return [
        (e["name"], e["building"], e["salary"])
        for e in _records(catalog, "emp")
        if e["salary"] >= salary
    ]


_FAMILIES = {"q1": q1, "q1v": q1v, "q2": q2, "q3": q3, "empdept": empdept, "emp_point": emp_point}


def _sort_key(row: Row) -> tuple:
    return tuple((value is not None, value) for value in row)


def rows_match(actual: list[Row], expected: list[Row]) -> bool:
    """Equal as multisets, floats to 1e-9 relative."""
    if len(actual) != len(expected):
        return False
    for got, want in zip(sorted(actual, key=_sort_key), sorted(expected, key=_sort_key)):
        if len(got) != len(want):
            return False
        for a, b in zip(got, want):
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


class Oracle:
    """Expected answers, computed once for each distinct (family, literals,
    Kim or not) and then compared with every row set the engine returns."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.checked = 0
        self._expected: dict[tuple, list[Row]] = {}

    def expected(self, family: str, literals: dict[str, Any], strategy_key: str) -> list[Row]:
        kim = family == "empdept" and strategy_key == "kim"
        key = (family, tuple(sorted(literals.items())), kim)
        rows = self._expected.get(key)
        if rows is None:
            extra = {"kim": True} if kim else {}
            rows = _FAMILIES[family](self.catalog, **literals, **extra)
            self._expected[key] = rows
        return rows

    def check(self, family: str, literals: dict[str, Any], strategy_key: str, rows: list[Row]) -> bool:
        """Whether ``rows`` is the expected answer; a mismatch is returned,
        never raised, so that the caller counts a failed operation."""
        self.checked += 1
        return rows_match(rows, self.expected(family, literals, strategy_key))
