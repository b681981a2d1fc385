"""Rules a statement breaks are bind errors, never a strategy's failure.

An aggregate in WHERE used to bind, then fail the QGM validator under every
strategy; a scalar subquery with two columns used to bind, then answer
NULL over an empty subquery and fail at run time over a non-empty one.
Both failures were booked to the requested strategy's circuit breaker.
The binder now rejects both (SEM006, SEM009), and a ``BindError`` is the
statement's fault, not the strategy's.
"""

import pytest

from repro import Database, QueryService, Strategy
from repro.errors import BindError
from repro.tpcd import EMP_DEPT_QUERY

from .test_service import EXPECTED

#: A subquery delivering two columns, in each place one column is required.
TWO_COLUMNS = {
    "scalar": "SELECT d.name, (SELECT e.salary, e.name FROM emp e "
              "WHERE e.building = d.building) AS s FROM dept d",
    "IN": "SELECT d.name FROM dept d WHERE d.building IN "
          "(SELECT e.building, e.name FROM emp e WHERE e.salary > d.budget)",
    "ANY": "SELECT d.name FROM dept d WHERE d.budget > ANY "
           "(SELECT e.salary, e.name FROM emp e WHERE e.building = d.building)",
    "ALL": "SELECT d.name FROM dept d WHERE d.budget > ALL "
           "(SELECT e.salary, e.name FROM emp e WHERE e.building = d.building)",
}

SCHEMA = (
    "CREATE TABLE dept (name VARCHAR(30) PRIMARY KEY, budget FLOAT, "
    "num_emps INT, building VARCHAR(30));"
    "CREATE TABLE emp (empno INT PRIMARY KEY, name VARCHAR(30), "
    "building VARCHAR(30), salary FLOAT);"
    "INSERT INTO dept VALUES ('sales', 5000, 4, 'B1'), ('tiny', 500, 1, 'B9')"
)
EMPS = "INSERT INTO emp VALUES (1, 'alice', 'B1', 100), (2, 'bob', 'B1', 120)"


def _health(service):
    return {
        strategy: (snapshot["state"], snapshot["consecutive_failures"])
        for strategy, snapshot in service.stats().breakers.items()
    }


@pytest.mark.parametrize("emps", ["empty", "filled"])
@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("form", sorted(TWO_COLUMNS))
def test_a_two_column_subquery_is_a_bind_error(form, strategy, emps):
    db = Database()
    db.execute_script(SCHEMA if emps == "empty" else f"{SCHEMA}; {EMPS}")
    with pytest.raises(BindError) as info:
        db.execute(TWO_COLUMNS[form], strategy=strategy, fallback=True)
    assert info.value.code == "SEM009"
    assert info.value.message == (
        f"{form} subquery must produce exactly one column, got 2"
    )


def test_an_aggregate_in_group_by_names_its_own_rule(empdept_catalog):
    with pytest.raises(BindError) as info:
        Database(empdept_catalog).execute(
            "SELECT d.name FROM dept d GROUP BY count(*)"
        )
    assert info.value.code == "SEM006"
    assert info.value.message == "aggregate COUNT is not allowed in GROUP BY"


@pytest.mark.parametrize("sql, code", [
    ("SELECT d.name FROM dept d WHERE count(*) > 2", "SEM006"),
    (TWO_COLUMNS["scalar"], "SEM009"),
])
def test_a_broken_rule_opens_no_breaker(empdept_catalog, sql, code):
    with QueryService(
        Database(empdept_catalog), workers=1, breaker_threshold=3
    ) as service:
        service.submit(EMP_DEPT_QUERY, strategy="magic").result(30)
        for _ in range(4):
            ticket = service.submit(sql, strategy="magic")
            assert ticket.wait(30)
            error = ticket.error()
            assert type(error) is BindError and error.code == code
        assert _health(service) == {"magic": ("closed", 0)}
        result = service.submit(EMP_DEPT_QUERY, strategy="magic").result(30)
        assert result.degradations == []
        assert sorted(result.rows) == EXPECTED
