"""Run TPC-D queries 1-3 under every strategy through the facade.

With ``REPRO_VALIDATE=1`` each plan the executor runs is checked against
the inferred contracts before execution, so a plan that breaks one fails
here with a typed error:

    REPRO_VALIDATE=1 python .github/verify_plans.py
"""

from repro import Database, Strategy
from repro.tpcd import QUERY_1, QUERY_2, QUERY_3, load_tpcd

db = Database(load_tpcd(scale_factor=0.003))
for strategy in ("ni", "kim", "dayal", "magic"):
    for name, sql in (("q1", QUERY_1), ("q2", QUERY_2), ("q3", QUERY_3)):
        result = db.execute(sql, strategy=Strategy(strategy), fallback=True)
        print(f"{strategy}/{name}: {len(result.rows)} rows (verified pre-execution)")
