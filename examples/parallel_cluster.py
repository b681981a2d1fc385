"""Decorrelation in a shared-nothing parallel database (paper section 6).

Simulates the section-2 query over EMP/DEPT partitioned across n nodes:

* nested iteration broadcasts every correlation binding to every node --
  O(n^2) computation fragments, one small message per binding per node;
* the magic-decorrelated plan repartitions once on the correlation
  attribute and then runs n fully local pipelines.

Run:  python examples/parallel_cluster.py
"""

from repro.parallel import sweep_nodes
from repro.tpcd import load_empdept


def main() -> None:
    catalog = load_empdept(n_depts=400, n_emps=8000, n_buildings=40)
    dept = list(catalog.table("dept").rows)
    emp = list(catalog.table("emp").rows)

    print(f"EMP/DEPT: {len(dept)} departments, {len(emp)} employees\n")
    print(
        f"{'nodes':>5} | {'strategy':<18} {'fragments':>9} {'messages':>9} "
        f"{'row work':>9}"
    )
    print("-" * 60)
    for ni, magic in sweep_nodes(dept, emp):
        n = ni.n_nodes
        assert ni.answer == magic.answer
        # Section 6.1: every node asks every node -- n^2 fragments; 6.2:
        # one local pipeline per node.
        assert ni.fragments == n ** 2 and magic.fragments == n
        for metrics in (ni, magic):
            print(
                f"{n:>5} | {metrics.strategy:<18} {metrics.fragments:>9} "
                f"{metrics.messages:>9} {metrics.rows_processed:>9}"
            )
        print("-" * 60)

    print(
        "\nNested iteration's fragments grow as n^2 and its total row work "
        "never shrinks\n(every invocation scans every partition); the "
        "decorrelated plan's work is constant\nand divides across nodes."
    )


if __name__ == "__main__":
    main()
