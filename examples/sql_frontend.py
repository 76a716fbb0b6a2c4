#!/usr/bin/env python
"""SQL front end: warehouse queries straight into the fusion compiler.

Writes three analytic queries in SQL against the TPC-H catalog, compiles
each through the full pipeline (parse -> bind -> lower -> fuse ->
strategy), runs it functionally over generated TPC-H data, checks it
against the reference interpreter, and reports the simulated execution.

Run:  python examples/sql_frontend.py
"""

from repro.core.passes import compile_plan
from repro.frontend import compile_sql, run_plan, validate_sql
from repro.tpch.catalog import CATALOG, tpch_dataset, tpch_source_rows

QUERIES = {
    "pricing summary (Q1-lite)": """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "forecast revenue (Q6)": """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '1994-01-01'
          AND l_shipdate < DATE '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
    """,
    "late items by supplier": """
        SELECT l_suppkey, COUNT(*) AS late_items
        FROM lineitem
        WHERE l_receiptdate > l_commitdate
        GROUP BY l_suppkey
        ORDER BY late_items DESC
    """,
}


def main() -> None:
    scale_factor = 0.01
    tables = tpch_dataset(scale_factor=scale_factor)
    source_rows = tpch_source_rows(scale_factor)

    for title, sql in QUERIES.items():
        print("=" * 64)
        print(title)
        print("=" * 64)
        compiled = compile_sql(sql, CATALOG, source_rows=source_rows,
                               name=title)

        # functional answer, differentially checked
        out = run_plan(compiled, tables)
        print(f"result: {out.num_rows} row(s), fields {out.fields}")
        for i in range(min(out.num_rows, 4)):
            print("   " + ", ".join(f"{f}={out.column(f)[i]}"
                                    for f in out.fields))
        report = validate_sql(title, sql, CATALOG, tables,
                              source_rows=source_rows)
        print(f"reference check: {report.status} {report.detail}".rstrip())
        if report.status != "ok":
            raise SystemExit(1)

        # the compiler's view
        cp = compile_plan(compiled.plan, {"lineitem": 6_000_000})
        print()
        print(cp.describe())
        result = cp.run()
        print(f"simulated at 6M rows: {result.makespan*1e3:.1f} ms "
              f"({result.throughput/1e9:.2f} GB/s)\n")


if __name__ == "__main__":
    main()
