"""TPC-H Q1 ("pricing summary report") as the paper runs it (Fig 17(a)).

The paper's engine stores lineitem columnarly; its Q1 plan is

1. SELECT over the shipdate column (date <= 1998-09-02, ~98% pass),
2. six JOINs on the implicit row id, merging the other six columns
   (price, tax, discount, quantity, returnflag, linestatus) into one wide
   table,
3. SORT by the grouping key (returnflag, linestatus),
4. fused ARITHmetic: disc_price = price*(1-discount),
   charge = disc_price*(1+tax),
5. AGGREGATE per group: sums, averages, count.

The SELECT + 6 JOINs fuse into one kernel; the arithmetic (+ terminal
aggregation) fuses into another; SORT is the barrier in between and
dominates the baseline (~71% of its time, Fig 18(a)).
"""

from __future__ import annotations

import numpy as np

from ..plans.plan import OpType, Plan, PlanNode
from ..ra.arithmetic import AggSpec
from ..ra.expr import Const, Field
from ..ra.relation import Relation
from .schema import date_to_int

#: Q1 cutoff: 1998-12-01 minus 90 days
Q1_CUTOFF = date_to_int("1998-09-02")

#: columns merged by the six row-id JOINs, in plan order
Q1_VALUE_COLUMNS = ["extendedprice", "tax", "discount", "quantity",
                    "returnflag", "linestatus"]

#: fraction of lineitems passing the shipdate filter (shipdate uniform
#: over [0, 1998-12-01) against the 1998-09-02 cutoff)
Q1_SELECT_FRACTION = date_to_int("1998-09-02") / date_to_int("1998-12-01")


def q1_column_relations(lineitem: Relation) -> dict[str, Relation]:
    """Decompose lineitem into the 7 keyed column relations Q1 reads."""
    rowid = np.arange(lineitem.num_rows, dtype=np.int32)
    cols = {"l_shipdate": Relation(
        {"rowid": rowid, "shipdate": lineitem["shipdate"]}, key="rowid")}
    for name in Q1_VALUE_COLUMNS:
        cols[f"l_{name}"] = Relation(
            {"rowid": rowid, name: lineitem[name]}, key="rowid")
    return cols


def build_q1_plan() -> Plan:
    """The paper's Q1 plan over the columnar sources."""
    plan = Plan(name="tpch_q1")
    # columns are positional ("compressed row data"): 4 B per value, the
    # row id is implicit on the host and materialized by the SELECT
    src_date = plan.source("l_shipdate", row_nbytes=4)
    # survivors carry their materialized row id: 8 B per row
    node = plan._add(PlanNode(
        OpType.SELECT, "sel_shipdate", (src_date,),
        params={"predicate": Field("shipdate") <= Q1_CUTOFF},
        selectivity=Q1_SELECT_FRACTION, out_row_nbytes=8))
    row_bytes = 8
    for name in Q1_VALUE_COLUMNS:
        src = plan.source(f"l_{name}", row_nbytes=4)
        row_bytes += 4
        node = plan.join(node, src, on="rowid", match_rate=1.0,
                         out_row_nbytes=row_bytes, gather=True,
                         name=f"join_{name}")
    node = plan.sort(node, by=["returnflag", "linestatus"], name="sort_group")
    node = plan.arith(
        node,
        outputs={
            "disc_price": Field("extendedprice") * (Const(1.0) - Field("discount")),
            "charge": Field("extendedprice") * (Const(1.0) - Field("discount"))
            * (Const(1.0) + Field("tax")),
        },
        out_row_nbytes=row_bytes + 16,
        name="arith_prices")
    plan.aggregate(
        node,
        group_by=["returnflag", "linestatus"],
        aggs={
            "sum_qty": AggSpec("sum", "quantity"),
            "sum_base_price": AggSpec("sum", "extendedprice"),
            "sum_disc_price": AggSpec("sum", "disc_price"),
            "sum_charge": AggSpec("sum", "charge"),
            "avg_qty": AggSpec("mean", "quantity"),
            "avg_price": AggSpec("mean", "extendedprice"),
            "avg_disc": AggSpec("mean", "discount"),
            "count_order": AggSpec("count"),
        },
        n_groups=6,
        name="agg_pricing")
    return plan


def q1_source_rows(n_lineitems: int) -> dict[str, int]:
    """Row counts for every Q1 source at the given lineitem cardinality."""
    rows = {"l_shipdate": n_lineitems}
    for name in Q1_VALUE_COLUMNS:
        rows[f"l_{name}"] = n_lineitems
    return rows


def q1_reference(lineitem: Relation) -> dict[tuple[int, int], dict[str, float]]:
    """Direct NumPy computation of the Q1 answer, for cross-checking."""
    mask = lineitem["shipdate"] <= Q1_CUTOFF
    flag = lineitem["returnflag"][mask]
    status = lineitem["linestatus"][mask]
    qty = lineitem["quantity"][mask].astype(np.float64)
    price = lineitem["extendedprice"][mask].astype(np.float64)
    disc = lineitem["discount"][mask].astype(np.float64)
    tax = lineitem["tax"][mask].astype(np.float64)
    disc_price = price * (1.0 - disc)
    charge = disc_price * (1.0 + tax)

    out: dict[tuple[int, int], dict[str, float]] = {}
    for f in np.unique(flag):
        for s in np.unique(status):
            grp = (flag == f) & (status == s)
            if not grp.any():
                continue
            out[(int(f), int(s))] = {
                "sum_qty": float(qty[grp].sum()),
                "sum_base_price": float(price[grp].sum()),
                "sum_disc_price": float(disc_price[grp].sum()),
                "sum_charge": float(charge[grp].sum()),
                "avg_qty": float(qty[grp].mean()),
                "avg_price": float(price[grp].mean()),
                "avg_disc": float(disc[grp].mean()),
                "count_order": int(grp.sum()),
            }
    return out
