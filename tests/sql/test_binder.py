"""SQL -> plan binding through the frontend, end to end.

Every query compiles through :func:`repro.frontend.compile_sql`, must
validate ``ok`` against the reference interpreter, and its plan output
is then checked against a direct NumPy computation.
"""

import numpy as np
import pytest

from repro.frontend import (
    Catalog, Column, Table, compile_sql, run_plan, validate_sql,
)
from repro.plans.plan import OpType
from repro.ra import Relation
from repro.sql import SqlError
from repro.tpch.catalog import CATALOG, sql_tables, tpch_source_rows

CAT = Catalog([
    Table("t", (
        Column("k", "int"),
        Column("v", "int"),
        Column("price", "float"),
        Column("discount", "float"),
    )),
    Table("dim", (
        Column("k", "int"),
        Column("label", "int"),
    )),
])


@pytest.fixture
def data(rng):
    n = 20_000
    return {
        "t": Relation({
            "k": rng.integers(0, 50, n).astype(np.int32),
            "v": rng.integers(0, 100, n).astype(np.int32),
            "price": (rng.random(n) * 100).astype(np.float32),
            "discount": (rng.integers(0, 11, n) / 100.0).astype(np.float32),
        }),
        "dim": Relation({
            "k": np.arange(50, dtype=np.int32),
            "label": rng.integers(0, 5, 50).astype(np.int32),
        }),
    }


def plan_of(sql, catalog=CAT):
    return compile_sql(sql, catalog).plan


def run(sql, data, catalog=CAT):
    report = validate_sql("query", sql, catalog, data)
    assert report.status == "ok", report.detail
    compiled = compile_sql(sql, catalog)
    compiled.plan.validate()
    return run_plan(compiled, data)


class TestPlanShapes:
    def test_filtered_scan(self):
        ops = [n.op for n in plan_of("SELECT k FROM t WHERE k < 10")
               .topological()]
        assert OpType.SELECT in ops
        assert OpType.SORT not in ops

    def test_aggregate_query_shape(self):
        ops = [n.op for n in plan_of(
            "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k")
            .topological()]
        assert OpType.AGGREGATE in ops
        assert OpType.SORT in ops
        assert OpType.SELECT not in ops  # no WHERE

    def test_sql_plans_fuse(self):
        from repro.core.fusion import fuse_plan
        fr = fuse_plan(plan_of(
            "SELECT t.k, d.label FROM t JOIN dim AS d USING (k) "
            "WHERE t.k < 10"))
        # the alias rename, JOIN, and output stages fuse into one region
        assert fr.num_fused_regions == 1
        assert max(len(r.nodes) for r in fr.regions) >= 3

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(SqlError, match="GROUP BY without aggregates"):
            compile_sql("SELECT k FROM t GROUP BY k", CAT)

    def test_non_grouped_plain_column_rejected(self):
        with pytest.raises(SqlError, match="must appear in GROUP BY"):
            compile_sql("SELECT v, SUM(k) AS s FROM t GROUP BY k", CAT)


class TestEndToEnd:
    def test_projection(self, data):
        out = run("SELECT k, v FROM t WHERE k < 10", data)
        ref = data["t"]
        mask = ref["k"] < 10
        assert out.num_rows == int(mask.sum())
        assert out.fields == ["k", "v"]

    def test_computed_column(self, data):
        out = run("SELECT price * (1 - discount) AS net FROM t WHERE k < 5",
                  data)
        ref = data["t"]
        mask = ref["k"] < 5
        expected = ref["price"][mask] * (1 - ref["discount"][mask])
        assert np.allclose(np.sort(out["net"]), np.sort(expected))

    def test_renamed_column(self, data):
        out = run("SELECT k AS key FROM t WHERE k < 3", data)
        assert out.fields == ["key"]

    def test_grouped_aggregation(self, data):
        out = run("SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM t "
                  "WHERE v < 50 GROUP BY k ORDER BY k", data)
        ref = data["t"]
        mask = ref["v"] < 50
        for krow, n, sv in zip(out["k"], out["n"], out["sv"]):
            sel = mask & (ref["k"] == krow)
            assert int(n) == int(sel.sum())
            assert int(sv) == int(ref["v"][sel].sum())
        assert list(out["k"]) == sorted(out["k"])

    def test_aggregate_of_expression(self, data):
        out = run("SELECT SUM(price * discount) AS rev FROM t", data)
        ref = data["t"]
        expected = float((ref["price"].astype(np.float64)
                          * ref["discount"]).sum())
        assert float(out["rev"][0]) == pytest.approx(expected, rel=1e-4)

    def test_join_using(self, data):
        out = run("SELECT t.k AS k, v, label FROM t JOIN dim AS d "
                  "USING (k) WHERE t.k < 10", data)
        assert out.num_rows == int((data["t"]["k"] < 10).sum())
        assert out.fields == ["k", "v", "label"]

    def test_order_by_desc(self, data):
        out = run("SELECT k, COUNT(*) AS n FROM t GROUP BY k "
                  "ORDER BY n DESC", data)
        ns = list(out["n"])
        assert ns == sorted(ns, reverse=True)

    def test_between(self, data):
        out = run("SELECT k FROM t WHERE k BETWEEN 10 AND 20", data)
        assert ((out["k"] >= 10) & (out["k"] <= 20)).all()


class TestTpchInSql:
    def test_q6_in_sql_matches_reference(self, tpch_small):
        from repro.tpch.q6 import q6_reference
        sql = ("SELECT SUM(l_extendedprice * l_discount) AS revenue "
               "FROM lineitem "
               "WHERE l_shipdate >= DATE '1994-01-01' "
               "AND l_shipdate < DATE '1995-01-01' "
               "AND l_discount BETWEEN 0.049999 AND 0.070001 "
               "AND l_quantity < 24")
        out = run(sql, sql_tables(tpch_small), CATALOG)
        assert float(out["revenue"][0]) == pytest.approx(
            q6_reference(tpch_small.lineitem), rel=1e-3)

    def test_q1_lite_in_sql(self, tpch_small):
        from repro.tpch import q1_reference
        sql = ("SELECT l_returnflag, l_linestatus, "
               "SUM(l_quantity) AS sum_qty, COUNT(*) AS n FROM lineitem "
               "WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY "
               "GROUP BY l_returnflag, l_linestatus "
               "ORDER BY l_returnflag, l_linestatus")
        out = run(sql, sql_tables(tpch_small), CATALOG)
        assert out.num_rows == 6
        ref = q1_reference(tpch_small.lineitem)
        for i in range(out.num_rows):
            key = (int(out["l_returnflag"][i]), int(out["l_linestatus"][i]))
            assert int(out["n"][i]) == ref[key]["count_order"]
            assert float(out["sum_qty"][i]) == pytest.approx(
                ref[key]["sum_qty"], rel=1e-3)

    def test_sql_plan_through_compiler(self):
        """SQL -> plan -> full pipeline -> simulated execution."""
        from repro.core.passes import compile_plan
        sql = ("SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem "
               "WHERE l_discount < 0.05 GROUP BY l_returnflag")
        plan = compile_sql(sql, CATALOG,
                           source_rows=tpch_source_rows(1.0)).plan
        cp = compile_plan(plan, {"lineitem": 6_000_000})
        assert cp.fusion.num_fused_regions >= 1
        result = cp.run()
        assert result.makespan > 0


class TestDistinctAndHaving:
    def test_distinct_dedups(self, data):
        out = run("SELECT DISTINCT k FROM t WHERE k < 10", data)
        ks = [int(x) for x in out["k"]]
        assert len(ks) == len(set(ks))
        assert set(ks) == set(int(x) for x in data["t"]["k"] if x < 10)

    def test_distinct_plan_uses_unique_barrier(self):
        ops = [n.op for n in plan_of("SELECT DISTINCT k FROM t")
               .topological()]
        assert OpType.UNIQUE in ops

    def test_having_filters_groups(self, data):
        out = run("SELECT k, COUNT(*) AS n FROM t GROUP BY k "
                  "HAVING n > 400", data)
        assert (out["n"] > 400).all()
        full = run("SELECT k, COUNT(*) AS n FROM t GROUP BY k", data)
        expected = int((full["n"] > 400).sum())
        assert out.num_rows == expected

    def test_having_on_aggregate_expression(self, data):
        out = run("SELECT k, SUM(v) AS sv FROM t GROUP BY k "
                  "HAVING sv >= 20000", data)
        assert (out["sv"] >= 20000).all()

    def test_having_without_group_by_rejected(self):
        with pytest.raises(SqlError, match="HAVING requires GROUP BY"):
            compile_sql("SELECT SUM(v) AS s FROM t HAVING s > 1", CAT)

    def test_having_with_order_by(self, data):
        out = run("SELECT k, COUNT(*) AS n FROM t GROUP BY k "
                  "HAVING n > 300 ORDER BY n DESC", data)
        ns = list(out["n"])
        assert ns == sorted(ns, reverse=True)
