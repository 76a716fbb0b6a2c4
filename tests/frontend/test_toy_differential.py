"""Frontend differential tests on a small synthetic schema.

Each case compiles through the full pipeline (parse -> bind -> lower ->
plan interpreter) and must agree byte-for-byte with the NumPy reference
interpreter.  The two executors share only the arithmetic kernels, so
agreement here checks pushdown, decorrelation, and the join/aggregate
lowering against a naive evaluation order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import Catalog, Column, Table, validate_sql
from repro.frontend.validate import ordering_violation
from repro.ra.relation import Relation

CAT = Catalog([
    Table("sales", (
        Column("sale_k", "int"),
        Column("s_cust", "int"),
        Column("s_amount", "float"),
        Column("s_qty", "int"),
        Column("s_day", "date"),
        Column("s_tag", "code", pool=("red", "green", "blue")),
    )),
    Table("cust", (
        Column("c_cust", "int"),
        Column("c_nation", "int"),
        Column("c_name", "str"),
    )),
    Table("nation", (
        Column("n_nation", "int"),
        Column("n_name", "code",
               pool=("ALPHA", "BETA", "GAMMA", "DELTA", "EPSILON")),
    )),
])


def _tables(seed: int = 0, n: int = 400) -> dict[str, Relation]:
    rng = np.random.default_rng(seed)
    return {
        "sales": Relation({
            "sale_k": np.arange(n, dtype=np.int32),
            "s_cust": rng.integers(0, 40, n).astype(np.int32),
            "s_amount": rng.uniform(0, 100, n).astype(np.float32),
            "s_qty": rng.integers(1, 10, n).astype(np.int32),
            "s_day": rng.integers(0, 1000, n).astype(np.int32),
            "s_tag": rng.integers(0, 3, n).astype(np.int32),
        }),
        "cust": Relation({
            "c_cust": np.arange(40, dtype=np.int32),
            "c_nation": rng.integers(0, 5, 40).astype(np.int32),
            "c_name": np.array([f"cust#{i:03d}" for i in range(40)]),
        }),
        "nation": Relation({
            "n_nation": np.arange(5, dtype=np.int32),
            "n_name": np.arange(5, dtype=np.int32),
        }),
    }


CASES = {
    "join_chain": """
        SELECT n_name, SUM(s_amount) AS total
        FROM sales, cust, nation
        WHERE s_cust = c_cust AND c_nation = n_nation
          AND s_amount > 10
        GROUP BY n_name
        ORDER BY total DESC
    """,
    "left_join_count": """
        SELECT c_cust, COUNT(sale_k) AS n_sales
        FROM cust LEFT JOIN sales ON c_cust = s_cust
        GROUP BY c_cust
    """,
    "exists_corr": """
        SELECT c_name
        FROM cust
        WHERE EXISTS (
            SELECT s_cust FROM sales
            WHERE s_cust = c_cust AND s_amount > 90)
    """,
    "not_exists_corr": """
        SELECT c_name
        FROM cust
        WHERE NOT EXISTS (
            SELECT s_cust FROM sales
            WHERE s_cust = c_cust AND s_amount > 90)
    """,
    "in_subquery": """
        SELECT sale_k, s_amount
        FROM sales
        WHERE s_cust IN (SELECT c_cust FROM cust WHERE c_nation = 3)
    """,
    "not_in_subquery": """
        SELECT sale_k
        FROM sales
        WHERE s_cust NOT IN (SELECT c_cust FROM cust WHERE c_nation = 0)
    """,
    "scalar_uncorrelated": """
        SELECT sale_k, s_amount
        FROM sales
        WHERE s_amount > (SELECT AVG(s_amount) AS m FROM sales)
    """,
    "scalar_correlated": """
        SELECT sale_k
        FROM sales
        WHERE s_amount > (
            SELECT AVG(s2.s_amount) AS m FROM sales AS s2
            WHERE s2.s_cust = sales.s_cust)
    """,
    "case_like_having": """
        SELECT c_name,
               SUM(CASE WHEN s_tag = 'red' THEN s_amount ELSE 0 END) AS red
        FROM sales, cust
        WHERE s_cust = c_cust AND c_name LIKE 'cust#0%'
        GROUP BY c_name
        HAVING SUM(s_qty) > 5
    """,
    "top_n": """
        SELECT sale_k, s_amount
        FROM sales
        WHERE s_day >= 100
        ORDER BY s_amount DESC, sale_k
        LIMIT 7
    """,
    "union_all": """
        SELECT sale_k FROM sales WHERE s_tag = 'red'
        UNION ALL
        SELECT sale_k FROM sales WHERE s_amount > 95
    """,
    "except_all": """
        SELECT s_cust FROM sales WHERE s_amount > 20
        EXCEPT
        SELECT c_cust AS s_cust FROM cust WHERE c_nation = 2
    """,
    "count_distinct": """
        SELECT s_tag, COUNT(DISTINCT s_cust) AS n_cust
        FROM sales
        GROUP BY s_tag
    """,
    "date_extract": """
        SELECT EXTRACT(YEAR FROM s_day) AS yr, SUM(s_amount) AS total
        FROM sales
        GROUP BY yr
        ORDER BY yr
    """,
}


@pytest.fixture(scope="module")
def tables():
    return _tables()


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_validates(name, tables):
    report = validate_sql(name, CASES[name], CAT, tables)
    assert report.status == "ok", f"{name}: {report.detail}"
    assert report.rows > 0, f"{name} returned no rows (degenerate case)"


@pytest.mark.parametrize("seed", [1, 2])
def test_seeds_validate(seed):
    tables = _tables(seed)
    for name, sql in CASES.items():
        report = validate_sql(name, sql, CAT, tables)
        assert report.status == "ok", f"{name}@seed{seed}: {report.detail}"


# ---------------------------------------------------------------------------
# ORDER BY ... DESC over tied keys: the ordering check must not treat the
# original order of tied rows as a violation
# ---------------------------------------------------------------------------

TOY = Catalog([Table("t", tuple(Column(f, "int") for f in "kvw"))])


def test_ordering_check_accepts_desc_ties():
    rel = Relation({"k": np.array([1, 2, 3], dtype=np.int32),
                    "n": np.array([5, 4, 4], dtype=np.int32)})
    assert ordering_violation(rel, ["n"], True) is None
    assert ordering_violation(rel, ["n"], [True]) is None
    assert ordering_violation(rel, ["n"], False) is not None


def test_desc_order_with_tied_counts_validates():
    rng = np.random.default_rng(0)
    tables = {"t": Relation({f: rng.integers(0, 60, 3000).astype(np.int32)
                             for f in "kvw"})}
    report = validate_sql(
        "having_desc",
        "SELECT k, COUNT(*) AS n FROM t GROUP BY k HAVING n > 40 "
        "ORDER BY n DESC", TOY, tables)
    assert report.status == "ok", report.detail
    assert report.rows > 0
