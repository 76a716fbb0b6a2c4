"""Property-based tests for the SQL front end.

Random queries are generated structurally, rendered to SQL text, and
compiled through the frontend against a toy catalog -- each must validate
``ok`` against the reference interpreter and match the directly-constructed
NumPy computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import (
    Catalog, Column, Table, compile_sql, run_plan, validate_sql,
)
from repro.ra import Relation
from repro.sql import parse

FIELDS = ["k", "v", "w"]
CAT = Catalog([Table("t", tuple(Column(f, "int") for f in FIELDS))])
CMPS = ["<", "<=", ">", ">=", "=", "!="]

comparison_st = st.tuples(st.sampled_from(FIELDS), st.sampled_from(CMPS),
                          st.integers(0, 60))


def _rel(seed, n=3000):
    rng = np.random.default_rng(seed)
    return Relation({f: rng.integers(0, 60, n).astype(np.int32)
                     for f in FIELDS})


def _mask(rel, comparisons, connector):
    import operator
    ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "=": operator.eq, "!=": operator.ne}
    masks = [ops[c](rel[f], t) for f, c, t in comparisons]
    out = masks[0]
    for m in masks[1:]:
        out = (out & m) if connector == "AND" else (out | m)
    return out


def _run(sql, rel):
    """Compile + execute `sql` over ``t = rel``, checked by the oracle."""
    tables = {"t": rel}
    report = validate_sql("query", sql, CAT, tables)
    assert report.status == "ok", f"{sql}: {report.detail}"
    return run_plan(compile_sql(sql, CAT), tables)


@given(st.lists(comparison_st, min_size=1, max_size=4),
       st.sampled_from(["AND", "OR"]), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_where_clause_matches_numpy(comparisons, connector, seed):
    rel = _rel(seed % 1000)
    where = f" {connector} ".join(f"{f} {c} {t}" for f, c, t in comparisons)
    out = _run(f"SELECT k, v, w FROM t WHERE {where}", rel)
    expected = int(_mask(rel, comparisons, connector).sum())
    assert out.num_rows == expected


@given(st.sampled_from(FIELDS), st.sampled_from(FIELDS),
       st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_grouped_sum_matches_numpy(group_field, value_field, scale, seed):
    rel = _rel(seed % 1000)
    out = _run(
        f"SELECT {group_field}, SUM({value_field} * {scale}) AS s "
        f"FROM t GROUP BY {group_field} ORDER BY {group_field}", rel)
    for g, s in zip(out[group_field], out["s"]):
        mask = rel[group_field] == g
        assert int(s) == int(rel[value_field][mask].sum()) * scale


@given(st.lists(comparison_st, min_size=1, max_size=3),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_parse_is_deterministic_and_stable(comparisons, seed):
    where = " AND ".join(f"{f} {c} {t}" for f, c, t in comparisons)
    sql = f"SELECT k FROM t WHERE {where}"
    q1, q2 = parse(sql), parse(sql)
    assert q1.where == q2.where
    assert [i.alias for i in q1.items] == [i.alias for i in q2.items]


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_between_equals_two_comparisons(lo, hi, seed):
    rel = _rel(seed % 1000)
    ra = _run(f"SELECT k FROM t WHERE k BETWEEN {lo} AND {hi}", rel)
    rb = _run(f"SELECT k FROM t WHERE k >= {lo} AND k <= {hi}", rel)
    assert ra.to_tuples() == rb.to_tuples()


@given(st.lists(comparison_st, min_size=1, max_size=3),
       st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sql_plans_survive_the_full_pipeline(comparisons, seed):
    """Every generated query must validate, compile and fuse."""
    from repro.core.passes import compile_plan
    where = " AND ".join(f"{f} {c} {t}" for f, c, t in comparisons)
    sql = f"SELECT k FROM t WHERE {where}"
    _run(sql, _rel(seed % 1000))
    cp = compile_plan(compile_sql(sql, CAT).plan, {"t": 1_000_000})
    assert cp.num_kernels >= 1
    assert cp.run().makespan > 0
