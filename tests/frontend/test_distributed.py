"""Frontend plans on the cluster path: distributed == single-device, bytewise.

Three representative frontend-compiled queries (a 3-way join top-N, a
CASE-aggregate join, and a disjunctive multi-predicate join) are
distributed over 4 shards and must reproduce the single-device
interpreter's bytes exactly.  All three run their suffix in host mode,
not through the exchange.  q14 and q19 really partition their sources;
q3 does not yet (see ``test_partitions_on_the_real_schema``), so its
functional run takes the unpartitioned fallback.
"""

from __future__ import annotations

import pytest

from repro.cluster.executor import ClusterExecutor
from repro.frontend import run_plan
from repro.frontend.validate import compare_relations
from repro.plans.distribute import distribute_plan
from repro.tpch.catalog import compile_tpch, tpch_dataset, tpch_source_rows

SCALE = 0.002
QUERIES = ["q3", "q14", "q19"]


@pytest.fixture(scope="module")
def tables():
    return tpch_dataset(scale_factor=SCALE, seed=1992)


@pytest.mark.parametrize("name", QUERIES)
def test_four_shards_byte_identical(name, tables):
    compiled = compile_tpch(name, scale_factor=SCALE)
    single = run_plan(compiled, tables)
    dist = distribute_plan(compiled.plan, tpch_source_rows(SCALE),
                           num_shards=4)
    sharded = ClusterExecutor().functional(dist, tables)[compiled.sink.name]
    diff = compare_relations(sharded, single)
    assert diff is None, f"{name}@x4: {diff}"
    assert single.num_rows > 0, f"{name} is degenerate at sf={SCALE}"


@pytest.mark.parametrize("name", [
    pytest.param("q3", marks=pytest.mark.xfail(
        strict=True,
        reason="the rewrite labels orders and lineitem partitioned on "
               "c_custkey, a column neither has: _joined_on matches the "
               "probe's key name even for a source on the build side")),
    "q14", "q19"])
def test_partitions_on_the_real_schema(name, tables):
    """The sharded run above compares something only when the sources
    really split on their partition keys; otherwise ``functional`` falls
    back to the unsharded interpreter."""
    compiled = compile_tpch(name, scale_factor=SCALE)
    dist = distribute_plan(compiled.plan, tpch_source_rows(SCALE),
                           num_shards=4)
    assert dist.suffix_mode == "host"
    assert ClusterExecutor()._partitionable(dist, tables)
