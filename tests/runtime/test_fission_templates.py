"""Fission builds each segment size's launches once per run.

``plan_segments`` cuts the driver into near-equal segments, so one run has
at most two segment sizes.  The Executor's fission path must lower each
prefix region at most once per size, not once per segment; phase A and
phase C regions run once and are lowered once.  Counts calls only.
"""

import re
from collections import Counter

import pytest

from repro.core.fission import split_for_fission
from repro.core.kernel import KernelChain
from repro.runtime import ExecutionConfig, Executor, Strategy
from repro.tpch.catalog import compile_tpch, tpch_source_rows

SCALE = 30


@pytest.mark.parametrize("query", ["q1", "q3"])
def test_prefix_launches_built_once_per_segment_size(query, monkeypatch):
    plan = compile_tpch(query, scale_factor=SCALE).plan
    calls: Counter = Counter()
    build = KernelChain.main_launch_specs

    def counted(self, *args, **kwargs):
        calls[id(self)] += 1
        return build(self, *args, **kwargs)

    monkeypatch.setattr(KernelChain, "main_launch_specs", counted)
    result = Executor().run(plan, tpch_source_rows(SCALE),
                            ExecutionConfig(strategy=Strategy.FUSED_FISSION))

    segments = {m.group(1) for e in result.timeline.events
                for m in [re.search(r"\.seg(\d+)$", e.tag)] if m}
    assert len(segments) > 3
    driver = max(plan.sources(), key=lambda s: result.sizes[s.name])
    prefix, phase_a, rest = split_for_fission(result.fusion.regions, driver)
    assert prefix
    assert sum(calls.values()) <= 2 * len(prefix) + len(phase_a) + len(rest)
    assert max(calls.values()) <= 2
