"""Every frontend-compiled TPC-H query is enumerable by the optimizer.

``Optimizer.choose`` must price a non-empty strategy space and return a
confirmed decision for each compiled plan (sf 0.01 on 2 devices keeps
the simulator's confirmations fast across all 22 queries).
"""

from __future__ import annotations

import pytest

from repro.optimizer.optimizer import Optimizer
from repro.tpch.catalog import QUERIES, compile_tpch, tpch_source_rows


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_choose_returns_a_decision(name):
    compiled = compile_tpch(name, scale_factor=0.01)
    opt = Optimizer()
    decision = opt.choose(compiled.plan, tpch_source_rows(0.01),
                          max_devices=2)
    assert decision.chosen is not None
    assert decision.chosen.price_s > 0
    # the chooser's price is the simulator's, not the analytic estimate
    assert decision.chosen.sim_makespan_s == decision.chosen.price_s
    assert len(decision.candidates) >= 2, \
        f"{name}: strategy space collapsed to {len(decision.candidates)}"
