"""OPT5xx optimizer lints: planted-defect detection on hand-forced
strategies."""

from repro.analyze import Analyzer, OptimizerLintPass, Severity
from repro.optimizer import StrategyTarget
from repro.runtime import Strategy
from repro.runtime.select_chain import select_chain_plan
from repro.tpch import build_q1_plan, q1_source_rows


def _codes(report):
    return [d.code for d in report.diagnostics]


class TestOpt501:
    def test_planted_defect_forced_round_trip_flagged(self):
        # the planted defect: a fusable 3-op chain at 50M rows, with the
        # paper's worst strategy hand-forced -- the analytic model prices
        # it far beyond 2x the best option
        target = StrategyTarget(select_chain_plan(3), {"input": 50_000_000},
                                Strategy.WITH_ROUND_TRIP)
        report = Analyzer().run(target)
        assert "OPT501" in _codes(report)
        diag = next(d for d in report.diagnostics if d.code == "OPT501")
        assert diag.severity is Severity.WARNING
        assert "with_round_trip" in str(diag.location)
        assert "x the best option" in diag.message

    def test_well_forced_strategy_is_clean(self):
        target = StrategyTarget(select_chain_plan(3), {"input": 50_000_000},
                                Strategy.FUSED_FISSION)
        report = Analyzer().run(target)
        assert "OPT501" not in _codes(report)

    def test_lints_never_error(self):
        """OPT5xx are advisory: a forced strategy is legal, so the strict
        corpus gate (errors only) must never trip on them."""
        target = StrategyTarget(select_chain_plan(3), {"input": 50_000_000},
                                Strategy.WITH_ROUND_TRIP)
        report = Analyzer().run(target, strict=True)  # must not raise
        assert report.errors == []


class TestOpt502:
    def test_cpu_side_input_with_forced_gpu_strategy(self):
        # 10k rows never amortize the PCIe round trip: the host baseline
        # wins and the info lint says so
        target = StrategyTarget(select_chain_plan(3), {"input": 10_000},
                                Strategy.FUSED)
        report = Analyzer().run(target)
        assert "OPT502" in _codes(report)
        diag = next(d for d in report.diagnostics if d.code == "OPT502")
        assert diag.severity is Severity.INFO

    def test_forced_cpubase_not_flagged(self):
        target = StrategyTarget(select_chain_plan(3), {"input": 10_000},
                                "cpubase")
        report = Analyzer().run(target)
        assert "OPT502" not in _codes(report)

    def test_crossover_read_from_the_simulated_prices(self):
        # the optimizer picks the host baseline for Q1 at 50M rows; the
        # lint reads that decision, not an analytic GPU price
        target = StrategyTarget(build_q1_plan(), q1_source_rows(50_000_000),
                                Strategy.FUSED)
        report = Analyzer().run(target)
        assert "OPT502" in _codes(report)
        diag = next(d for d in report.diagnostics if d.code == "OPT502")
        assert "simulated" in diag.message

    def test_large_input_not_flagged(self):
        target = StrategyTarget(select_chain_plan(3), {"input": 100_000_000},
                                Strategy.FUSED_FISSION)
        report = Analyzer().run(target)
        assert "OPT502" not in _codes(report)


class TestDispatch:
    def test_pass_registered_on_framework(self):
        an = Analyzer()
        assert isinstance(an.opt_lints, OptimizerLintPass)
        target = StrategyTarget(select_chain_plan(2), {"input": 1_000_000},
                                Strategy.SERIAL)
        report = an.run(target)
        assert "optimizer-lints" in report.passes_run


class TestNothingToCompare:
    def test_no_feasible_option(self, monkeypatch):
        from repro.errors import PlanError
        from repro.optimizer import Optimizer

        def infeasible(self, plan, *args, **kwargs):
            raise PlanError("no feasible execution strategy")

        monkeypatch.setattr(Optimizer, "choose", infeasible)
        target = StrategyTarget(select_chain_plan(3), {"input": 10_000},
                                Strategy.FUSED)
        assert _codes(Analyzer().run(target)) == []
