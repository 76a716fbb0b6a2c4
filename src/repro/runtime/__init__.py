"""Plan execution on the simulated platform: strategies, executor, metrics."""

from .executor import Executor, RunResult
from .hybrid import HybridRunResult, balance_split, run_hybrid_select
from .gpu_rt import GpuRuntime
from .sizes import estimate_sizes
from .strategies import CPU_BASELINE, ExecutionConfig, Strategy

__all__ = [
    "Executor", "RunResult", "GpuRuntime", "estimate_sizes",
    "ExecutionConfig", "Strategy", "CPU_BASELINE",
    "HybridRunResult", "balance_split", "run_hybrid_select",
]
