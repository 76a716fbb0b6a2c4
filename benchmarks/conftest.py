"""Benchmark-suite configuration.

Each ``bench_*`` module reproduces one table or figure of the paper: it
runs the simulation at the paper's parameters, prints the same series/rows
the paper reports plus a paper-vs-measured comparison, and times the
simulation itself through pytest-benchmark (the benchmark metric is
simulator throughput, not simulated GPU time).

Pass ``--validate`` to sanitize every simulated schedule against the
device-model invariants (see ``docs/VALIDATION.md``) while the benchmarks
run; any violation fails the scenario.
"""

import pytest


def pytest_addoption(parser):
    try:
        parser.addoption(
            "--validate", action="store_true", default=False,
            help="audit every simulated schedule with the timeline "
                 "sanitizer (repro.validate) during benchmark runs")
    except ValueError:
        pass  # already registered by another conftest
    try:
        parser.addoption(
            "--json", metavar="PATH", default=None,
            help="machine-readable output: benchmarks that support it "
                 "write BENCH_<experiment>.json reports under PATH (a "
                 "directory) or to PATH itself (a file)")
    except ValueError:
        pass


@pytest.fixture(scope="session", autouse=True)
def _bench_json_target(request):
    """Publish the --json target to the harness (repro.bench.emit_json)."""
    target = request.config.getoption("--json", default=None)
    if not target:
        yield
        return
    mp = pytest.MonkeyPatch()
    from repro.bench import JSON_ENV
    mp.setenv(JSON_ENV, target)
    yield
    mp.undo()


@pytest.fixture(scope="session", autouse=True)
def _sanitize_benchmark_schedules(request):
    """When --validate is given, audit every engine run in the session,
    and every :class:`GpuRuntime` run's byte conservation (spills
    included)."""
    if not request.config.getoption("--validate", default=False):
        yield
        return

    from repro.runtime import GpuRuntime
    from repro.simgpu.engine import SimEngine
    from repro.validate import validate_run, validate_timeline

    mp = pytest.MonkeyPatch()
    engine_run = SimEngine.run
    runtime_run = GpuRuntime.run

    def checked_run(self, streams, timeline=None, start_time=0.0):
        tl = engine_run(self, streams, timeline, start_time)
        if not self.check:
            validate_timeline(tl, self.device).raise_if_failed()
        return tl

    def checked_runtime_run(self, plan, sources):
        result = runtime_run(self, plan, sources)
        validate_run(result, self.device).raise_if_failed()
        return result

    mp.setattr(SimEngine, "run", checked_run)
    mp.setattr(GpuRuntime, "run", checked_runtime_run)
    yield
    mp.undo()


@pytest.fixture(scope="session")
def device():
    from repro.simgpu import DeviceSpec
    return DeviceSpec()


@pytest.fixture(scope="session")
def executor(device, request):
    from repro.runtime import Executor
    return Executor(device,
                    check=request.config.getoption("--validate", default=False))
