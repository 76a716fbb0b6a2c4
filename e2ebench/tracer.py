"""Outside-in layer tracing from the benchmark's own files.

:class:`Tracer` wraps the public entry points of each ``repro`` layer,
records one span per call (name, ``perf_counter_ns`` start and end, parent
span, op id), and puts every original back on exit.  Nothing under
``src/`` knows it is being traced.

* Class methods are replaced with ``setattr`` on the class.
* Module functions are imported by name into many modules, so every loaded
  ``repro.*`` module attribute that *is* the original function is rebound.

Spans stay in memory; :meth:`Tracer.write_chrome` writes them as a
Chrome-trace JSON file, and :class:`Profile` reduces them to self times,
call counts and per-site tallies.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (module, class, method): wrapped on the class
METHODS = (
    ("repro.optimizer.optimizer", "Optimizer", "choose"),
    ("repro.optimizer.optimizer", "Optimizer", "run"),
    ("repro.optimizer.costmodel", "CostModel", "estimate"),
    ("repro.runtime.executor", "Executor", "run"),
    ("repro.runtime.executor", "Executor", "run_cpubase"),
    ("repro.cluster.executor", "ClusterExecutor", "run"),
    ("repro.simgpu.engine", "SimEngine", "run"),
    ("repro.runtime.workload", "WorkloadScheduler", "run_batched_streams"),
    ("repro.serve.server", "QueryServer", "run"),
    ("repro.serve.dispatch", "DispatchEngine", "dispatch"),
    ("repro.serve.dispatch", "DispatchEngine", "dispatch_key"),
    ("repro.serve.scheduler", "BatchScheduler", "next_batch"),
    ("repro.optimizer.plancache", "PlanCache", "get"),
    ("repro.optimizer.plancache", "PlanCache", "put"),
)

#: (module, function): rebound wherever a loaded repro module holds it
FUNCTIONS = (
    ("repro.sql.parser", "parse"),
    ("repro.frontend.binder", "bind"),
    ("repro.frontend.lower", "lower"),
    ("repro.core.fusion", "fuse_plan"),
    ("repro.runtime.sizes", "estimate_sizes"),
    ("repro.analyze.memory_check", "check_strategy"),
    ("repro.optimizer.fingerprint", "plan_fingerprint"),
    ("repro.plans.interp", "evaluate"),
)

#: every span name a wrapped site records
SITE_NAMES = tuple(f"{cls}.{attr}" for _, cls, attr in METHODS) + tuple(
    attr for _, attr in FUNCTIONS)

#: executor entry points whose time, when called from Optimizer.choose,
#: is simulate-to-confirm
EXECUTOR_RUNS = frozenset(
    {"Executor.run", "Executor.run_cpubase", "ClusterExecutor.run"})

#: the benchmark's own span around one op
ROOT = "op"


def _timeline_len(args, kwargs) -> int:
    # SimEngine.run(self, streams, timeline=None, start_time=0.0) appends
    # to a caller's timeline when given one
    tl = kwargs.get("timeline", args[2] if len(args) > 2 else None)
    return len(tl.events) if tl is not None else 0


def _engine_tally(before, args, result) -> dict:
    from repro.simgpu.timeline import EventKind
    new = result.events[before:]
    return {"events": len(new),
            "kernels": sum(1 for ev in new if ev.kind is EventKind.KERNEL)}


def _sink_rows(before, args, result) -> dict:
    plan = args[0]
    return {"rows_out": sum(result[n.name].num_rows for n in plan.sinks())}


#: span name -> (before(args, kwargs), after(before, args, result)):
#: tallies recorded on the span; ``before`` runs ahead of the clock
HOOKS = {
    "SimEngine.run": (_timeline_len, _engine_tally),
    # bytes the cluster layer moves off its devices: exchange plus merge
    "ClusterExecutor.run": (None, lambda _, args, result: {
        "exchange_bytes": round(result.exchange_out_bytes
                                + result.merge_bytes)}),
    "PlanCache.get": (None, lambda _, args, result: {
        "hits": int(result is not None)}),
    "evaluate": (None, _sink_rows),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0
        self.info: dict | None = None


class Tracer:
    """Context manager: wraps every site on entry, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        #: id(wrapper) -> (wrapper, original)
        self._wrappers: dict[int, tuple] = {}
        #: (owner, attribute, original, owner defined it itself)
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- spans -----------------------------------------------------------
    @contextmanager
    def op(self, op_id: int, key: str, weight: int):
        """The root span of one benchmark op; wrapped calls inside it
        carry `op_id`."""
        span = Span(ROOT, -1, op_id)
        span.info = {"key": key, "weight": weight}
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        before, after = HOOKS.get(name, (None, None))
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = Span(name, stack[-1] if stack else -1, tracer._op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                span.info = after(state, args, result)
            return result

        self._wrappers[id(traced)] = (traced, fn)
        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        owned = attr in vars(owner)
        self._patched.append(
            (owner, attr, vars(owner)[attr] if owned else None, owned))
        setattr(owner, attr, value)

    def _install(self) -> None:
        for module, cls, attr in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._set(owner, attr, self._wrap(getattr(owner, attr),
                                              f"{cls}.{attr}"))
        for module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self._wrap(original, attr)
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, traced)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        # a module first imported while tracing copied a wrapper by name
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, name, pair[1])

    # -- export ----------------------------------------------------------
    def write_chrome(self, path) -> None:
        """Write every span as a Chrome-trace ("X" complete) event."""
        t0 = min((s.start for s in self.spans), default=0)
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start - t0) / 1e3, "dur": (s.end - s.start) / 1e3,
            "args": {"id": i, "parent": s.parent, "op": s.op,
                     **(s.info or {})},
        } for i, s in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Profile:
    """Span totals by name: self time, inclusive time, calls, tallies."""

    def __init__(self, spans: list[Span]):
        child_ns = [0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.tally: dict[str, Counter] = defaultdict(Counter)
        #: inclusive time of executor runs whose nearest executor-or-
        #: choose ancestor is Optimizer.choose
        self.confirm_ns = 0
        for i, s in enumerate(spans):
            dur = s.end - s.start
            self.self_ns[s.name] += dur - child_ns[i]
            self.incl_ns[s.name] += dur
            self.calls[s.name] += 1
            if s.info and s.name != ROOT:
                self.tally[s.name].update(s.info)
            if s.name in EXECUTOR_RUNS:
                p = s.parent
                while p >= 0 and spans[p].name not in EXECUTOR_RUNS \
                        and spans[p].name != "Optimizer.choose":
                    p = spans[p].parent
                if p >= 0 and spans[p].name == "Optimizer.choose":
                    self.confirm_ns += dur

    @property
    def root_self_share(self) -> float:
        """Share of op wall time no wrapped site covers."""
        total = self.incl_ns[ROOT]
        return self.self_ns[ROOT] / total if total else 0.0
