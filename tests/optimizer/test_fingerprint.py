"""``canonical`` renders every value byte-identically to its reference.

The reference below is a verbatim copy of the original, type-check-chain
``canonical``.  The production renderer dispatches on ``type(obj)``
through a per-type table instead; every cache key, checksum and summary
digest in the system depends on the two agreeing byte for byte.  Three
digests are also pinned as literals, so a change to both copies at once
still fails here.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import pickle
from typing import Any, ClassVar, NamedTuple

import numpy as np
import pytest

from repro.optimizer import Optimizer, PlanCache
from repro.optimizer import fingerprint
from repro.optimizer.fingerprint import (calibration_fingerprint, canonical,
                                         plan_fingerprint)
from repro.serve import DEFAULT_TENANTS, ArrivalProcess, QueryServer, ServeConfig
from repro.serve.arrivals import QUERY_KINDS, catalog_plan
from repro.simgpu.device import DeviceSpec
from repro.simgpu.timeline import EventKind, Timeline, TimelineEvent
from repro.tpch.catalog import QUERIES, compile_tpch, tpch_source_rows


def reference_canonical(obj: Any) -> str:
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(reference_canonical(x) for x in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        return ("{" + ",".join(f"{reference_canonical(k)}:{reference_canonical(v)}"
                               for k, v in items) + "}")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(f"{f.name}={reference_canonical(getattr(obj, f.name))}"
                          for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    if hasattr(obj, "__dict__"):
        items = ",".join(f"{k}={reference_canonical(v)}"
                         for k, v in sorted(vars(obj).items()))
        return f"{type(obj).__name__}({items})"
    return repr(obj)


def assert_same(obj: Any) -> None:
    assert canonical(obj) == reference_canonical(obj)


def reference_digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(reference_canonical(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def fingerprint_items(plan) -> list:
    """The items ``plan_fingerprint`` hashes."""
    return [(node.op.value, node.name, tuple(i.name for i in node.inputs),
             node.selectivity, node.out_row_nbytes, node.params)
            for node in plan.topological()]


class _RecordingCache(PlanCache):
    """A PlanCache that keeps every value it is handed."""

    def __init__(self):
        super().__init__(capacity=4096)
        self.stored: list = []

    def put(self, key, value):
        self.stored.append(value)
        super().put(key, value)


# ---------------------------------------------------------------------------
# system values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", QUERY_KINDS)
def test_catalog_plan_items(kind):
    plan = catalog_plan(kind)
    assert_same(fingerprint_items(plan))
    assert plan_fingerprint(plan) == reference_digest(
        "plan", plan.name, fingerprint_items(plan))


@pytest.mark.parametrize("name", list(QUERIES))
def test_tpch_plan_items(name):
    assert_same(fingerprint_items(compile_tpch(name).plan))


def test_calibration():
    device = DeviceSpec()
    assert_same(device.calib)
    assert_same(device)


@pytest.mark.parametrize("devices", [1, 4])
def test_cached_optimizer_values(devices):
    """Decisions and absint verdicts, as cached.  A distribution is not
    cached: its plan keeps the split, so it is rebuilt, not looked up."""
    cache = _RecordingCache()
    opt = Optimizer(cache=cache)
    rows = tpch_source_rows(0.01)
    for name in QUERIES:
        opt.choose(compile_tpch(name).plan, rows, max_devices=devices)
    kinds = {type(v).__name__ for v in cache.stored}
    assert "Decision" in kinds
    assert "DistributedPlan" not in kinds
    for value in cache.stored:
        assert_same(value)


def test_serve_outcomes():
    cache = _RecordingCache()
    trace = ArrivalProcess(20, 10.0, DEFAULT_TENANTS, seed=7).trace()
    QueryServer(config=ServeConfig(devices=2, queue_capacity=4096,
                                   plan_cache=cache)).run(trace)
    assert cache.stored
    for value in cache.stored:
        assert value[1].frozen
        assert_same(value)


# ---------------------------------------------------------------------------
# edge types
# ---------------------------------------------------------------------------

class Color(enum.Enum):
    RED = 1
    BLUE = (2, "b")


class Level(enum.IntEnum):
    LOW = 1


class Mode(str, enum.Enum):
    FAST = "fast"


class Pair(NamedTuple):
    a: int
    b: float


@dataclasses.dataclass(frozen=True)
class Inner:
    x: float
    color: Color = Color.RED


@dataclasses.dataclass
class Outer:
    inner: Inner
    items: list = dataclasses.field(default_factory=list)
    tag: ClassVar[str] = "not a field"


@dataclasses.dataclass
class Derived(Outer):
    extra: Any = None


@dataclasses.dataclass(slots=True)
class Slotted:
    a: int
    b: Any = None


class SlottedPlain:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __repr__(self):
        return f"SlottedPlain<{self.a}>"


class Plain:
    def __init__(self):
        self.z = [1, 2.5]
        self.a = {"k": Level.LOW}


class Namespace:
    answer = 42


EDGE_VALUES = [
    None, True, False, 0, 1, -7, 2**80, "", "s'q\"", b"\x00b",
    0.0, -0.0, 1.5, float("nan"), float("inf"), -math.inf,
    Color.RED, Color.BLUE, Level.LOW, Mode.FAST,
    [True, 1, 1.0, "1"], (None,), (), Pair(1, 2.0), [Pair(3, -0.0)],
    {3, "3", (3,)}, frozenset({1.5, "x"}), set(),
    {1: "a", "1": "b", (1,): "c", None: "d", 1.5: "e", Color.RED: "f"},
    {"nested": {"k": [1, {2: (3, 4)}]}},
    Inner(1.0), Outer(Inner(float("nan"), Color.BLUE), [Inner(-0.0)]),
    Derived(Inner(2.0), [], extra=Slotted(1, {"a": b"x"})),
    Slotted(5), SlottedPlain(3), Plain(), Namespace,
    np.float64(1.25), np.float32(0.1), np.int64(7), np.bool_(True),
    np.int8(-3),
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=lambda v: type(v).__name__)
def test_edge_types(value):
    assert_same(value)
    # and again, now that the type's renderer is memoized
    assert_same(value)


def test_bool_and_int_render_differently():
    assert canonical(True) != canonical(1)
    assert canonical([True]) != canonical([1])


# ---------------------------------------------------------------------------
# the Timeline memo
# ---------------------------------------------------------------------------

def _timeline(n: int) -> Timeline:
    tl = Timeline()
    for i in range(n):
        tl.add(i * 1.5, i * 1.5 + 1.25, EventKind.KERNEL, f"k{i}",
               stream=i % 3, nbytes=1e6 + i, sms=8)
    return tl


@pytest.fixture()
def event_renders(monkeypatch):
    """Counts ``canonical`` calls on TimelineEvents: the work a rendering
    of a timeline does, which its memo saves."""
    counts = {"events": 0}
    original = fingerprint.canonical

    def counting(obj):
        if type(obj) is TimelineEvent:
            counts["events"] += 1
        return original(obj)

    monkeypatch.setattr(fingerprint, "canonical", counting)
    return counts


class TestTimelineMemo:
    def test_unfrozen_rendering_follows_add(self, event_renders):
        tl = _timeline(3)
        before = canonical(tl)
        assert canonical(tl) == before
        tl.add(9.0, 9.5, EventKind.D2H, "late")
        after = canonical(tl)
        assert after != before
        assert after == reference_canonical(tl)
        assert event_renders["events"] == 3 + 3 + 4   # no memo unfrozen

    def test_frozen_renders_like_its_unfrozen_twin(self, event_renders):
        frozen, twin = _timeline(4).freeze(), _timeline(4)
        want = reference_canonical(twin)
        assert reference_canonical(frozen) == want
        assert canonical(twin) == want
        assert canonical(frozen) == want
        assert canonical(frozen) == want
        assert fingerprint.digest("entry", (1.0, frozen)) == reference_digest(
            "entry", (1.0, twin))
        assert event_renders["events"] == 4 + 4      # twin, then frozen once

    def test_freeze_is_idempotent_and_keeps_the_memo(self, event_renders):
        tl = _timeline(2).freeze()
        first = canonical(tl)
        assert tl.freeze() is tl
        assert canonical(tl) == first
        assert event_renders["events"] == 2

    def test_pickle_round_trip_renders_the_same(self, event_renders):
        tl = _timeline(3).freeze()
        want = canonical(tl)
        back = pickle.loads(pickle.dumps(tl))
        assert back.frozen
        assert canonical(back) == canonical(back) == want
        assert event_renders["events"] == 3 + 3      # one render per copy

    def test_a_hit_renders_a_cached_outcome_once(self, event_renders):
        cache = PlanCache()
        outcome = (2.75, _timeline(5).freeze(), False, 0, 0)
        cache.put("k", outcome)
        for _ in range(4):
            assert cache.get("k") is outcome
        assert cache.hits == 4 and cache.corruptions == 0
        assert event_renders["events"] == 5


# ---------------------------------------------------------------------------
# pinned digests
# ---------------------------------------------------------------------------

class TestPinnedDigests:
    def test_catalog_q6(self):
        assert plan_fingerprint(catalog_plan("q6")) == (
            "e3a1e43353dc4bf1a70715259c6f78ce03f36f8447c45ba2b2c819cfafba84e2")

    def test_tpch_q1(self):
        assert plan_fingerprint(compile_tpch("q1").plan) == (
            "d7966b03209fdd7aa88457718e0bc3dd777d9f880d957c43f3b471615a8fd453")

    def test_default_calibration(self):
        assert calibration_fingerprint(DeviceSpec()) == (
            "898540aa787cc9b70c1d951a2a88bcc75c5bc774e54be4db08184143b10fd7a4")
