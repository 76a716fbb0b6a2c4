"""Content-addressed fingerprints for plans, stats, and platform config.

Everything the optimizer caches is keyed by sha256 over a *canonical*
rendering of the inputs: plan DAG structure (ops, edges, parameters,
annotations), data-stats digests, and the calibration constants of the
simulated platform.  Two semantically identical inputs always render to
the same string; any change to an op parameter, a selectivity annotation,
a calibration constant, or a cluster shape changes the digest.

The canonical form is intentionally repr-based, not pickle-based: it is
stable across processes and Python versions, human-inspectable when
debugging a surprising cache miss, and free of object identity.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Callable

from ..plans.plan import Plan
from ..simgpu.device import DeviceSpec
from ..simgpu.timeline import Timeline


def canonical(obj: Any) -> str:
    """A deterministic, identity-free rendering of ``obj``.

    Handles the value types that appear in plan parameters and platform
    config: scalars, strings, enums, containers (dicts sorted by key),
    dataclasses (by field), and plain objects (by ``__dict__``, sorted).
    Dispatch is by ``type(obj)`` through :data:`_RENDERERS`, one renderer
    per type chosen in this order (first match wins):

    1. ``None`` and subclasses of bool/int/str/bytes/float -- ``repr``
       (so ``IntEnum`` and str-mixin enums render by ``repr`` too);
    2. other enums -- ``Type.NAME``;
    3. list/tuple (incl. ``NamedTuple``) -- ``[a,b]``;
    4. set/frozenset -- ``{..}`` with sorted elements;
    5. dict -- ``{k:v}`` sorted by ``repr(key)``;
    6. dataclass instances -- ``Type(f=v,..)`` in field order;
    7. anything else -- ``Type(k=v,..)`` over sorted ``vars()`` when the
       instance has a ``__dict__``, else ``repr``.

    A :class:`~repro.simgpu.timeline.Timeline` renders as the dataclass
    it is, but a frozen one keeps its rendering after the first call
    (:meth:`~repro.simgpu.timeline.Timeline.memo`): its events cannot
    change, and a serve-cache hit re-renders the cached outcome holding it.
    """
    render = _RENDERERS.get(type(obj))
    if render is None:
        render = _RENDERERS[type(obj)] = _renderer_for(type(obj))
    return render(obj)


def _render_enum(obj: enum.Enum) -> str:
    return f"{type(obj).__name__}.{obj.name}"


def _render_sequence(obj: list | tuple) -> str:
    return "[" + ",".join([canonical(x) for x in obj]) + "]"


def _render_set(obj: set | frozenset) -> str:
    return "{" + ",".join(sorted([canonical(x) for x in obj])) + "}"


def _render_dict(obj: dict) -> str:
    items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
    return ("{" + ",".join([f"{canonical(k)}:{canonical(v)}"
                            for k, v in items]) + "}")


def _render_dataclass(cls: type) -> Callable[[Any], str]:
    prefix = f"{cls.__name__}("
    names = tuple(f.name for f in dataclasses.fields(cls))

    def render(obj: Any) -> str:
        return prefix + ",".join([f"{name}={canonical(getattr(obj, name))}"
                                  for name in names]) + ")"
    return render


def _render_object(obj: Any) -> str:
    # checked per instance: a __getattr__ hook may supply __dict__ for
    # some instances of a type and not others
    if hasattr(obj, "__dict__"):
        items = ",".join([f"{k}={canonical(v)}"
                          for k, v in sorted(vars(obj).items())])
        return f"{type(obj).__name__}({items})"
    return repr(obj)


def _renderer_for(cls: type) -> Callable[[Any], str]:
    if cls is type(None) or issubclass(cls, (bool, int, str, bytes, float)):
        return repr
    if issubclass(cls, enum.Enum):
        return _render_enum
    if issubclass(cls, (list, tuple)):
        return _render_sequence
    if issubclass(cls, (set, frozenset)):
        return _render_set
    if issubclass(cls, dict):
        return _render_dict
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _render_dataclass(cls)
    return _render_object


_render_timeline_fields = _render_dataclass(Timeline)


def _render_timeline(obj: Timeline) -> str:
    return obj.memo(_render_timeline_fields)


class RenderedTuple(tuple):
    """A tuple rendered once, when it is built: :func:`canonical` gives
    the plain tuple's text without walking it again.  For fixed values
    that many keys hash, such as a serve request's fingerprint."""

    def __new__(cls, items=()):
        self = super().__new__(cls, items)
        self.text = _render_sequence(self)
        return self


#: type -> renderer, filled on first sight of each type (a pure memo: the
#: choice depends only on the type's bases and dataclass fields)
_RENDERERS: dict[type, Callable[[Any], str]] = {
    Timeline: _render_timeline, RenderedTuple: lambda obj: obj.text}


def digest(*parts: Any) -> str:
    """sha256 hex digest over the canonical forms of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def plan_fingerprint(plan: Plan) -> str:
    """Hash of the plan DAG: ops, edges (by node name), parameters, and
    the cardinality annotations the timing model trusts."""
    items = []
    for node in plan.topological():
        items.append((
            node.op.value,
            node.name,
            tuple(inp.name for inp in node.inputs),
            node.selectivity,
            node.out_row_nbytes,
            node.params,
        ))
    return digest("plan", plan.name, items)


def calibration_fingerprint(device: DeviceSpec) -> str:
    """Hash of every calibration constant of a simulated device (GPU,
    PCIe, CPU) plus the device-level knobs (copy engines)."""
    return digest("calibration", device.calib, device.num_copy_engines)


def cluster_fingerprint(num_devices: int, scheme: str, seed: int,
                        pcie_sharers: int | None = None) -> str:
    """Hash of a cluster shape (ClusterSpec-equivalent identity)."""
    return digest("cluster", num_devices, scheme, seed, pcie_sharers)
