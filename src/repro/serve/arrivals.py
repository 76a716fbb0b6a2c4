"""Client model: who asks what, when.

Tenants offer queries from a fixed catalog (TPC-H Q1/Q6/Q21 plus two
SQL shapes compiled through :func:`repro.frontend.compile_sql`).  Two
client disciplines are modeled:

* **open loop** -- a merged Poisson process at the configured offered load;
  each arrival picks a tenant by weight and a query kind from the tenant's
  mix.  Arrivals do not wait for completions, so overload queues up --
  exactly the regime admission control exists for.
* **closed loop** -- a tenant with ``closed_loop_clients > 0`` models that
  many clients, each issuing its next query an exponential think time
  after its previous one completes (feedback through
  :meth:`ArrivalProcess.on_completion`).

Determinism: every draw comes from ``random.Random`` streams derived from
the process seed (per-client streams for closed-loop tenants), so a trace
is a pure function of ``(seed, qps, duration, tenants)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from ..frontend import Catalog, Column, Table, compile_sql
from ..plans.plan import Plan
from ..tpch import (
    build_q1_plan,
    build_q21_plan,
    build_q6_plan,
    q1_source_rows,
    q21_source_rows,
    q6_source_rows,
)

# ---------------------------------------------------------------------------
# query catalog
# ---------------------------------------------------------------------------

#: SQL shapes served alongside the TPC-H plans.  The serve catalog's
#: ``lineitem`` is four 4-byte columns -- Q6's 16 B/row -- so these batch
#: with Q6 over the same upload.
_SERVE_CATALOG = Catalog([Table("lineitem", (
    Column("orderkey", "int"),
    Column("returnflag", "int"),
    Column("quantity", "float"),
    Column("shipdate", "date"),
))])
_SQL = {
    "sql_scan": "SELECT orderkey FROM lineitem WHERE orderkey < 1000",
    "sql_agg": ("SELECT returnflag, COUNT(*) AS n FROM lineitem "
                "GROUP BY returnflag"),
}


@lru_cache(maxsize=None)
def catalog_plan(kind: str) -> Plan:
    """The (cached, validated and so frozen) logical plan for a catalog
    query kind, shared by every request of that kind."""
    if kind == "q1":
        plan = build_q1_plan()
    elif kind == "q6":
        plan = build_q6_plan()
    elif kind == "q21":
        plan = build_q21_plan()
    elif kind in _SQL:
        plan = compile_sql(_SQL[kind], _SERVE_CATALOG,
                           name="sql_lineitem").plan
    elif kind.startswith("tpch_q"):
        from ..tpch.catalog import compile_tpch
        plan = compile_tpch(kind[len("tpch_"):]).plan
    else:
        raise KeyError(f"unknown catalog query kind {kind!r}")
    plan.validate()
    return plan


def catalog_rows(kind: str, elements: int) -> dict[str, int]:
    """Source cardinalities for a catalog query at `elements` lineitems."""
    if kind == "q1":
        return q1_source_rows(elements)
    if kind == "q21":
        return q21_source_rows(elements, elements // 4,
                               max(1, elements // 600))
    if kind in ("q6", "sql_scan", "sql_agg"):
        return q6_source_rows(elements)
    if kind.startswith("tpch_q"):
        from ..tpch import schema
        sf = elements / schema.BASE_ROWS["lineitem"]
        return {t: schema.scaled_rows(t, sf) for t in schema.BASE_ROWS}
    raise KeyError(f"unknown catalog query kind {kind!r}")


@lru_cache(maxsize=None)
def request_fingerprint(kind: str, elements: int
                        ) -> tuple[str, tuple[tuple[str, int], ...]]:
    """Content identity of a catalog request: the plan fingerprint of
    ``kind`` plus its sorted source cardinalities at ``elements``,
    computed and rendered once per ``(kind, elements)`` (every dispatch
    key hashes it)."""
    from ..optimizer.fingerprint import RenderedTuple, plan_fingerprint
    return RenderedTuple((plan_fingerprint(catalog_plan(kind)),
                          tuple(sorted(catalog_rows(kind, elements).items()))))


#: the frontend-compiled suite (src/repro/tpch/catalog.py), served under
#: a ``tpch_`` prefix to keep the hand-built q1/q6/q21 plans distinct
FRONTEND_KINDS = tuple(f"tpch_q{i}" for i in range(1, 23))

QUERY_KINDS = ("q1", "q6", "q21", "sql_scan", "sql_agg") + FRONTEND_KINDS


# ---------------------------------------------------------------------------
# tenants and requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantSpec:
    """One traffic class: its query mix, load share, and SLO."""

    name: str
    #: (kind, weight) pairs -- kept ordered so draws are deterministic
    mix: tuple[tuple[str, float], ...]
    #: share of the open-loop offered load (ignored for closed-loop tenants)
    weight: float = 1.0
    #: dispatch priority; 0 is most urgent
    priority: int = 1
    #: per-query latency SLO, relative to arrival
    deadline_s: float = 1.0
    #: per-query input scale (simulated lineitem cardinality)
    elements: int = 4_000_000
    #: > 0 switches this tenant to the closed-loop discipline
    closed_loop_clients: int = 0
    #: mean think time between a completion and the client's next query
    think_s: float = 0.05

    def __post_init__(self):
        if not self.mix:
            raise ValueError(f"tenant {self.name!r} has an empty mix")
        for kind, _ in self.mix:
            if kind not in QUERY_KINDS:
                raise KeyError(f"unknown catalog query kind {kind!r}")


#: the default serving population: an interactive dashboard tier with a
#: tight SLO, a reporting tier running the heavy paper queries, and a
#: low-priority ad-hoc tier
DEFAULT_TENANTS: tuple[TenantSpec, ...] = (
    TenantSpec("interactive",
               mix=(("q6", 0.6), ("sql_scan", 0.25), ("sql_agg", 0.15)),
               weight=0.6, priority=0, deadline_s=0.5, elements=2_000_000),
    TenantSpec("reporting",
               mix=(("q1", 0.4), ("q21", 0.2), ("tpch_q3", 0.15),
                    ("tpch_q9", 0.1), ("tpch_q14", 0.1), ("tpch_q19", 0.05)),
               weight=0.3, priority=1, deadline_s=4.0, elements=4_000_000),
    TenantSpec("adhoc",
               mix=(("q6", 0.4), ("sql_scan", 0.4), ("tpch_q13", 0.2)),
               weight=0.1, priority=2, deadline_s=2.0, elements=2_000_000),
)


@dataclass(frozen=True)
class QueryRequest:
    """One offered query: what to run, when it arrived, and its SLO."""

    req_id: int
    tenant: str
    kind: str
    arrival_s: float
    priority: int
    #: absolute deadline (arrival + tenant SLO)
    deadline_s: float
    elements: int
    #: closed-loop client index, -1 for open-loop arrivals
    client: int = -1

    def plan(self) -> Plan:
        return catalog_plan(self.kind)

    def source_rows(self) -> dict[str, int]:
        return catalog_rows(self.kind, self.elements)

    def fingerprint(self) -> tuple[str, tuple[tuple[str, int], ...]]:
        """What a dispatch key hashes for this request
        (:func:`request_fingerprint`)."""
        return request_fingerprint(self.kind, self.elements)


# ---------------------------------------------------------------------------
# arrival process
# ---------------------------------------------------------------------------

class ArrivalProcess:
    """Seeded arrival generator over a tenant population."""

    def __init__(self, qps: float, duration_s: float,
                 tenants: tuple[TenantSpec, ...] = DEFAULT_TENANTS,
                 seed: int = 0):
        if qps <= 0:
            raise ValueError(f"qps must be positive, got {qps}")
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        self.qps = qps
        self.duration_s = duration_s
        self.tenants = tenants
        self.seed = seed
        self._next_id = 0
        self._client_rng: dict[tuple[str, int], random.Random] = {}

    # -- open loop ---------------------------------------------------------
    def trace(self) -> list[QueryRequest]:
        """The open-loop Poisson trace plus each closed-loop client's first
        query, sorted by arrival time."""
        rng = random.Random(self.seed)
        open_tenants = [t for t in self.tenants if not t.closed_loop_clients]
        out: list[QueryRequest] = []
        if open_tenants:
            weights = [t.weight for t in open_tenants]
            t_now = 0.0
            while True:
                t_now += rng.expovariate(self.qps)
                if t_now >= self.duration_s:
                    break
                tenant = rng.choices(open_tenants, weights=weights)[0]
                out.append(self._make(tenant, t_now, rng))
        for tenant in self.tenants:
            for client in range(tenant.closed_loop_clients):
                crng = self._client_stream(tenant, client)
                first = crng.expovariate(1.0 / tenant.think_s)
                if first < self.duration_s:
                    out.append(self._make(tenant, first, crng, client=client))
        out.sort(key=lambda r: (r.arrival_s, r.req_id))
        return out

    # -- closed loop -------------------------------------------------------
    def on_completion(self, request: QueryRequest,
                      completion_s: float) -> QueryRequest | None:
        """The follow-up query a closed-loop client issues after its
        previous one completed; None for open-loop requests or past the
        offered-load window."""
        if request.client < 0:
            return None
        tenant = next(t for t in self.tenants if t.name == request.tenant)
        crng = self._client_stream(tenant, request.client)
        t_next = completion_s + crng.expovariate(1.0 / tenant.think_s)
        if t_next >= self.duration_s:
            return None
        return self._make(tenant, t_next, crng, client=request.client)

    # -- internals ---------------------------------------------------------
    def _client_stream(self, tenant: TenantSpec, client: int) -> random.Random:
        key = (tenant.name, client)
        if key not in self._client_rng:
            self._client_rng[key] = random.Random(
                (self.seed, tenant.name, client).__repr__())
        return self._client_rng[key]

    def _make(self, tenant: TenantSpec, t: float, rng: random.Random,
              client: int = -1) -> QueryRequest:
        kinds = [k for k, _ in tenant.mix]
        weights = [w for _, w in tenant.mix]
        kind = rng.choices(kinds, weights=weights)[0]
        req = QueryRequest(
            req_id=self._next_id, tenant=tenant.name, kind=kind,
            arrival_s=t, priority=tenant.priority,
            deadline_s=t + tenant.deadline_s, elements=tenant.elements,
            client=client)
        self._next_id += 1
        return req
