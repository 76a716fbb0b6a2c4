"""Rules shared by the lowering and the reference interpreter.

Byte-for-byte differential validation only works if the two execution
paths agree on everything that affects *values* -- which conjunct becomes
the hash-join key, how an aggregate argument is named, when a COUNT over
a null-padded column turns into a SUM over the match indicator.  Those
decisions live here, once, as pure functions from the bound query to a
*recipe*; the lowering turns the recipe into a plan, the reference
interpreter replays it directly over NumPy relations.  The two paths then
diverge deliberately everywhere else (pushdown vs. post-join filtering,
decorrelation vs. naive nested evaluation) so they cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analyze.plan_lints import CORR_PREFIX
from ..ra.arithmetic import AggSpec
from ..ra.expr import (
    And, BinOp, Case, Compare, Const, Expr, Field, Func, InList, Like, Not,
    Or, Predicate, TruePredicate,
)
from ..sql.ast import AggExpr, Exists, InSubquery, ScalarSubquery
from ..sql.lexer import SqlError
from .binder import BoundQuery


class UnsupportedError(SqlError):
    """The query parses and binds but uses a shape the frontend cannot
    lower yet; the message names the missing feature."""


# ---------------------------------------------------------------------------
# predicate utilities
# ---------------------------------------------------------------------------

def split_conjuncts(pred: Predicate | None) -> list[Predicate]:
    if pred is None or isinstance(pred, TruePredicate):
        return []
    if isinstance(pred, And):
        return split_conjuncts(pred.left) + split_conjuncts(pred.right)
    return [pred]


def has_subquery(pred: Predicate) -> bool:
    if isinstance(pred, (Exists, InSubquery)):
        return True
    if isinstance(pred, Compare):
        return (isinstance(pred.left, ScalarSubquery)
                or isinstance(pred.right, ScalarSubquery))
    if isinstance(pred, (And, Or)):
        return has_subquery(pred.left) or has_subquery(pred.right)
    if isinstance(pred, Not):
        return has_subquery(pred.inner)
    return False


def is_correlated(pred: Predicate) -> bool:
    return any(f.startswith(CORR_PREFIX) for f in pred.fields())


def subst_expr(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite Field names through ``mapping`` (dropped join keys -> their
    surviving representative)."""
    if not mapping:
        return expr
    if isinstance(expr, Field):
        return Field(mapping.get(expr.name, expr.name))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, subst_expr(expr.left, mapping),
                     subst_expr(expr.right, mapping))
    if isinstance(expr, Func):
        return Func(expr.func, subst_expr(expr.arg, mapping), expr.meta)
    if isinstance(expr, Case):
        whens = tuple((subst_pred(p, mapping), subst_expr(e, mapping))
                      for p, e in expr.whens)
        return Case(whens, subst_expr(expr.default, mapping))
    if isinstance(expr, AggExpr):
        arg = (subst_expr(expr.argument, mapping)
               if expr.argument is not None else None)
        return AggExpr(expr.func, arg, expr.distinct)
    return expr  # ScalarSubquery: inner scope, not rewritten


def subst_pred(pred: Predicate, mapping: dict[str, str]) -> Predicate:
    if not mapping:
        return pred
    if isinstance(pred, And):
        return And(subst_pred(pred.left, mapping),
                   subst_pred(pred.right, mapping))
    if isinstance(pred, Or):
        return Or(subst_pred(pred.left, mapping),
                  subst_pred(pred.right, mapping))
    if isinstance(pred, Not):
        return Not(subst_pred(pred.inner, mapping))
    if isinstance(pred, Compare):
        return Compare(pred.op, subst_expr(pred.left, mapping),
                       subst_expr(pred.right, mapping))
    if isinstance(pred, InList):
        return InList(subst_expr(pred.expr, mapping), pred.values)
    if isinstance(pred, Like):
        return Like(subst_expr(pred.expr, mapping), pred.pattern)
    if isinstance(pred, InSubquery):
        return InSubquery(subst_expr(pred.expr, mapping), pred.query,
                          pred.negated)
    return pred  # TruePredicate / Exists


# ---------------------------------------------------------------------------
# join-chain recipe
# ---------------------------------------------------------------------------

@dataclass
class ChainStep:
    """How relation ``rels[index]`` joins onto the chain built so far."""

    index: int
    kind: str                            # 'inner' | 'left' | 'cross'
    key: tuple[str, str] | None          # (chain field, new-rel field)
    residual: list[Predicate] = field(default_factory=list)
    push_right: list[Predicate] = field(default_factory=list)
    match_field: str | None = None       # left joins only


@dataclass
class ChainRecipe:
    local: list[list[Predicate]]         # per-rel pushable conjuncts
    steps: list[ChainStep]
    post_chain: list[Predicate]          # every non-key plain conjunct,
                                         # original order (reference path)
    subqueries: list[Predicate]          # EXISTS/IN/scalar conjuncts
    corr_pairs: list[tuple[str, str]]    # (outer canonical, inner canonical)
    corr_resid: list[Predicate]
    repr_map: dict[str, str]             # dropped field -> representative
    nullable: dict[str, str]             # null-padded field -> match field
    rel_fields: list[set[str]]


def _eq_edge(pred: Predicate, joined: set[str],
             incoming: set[str]) -> tuple[str, str] | None:
    """``a = b`` with one side already joined and the other incoming."""
    if not (isinstance(pred, Compare) and pred.op == "=="
            and isinstance(pred.left, Field) and isinstance(pred.right, Field)):
        return None
    a, b = pred.left.name, pred.right.name
    if a in joined and b in incoming:
        return (a, b)
    if b in joined and a in incoming:
        return (b, a)
    return None


def _corr_split(pred: Predicate, correlated: dict[str, str]):
    """Classify a correlated conjunct: an equality pair or a residual."""
    if (isinstance(pred, Compare) and pred.op == "=="
            and isinstance(pred.left, Field) and isinstance(pred.right, Field)):
        a, b = pred.left.name, pred.right.name
        if a in correlated and not b.startswith(CORR_PREFIX):
            return (correlated[a], b)
        if b in correlated and not a.startswith(CORR_PREFIX):
            return (correlated[b], a)
    return None


def plan_chain(bq: BoundQuery) -> ChainRecipe:
    """Decide, once, how the FROM entries chain into joins and where each
    WHERE/ON conjunct lands.  Deterministic in the query text."""
    rel_fields = [{rel.canonical(c) for c in rel.columns} for rel in bq.rels]
    seen: set[str] = set()
    for rel, fs in zip(bq.rels, rel_fields):
        clash = seen & fs
        if clash:
            raise UnsupportedError(
                f"column name {sorted(clash)[0]!r} appears in two FROM "
                "entries; alias one of them")
        seen |= fs

    subqueries: list[Predicate] = []
    corr_pairs: list[tuple[str, str]] = []
    corr_resid: list[Predicate] = []
    plain: list[tuple[Predicate, str, int]] = []   # (pred, origin, min step)

    def route(pred: Predicate, origin: str, min_step: int) -> None:
        if has_subquery(pred):
            subqueries.append(pred)
            return
        if is_correlated(pred):
            pair = _corr_split(pred, bq.correlated)
            if pair is not None:
                corr_pairs.append(pair)
            else:
                corr_resid.append(pred)
            return
        plain.append((pred, origin, min_step))

    for c in split_conjuncts(bq.where):
        route(c, "where", 0)
    for i, rel in enumerate(bq.rels):
        for c in split_conjuncts(rel.on):
            route(c, "on", i)

    local: list[list[Predicate]] = [[] for _ in bq.rels]
    deferred: list[tuple[Predicate, str, int]] = []
    for pred, origin, min_step in plain:
        fs = pred.fields()
        owner = next((i for i, rf in enumerate(rel_fields) if fs <= rf), None)
        on_left_join = origin == "on" and bq.rels[min_step].kind == "left"
        if on_left_join and owner is not None and owner != min_step:
            raise UnsupportedError(
                "a LEFT JOIN ON conjunct over the preserved side changes "
                "match semantics and is not supported")
        if owner is None or not fs:
            deferred.append((pred, origin, min_step))
            continue
        if bq.rels[owner].kind == "left" and origin == "where":
            # WHERE filters see the pads, so they stay post-join
            deferred.append((pred, origin, owner))
        else:
            local[owner].append(pred)

    repr_map: dict[str, str] = {}
    nullable: dict[str, str] = {}
    post_chain = [p for p, _, _ in plain]
    steps: list[ChainStep] = []
    joined = set(rel_fields[0])

    for i in range(1, len(bq.rels)):
        rel = bq.rels[i]
        incoming = rel_fields[i]
        if rel.kind == "left":
            # the edge must come from this join's ON list; the other ON
            # conjuncts were already pushed into the null-producing side
            on_edges = [(e, p) for e, p in
                        ((_eq_edge(c, joined, incoming), c)
                         for c in split_conjuncts(rel.on)) if e is not None]
            if len(on_edges) != 1:
                raise UnsupportedError(
                    "LEFT JOIN needs exactly one equality between the two "
                    f"sides, found {len(on_edges)}")
            key, key_pred = on_edges[0]
            key = (repr_map.get(key[0], key[0]), key[1])
            match = f"__m{i}"
            for f in incoming:
                if f != key[1]:
                    nullable[f] = match
            step = ChainStep(index=i, kind="left", key=key,
                             push_right=list(local[i]), match_field=match)
            if key_pred in post_chain:
                post_chain.remove(key_pred)
            deferred = [d for d in deferred if d[0] is not key_pred]
            joined |= incoming | {match}
        else:
            step = ChainStep(index=i, kind="cross" if rel.kind == "cross"
                             else "inner", key=None)
            if rel.kind != "cross":
                for j, (pred, origin, min_step) in enumerate(deferred):
                    if min_step > i:
                        continue
                    if not pred.fields() <= joined | incoming:
                        continue
                    edge = _eq_edge(pred, joined, incoming)
                    if edge is not None:
                        # the chain-side field may itself have been dropped
                        # as an earlier join's right key
                        step.key = (repr_map.get(edge[0], edge[0]), edge[1])
                        if pred in post_chain:
                            post_chain.remove(pred)
                        deferred.pop(j)
                        break
            joined |= incoming
        if step.key is not None:
            repr_map[step.key[1]] = repr_map.get(step.key[0], step.key[0])
        # everything now evaluable lands here, in original order
        remaining = []
        for pred, origin, min_step in deferred:
            if min_step <= i and pred.fields() <= joined:
                if origin == "on" and bq.rels[min_step].kind == "left":
                    raise UnsupportedError(
                        "a LEFT JOIN supports one equality plus conjuncts "
                        "over the null-producing side only")
                step.residual.append(pred)
            else:
                remaining.append((pred, origin, min_step))
        deferred = remaining
        steps.append(step)

    if deferred:
        bad = deferred[0][0]
        raise UnsupportedError(
            f"conjunct references fields never joined together: {bad!r}")

    # push_right conjuncts are semantic (pre-join); drop them from the
    # reference path's post-join filter
    for step in steps:
        for p in step.push_right:
            if p in post_chain:
                post_chain.remove(p)

    return ChainRecipe(local=local, steps=steps, post_chain=post_chain,
                       subqueries=subqueries, corr_pairs=corr_pairs,
                       corr_resid=corr_resid, repr_map=repr_map,
                       nullable=nullable, rel_fields=rel_fields)


# ---------------------------------------------------------------------------
# aggregation recipe
# ---------------------------------------------------------------------------

@dataclass
class AggRecipe:
    pre: dict[str, Expr]            # computed before AGGREGATE
    group_by: list[str]
    aggs: dict[str, AggSpec]
    post: dict[str, Expr]           # computed after AGGREGATE
    having_plain: list[Predicate]
    having_subqueries: list[Predicate]


def _collect_aggs(expr: Expr, out: list[AggExpr]) -> None:
    if isinstance(expr, AggExpr):
        if expr not in out:
            out.append(expr)
        return
    if isinstance(expr, BinOp):
        _collect_aggs(expr.left, out)
        _collect_aggs(expr.right, out)
    elif isinstance(expr, Case):
        for p, e in expr.whens:
            _collect_aggs_pred(p, out)
            _collect_aggs(e, out)
        _collect_aggs(expr.default, out)
    elif isinstance(expr, Func):
        _collect_aggs(expr.arg, out)


def _collect_aggs_pred(pred: Predicate, out: list[AggExpr]) -> None:
    if isinstance(pred, (And, Or)):
        _collect_aggs_pred(pred.left, out)
        _collect_aggs_pred(pred.right, out)
    elif isinstance(pred, Not):
        _collect_aggs_pred(pred.inner, out)
    elif isinstance(pred, Compare):
        _collect_aggs(pred.left, out)
        _collect_aggs(pred.right, out)


def _replace_aggs(expr: Expr, keys: dict[AggExpr, str]) -> Expr:
    if isinstance(expr, AggExpr):
        return Field(keys[expr])
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _replace_aggs(expr.left, keys),
                     _replace_aggs(expr.right, keys))
    if isinstance(expr, Case):
        whens = tuple((_replace_aggs_pred(p, keys), _replace_aggs(e, keys))
                      for p, e in expr.whens)
        return Case(whens, _replace_aggs(expr.default, keys))
    if isinstance(expr, Func):
        return Func(expr.func, _replace_aggs(expr.arg, keys), expr.meta)
    return expr


def _replace_aggs_pred(pred: Predicate, keys: dict[AggExpr, str]) -> Predicate:
    if isinstance(pred, And):
        return And(_replace_aggs_pred(pred.left, keys),
                   _replace_aggs_pred(pred.right, keys))
    if isinstance(pred, Or):
        return Or(_replace_aggs_pred(pred.left, keys),
                  _replace_aggs_pred(pred.right, keys))
    if isinstance(pred, Not):
        return Not(_replace_aggs_pred(pred.inner, keys))
    if isinstance(pred, Compare):
        return Compare(pred.op, _replace_aggs(pred.left, keys),
                       _replace_aggs(pred.right, keys))
    return pred


def plan_aggregate(bq: BoundQuery, repr_map: dict[str, str],
                   nullable: dict[str, str],
                   group_override: list[str] | None = None
                   ) -> AggRecipe | None:
    """The shared aggregation recipe: naming of aggregate outputs and
    intermediate arguments, COUNT-over-padded-column rewrites, pre/post
    compute stages, and the HAVING split."""
    items = [(i.alias, subst_expr(i.expr, repr_map)) for i in bq.items]
    having = (subst_pred(bq.having, repr_map)
              if bq.having is not None else None)

    leaves: list[AggExpr] = []
    for _, expr in items:
        _collect_aggs(expr, leaves)
    having_plain_raw: list[Predicate] = []
    having_subqueries: list[Predicate] = []
    for c in split_conjuncts(having):
        (having_subqueries if has_subquery(c) else having_plain_raw).append(c)
    for c in having_plain_raw + having_subqueries:
        # subquery leaves stay untouched; only scalar sides carry aggregates
        _collect_aggs_pred(c, leaves)

    if not leaves and group_override is None:
        if bq.group_by:
            raise UnsupportedError(
                "GROUP BY without aggregates is not supported; "
                "use SELECT DISTINCT")
        return None

    keys: dict[AggExpr, str] = {}
    for idx, leaf in enumerate(leaves):
        alias = next((a for a, e in items if e == leaf), None)
        keys[leaf] = alias if alias is not None else f"__agg_{idx}"

    pre: dict[str, Expr] = {}
    group_by: list[str] = []
    if group_override is not None:
        group_by = list(group_override)
    else:
        for name in bq.group_by:
            if name in bq.group_item_aliases:
                expr = next(e for a, e in items if a == name)
                pre[name] = expr
                group_by.append(name)
            else:
                group_by.append(repr_map.get(name, name))

    aggs: dict[str, AggSpec] = {}
    for idx, leaf in enumerate(leaves):
        key = keys[leaf]
        if leaf.argument is None:
            aggs[key] = AggSpec("count")
        elif isinstance(leaf.argument, Field):
            name = leaf.argument.name
            if leaf.func == "count" and name in nullable:
                # COUNT over a null-padded column counts matches, which is
                # exactly the sum of the join's 0/1 indicator
                aggs[key] = AggSpec("sum", nullable[name])
            else:
                aggs[key] = AggSpec(leaf.func, name)
        else:
            arg = f"__arg_{idx}"
            pre[arg] = leaf.argument
            aggs[key] = AggSpec(leaf.func, arg)

    post: dict[str, Expr] = {}
    for alias, expr in items:
        if isinstance(expr, AggExpr):
            continue   # keyed directly by the item alias
        if alias in pre:
            continue   # a computed group column, already named
        if isinstance(expr, Field) and expr.name == alias:
            continue
        post[alias] = _replace_aggs(expr, keys)

    having_plain = [_replace_aggs_pred(c, keys) for c in having_plain_raw]
    having_subs = [_replace_aggs_pred(c, keys) for c in having_subqueries]
    return AggRecipe(pre=pre, group_by=group_by, aggs=aggs, post=post,
                     having_plain=having_plain,
                     having_subqueries=having_subs)


def item_outputs(bq: BoundQuery, repr_map: dict[str, str]) -> dict[str, Expr]:
    """Non-aggregated queries: the computed/renamed output columns."""
    out: dict[str, Expr] = {}
    for item in bq.items:
        expr = subst_expr(item.expr, repr_map)
        if isinstance(expr, Field) and expr.name == item.alias:
            continue
        out[item.alias] = expr
    return out


def order_spec(bq: BoundQuery) -> tuple[list[str], "bool | list[bool]"]:
    by = [name for name, _ in bq.order_by]
    descending: "bool | list[bool]" = [desc for _, desc in bq.order_by]
    if descending and all(d == descending[0] for d in descending):
        descending = descending[0]
    return by, descending
