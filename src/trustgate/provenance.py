"""Tactical provenance graphs and their reduction to alert skeletons.

A provenance graph links attribute observations by causal parentage.
Storing whole graphs for weeks is wasteful, so old graphs are reduced
to a skeleton: the events that matter for explaining alerts, with
boring unary stretches collapsed into counted summary edges. The
reduction is conservative by construction; triage on a skeleton sees
exactly the ancestor structure of every alert that the full graph had.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .model import (
    Alert,
    AttributeKind,
    EdrEvent,
    Severity,
    check_id,
    event_to_obj,
    format_json,
    is_int,
    load_json,
)

# Each rule comparator and the function that applies it.
COMPARATORS = {">=": operator.ge, ">": operator.gt, "==": operator.eq,
               "<": operator.lt, "<=": operator.le}


class GraphError(ValueError):
    """Raised for structurally invalid graphs or rule definitions."""


@dataclass(frozen=True)
class AlertRule:
    """Single-event predicate: fire when an attribute crosses a threshold.

    Categorical attributes only support equality; ordered comparisons
    require a numeric attribute.
    """

    rule_name: str
    attribute: AttributeKind
    op: str
    threshold: int | str
    severity: Severity

    def __post_init__(self) -> None:
        check_id(self.rule_name, "rule_name", GraphError)
        if self.op not in COMPARATORS:
            raise GraphError(f"unknown comparator {self.op!r}")
        if self.attribute.numeric:
            if not is_int(self.threshold):
                raise GraphError(
                    f"rule {self.rule_name}: numeric attribute needs an "
                    f"integer threshold"
                )
            if self.threshold < 0:
                raise GraphError(f"rule {self.rule_name}: threshold must be >= 0")
        else:
            if not isinstance(self.threshold, str):
                raise GraphError(
                    f"rule {self.rule_name}: categorical attribute needs a "
                    f"string threshold"
                )
            if self.op != "==":
                raise GraphError(
                    f"rule {self.rule_name}: categorical attributes support "
                    f"only =="
                )

    def matches(self, event: EdrEvent) -> bool:
        return (event.attribute is self.attribute
                and COMPARATORS[self.op](event.value, self.threshold))

    def admits(self, attribute: AttributeKind, value: int | str) -> bool:
        """Whether the rule fires on an event carrying ``value`` of kind
        ``attribute``, as :meth:`matches` decides it."""

        return (attribute is self.attribute
                and COMPARATORS[self.op](value, self.threshold))


@dataclass(frozen=True)
class ProvenanceGraph:
    """A DAG of events keyed by id.

    Each event's ``parent_ids`` are its incoming edges; the graph keeps
    no second copy of them.
    """

    nodes: Mapping[int, EdrEvent]
    alerts: tuple[Alert, ...] = ()

    def alert_event_ids(self) -> frozenset[int]:
        return frozenset(a.event_id for a in self.alerts)


def build_graph(log: Sequence[EdrEvent]) -> ProvenanceGraph:
    """Assemble the provenance graph of a log, checking that it is a
    causal DAG.

    Event ids must be unique, and every parent must be in the log and
    strictly earlier than its child, which also rules out cycles.
    """

    nodes = {e.event_id: e for e in log}
    if len(nodes) != len(log):
        raise GraphError("duplicate event ids in log")
    for e in log:
        for pid in e.parent_ids:
            parent = nodes.get(pid)
            if parent is None:
                raise GraphError(
                    f"dangling parent: event {e.event_id} references {pid}"
                )
            if parent.timestamp >= e.timestamp:
                raise GraphError(
                    f"causality: event {e.event_id} is not later than its "
                    f"parent {pid}"
                )
    return ProvenanceGraph(nodes=nodes)


def apply_rules(
    graph: ProvenanceGraph, rules: Sequence[AlertRule]
) -> ProvenanceGraph:
    """Evaluate every rule against every node.

    Alerts are emitted in (event_id, rule_name) order and numbered from
    zero in that order, so a given graph and rule set always produce
    the same alert list.
    """

    by_kind: dict[AttributeKind, list[AlertRule]] = {}
    for rule in sorted(rules, key=lambda r: r.rule_name):
        by_kind.setdefault(rule.attribute, []).append(rule)
    hits = []
    for event_id in sorted(graph.nodes):
        event = graph.nodes[event_id]
        for rule in by_kind.get(event.attribute, ()):
            if rule.matches(event):
                hits.append((event_id, rule))
    alerts = tuple(
        Alert(alert_id=i, event_id=event_id, severity=rule.severity,
              rule_name=rule.rule_name)
        for i, (event_id, rule) in enumerate(hits)
    )
    return ProvenanceGraph(nodes=graph.nodes, alerts=alerts)


def ancestors(graph: ProvenanceGraph, *event_ids: int) -> set[int]:
    """All events reachable by walking parent edges from any of ``event_ids``.

    The result is the union of each event's ancestors, found in one walk
    over the events' ``parent_ids``. A given event is in the result only
    if it is an ancestor of another given event; with one event, that
    event is never in it. Every id must be a node of the graph.
    """

    nodes = graph.nodes
    for event_id in event_ids:
        if event_id not in nodes:
            raise GraphError(f"unknown event {event_id}")
    seen: set[int] = set()
    stack = [p for event_id in event_ids for p in nodes[event_id].parent_ids]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(nodes[node].parent_ids)
    return seen


@dataclass(frozen=True)
class SummaryEdge:
    """A collapsed unary stretch of ``collapsed_count`` interior events."""

    from_id: int
    to_id: int
    collapsed_count: int


@dataclass(frozen=True)
class Skeleton:
    """Reduced provenance: alert-relevant nodes plus summary edges. Its
    edges are each node's ``parent_ids`` that are also nodes."""

    nodes: Mapping[int, EdrEvent]
    summary_edges: tuple[SummaryEdge, ...]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        nodes = self.nodes
        return frozenset(
            (p, v) for v, e in nodes.items() for p in e.parent_ids if p in nodes
        )


def reduce_to_skeleton(graph: ProvenanceGraph) -> Skeleton:
    """Keep alerts and their causal ancestors; collapse unary chains.

    Counting only kept nodes, a non-alert node collapses when it has one
    parent and one child, its parent has no other child, and its child
    has no other parent. Each maximal run of collapsing nodes becomes one
    summary edge from the run's parent to its child, so nodes on
    branching paths always survive verbatim.
    """

    alert_ids = graph.alert_event_ids()
    kept = alert_ids | ancestors(graph, *alert_ids)

    # kept is closed under ancestry, so every parent of a kept node is
    # kept. only_child maps a node to its one kept child, or to None.
    parents: dict[int, tuple[int, ...]] = {}
    only_child: dict[int, int | None] = {}
    for v in kept:
        ps = graph.nodes[v].parent_ids
        if len(ps) > 1:
            ps = tuple(set(ps))
        parents[v] = ps
        for p in ps:
            only_child[p] = None if p in only_child else v

    # A kept non-alert node has a kept child; None is not in parents.
    collapsed = {
        n for n, ps in parents.items()
        if n not in alert_ids and len(ps) == 1 and only_child[ps[0]] == n
        and len(parents.get(only_child[n], ())) == 1
    }

    summaries: list[SummaryEdge] = []
    for n in collapsed:
        head_parent = parents[n][0]
        if head_parent in collapsed:
            continue  # not the start of its run
        count, tail = 1, only_child[n]
        while tail in collapsed:
            count, tail = count + 1, only_child[tail]
        summaries.append(SummaryEdge(head_parent, tail, count))
    summaries.sort(key=lambda s: (s.from_id, s.to_id))
    return Skeleton(
        nodes={n: graph.nodes[n] for n in kept - collapsed},
        summary_edges=tuple(summaries),
    )


# --- serialization ----------------------------------------------------------

def skeleton_to_obj(skeleton: Skeleton) -> dict:
    nodes = []
    for event_id in sorted(skeleton.nodes):
        obj = event_to_obj(skeleton.nodes[event_id])
        del obj["parents"]  # edge structure lives in the arrays below
        nodes.append(obj)
    return {
        "nodes": nodes,
        "edges": [[u, v] for (u, v) in sorted(skeleton.edges)],
        "summary_edges": [
            [s.from_id, s.to_id, s.collapsed_count]
            for s in skeleton.summary_edges
        ],
    }


def write_skeleton(path: str | Path, skeleton: Skeleton) -> None:
    Path(path).write_text(format_json(skeleton_to_obj(skeleton)),
                          encoding="utf-8")


def rule_to_obj(rule: AlertRule) -> dict:
    return {
        "rule_name": rule.rule_name,
        "attribute": rule.attribute.value,
        "op": rule.op,
        "threshold": rule.threshold,
        "severity": rule.severity.value,
    }


def rule_from_obj(obj: object) -> AlertRule:
    if not isinstance(obj, dict):
        raise GraphError("rule must be a JSON object")
    required = {"rule_name", "attribute", "op", "threshold", "severity"}
    if set(obj) != required:
        raise GraphError(f"rule fields must be exactly {sorted(required)}")
    try:
        attribute = AttributeKind(obj["attribute"])
    except ValueError:
        raise GraphError(f"unknown attribute kind: {obj['attribute']!r}") from None
    try:
        severity = Severity(obj["severity"])
    except ValueError:
        raise GraphError(f"unknown severity: {obj['severity']!r}") from None
    return AlertRule(
        rule_name=obj["rule_name"],
        attribute=attribute,
        op=obj["op"],
        threshold=obj["threshold"],
        severity=severity,
    )


def load_rules(path: str | Path) -> tuple[AlertRule, ...]:
    data = load_json(path, "rules file", GraphError)
    if not isinstance(data, list):
        raise GraphError("rules file must contain a JSON array")
    return tuple(rule_from_obj(obj) for obj in data)
