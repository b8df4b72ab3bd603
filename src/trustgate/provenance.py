"""Tactical provenance graphs and their reduction to alert skeletons.

A provenance graph links attribute observations by causal parentage.
Storing whole graphs for weeks is wasteful, so old graphs are reduced
to a skeleton: the events that matter for explaining alerts, with
boring unary stretches collapsed into counted summary edges. The
reduction is conservative by construction; triage on a skeleton sees
exactly the ancestor structure of every alert that the full graph had.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import (
    Alert,
    AttributeKind,
    EdrEvent,
    ModelError,
    Severity,
    event_to_obj,
)

COMPARATORS = (">=", ">", "==", "<", "<=")


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
        if not self.rule_name:
            raise GraphError("rule_name must be non-empty")
        if self.op not in COMPARATORS:
            raise GraphError(f"unknown comparator {self.op!r}")
        if self.attribute.numeric:
            if isinstance(self.threshold, bool) or not isinstance(self.threshold, int):
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
        if event.attribute is not self.attribute:
            return False
        v, t = event.value, self.threshold
        if self.op == ">=":
            return v >= t
        if self.op == ">":
            return v > t
        if self.op == "==":
            return v == t
        if self.op == "<":
            return v < t
        return v <= t


@dataclass(frozen=True)
class ProvenanceGraph:
    """A DAG of events; edges run parent -> child."""

    nodes: Mapping[int, EdrEvent]
    edges: frozenset[tuple[int, int]]
    alerts: tuple[Alert, ...] = ()

    def alert_event_ids(self) -> frozenset[int]:
        return frozenset(a.event_id for a in self.alerts)


def build_graph(log: Sequence[EdrEvent]) -> ProvenanceGraph:
    """Assemble the provenance graph of a validated log.

    A parent reference to an event absent from the log is rejected.
    """

    nodes = {e.event_id: e for e in log}
    if len(nodes) != len(log):
        raise GraphError("duplicate event ids in log")
    edges = set()
    for e in log:
        for pid in e.parent_ids:
            if pid not in nodes:
                raise GraphError(
                    f"dangling parent: event {e.event_id} references {pid}"
                )
            edges.add((pid, e.event_id))
    return ProvenanceGraph(nodes=nodes, edges=frozenset(edges))


def apply_rules(
    graph: ProvenanceGraph, rules: Sequence[AlertRule]
) -> ProvenanceGraph:
    """Evaluate every rule against every node.

    Alerts are emitted in (event_id, rule_name) order and numbered from
    zero in that order, so a given graph and rule set always produce
    the same alert list.
    """

    hits = []
    for event_id in sorted(graph.nodes):
        event = graph.nodes[event_id]
        for rule in sorted(rules, key=lambda r: r.rule_name):
            if rule.matches(event):
                hits.append((event_id, rule))
    alerts = tuple(
        Alert(alert_id=i, event_id=event_id, severity=rule.severity,
              rule_name=rule.rule_name)
        for i, (event_id, rule) in enumerate(hits)
    )
    return ProvenanceGraph(nodes=graph.nodes, edges=graph.edges, alerts=alerts)


def ancestors(graph: ProvenanceGraph, event_id: int) -> set[int]:
    """All events reachable by walking parent edges; excludes the node."""

    if event_id not in graph.nodes:
        raise GraphError(f"unknown event {event_id}")
    parent_map: dict[int, list[int]] = {}
    for (u, v) in graph.edges:
        parent_map.setdefault(v, []).append(u)
    seen: set[int] = set()
    stack = list(parent_map.get(event_id, ()))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(parent_map.get(node, ()))
    return seen


@dataclass(frozen=True)
class SummaryEdge:
    """A collapsed unary stretch of ``collapsed_count`` interior events."""

    from_id: int
    to_id: int
    collapsed_count: int


@dataclass(frozen=True)
class Skeleton:
    """Reduced provenance: alert-relevant nodes plus summary edges."""

    nodes: Mapping[int, EdrEvent]
    edges: frozenset[tuple[int, int]]
    summary_edges: tuple[SummaryEdge, ...]
    alerts: tuple[Alert, ...] = ()


def reduce_to_skeleton(graph: ProvenanceGraph) -> Skeleton:
    """Keep alerts and their causal ancestors; collapse unary chains.

    A chain collapses only where it cannot be confused with anything
    else: every interior node is a non-alert with one parent and one
    child, the node feeding the chain has no other outgoing edge, and
    the node the chain ends on has no other incoming edge. Nodes on
    branching paths always survive verbatim.
    """

    alert_ids = graph.alert_event_ids()
    kept: set[int] = set(alert_ids)
    for aid in alert_ids:
        kept |= ancestors(graph, aid)

    pruned_edges = {(u, v) for (u, v) in graph.edges if u in kept and v in kept}
    out_deg: dict[int, int] = {n: 0 for n in kept}
    in_deg: dict[int, int] = {n: 0 for n in kept}
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    for (u, v) in pruned_edges:
        out_deg[u] += 1
        in_deg[v] += 1
        succ[u] = v if out_deg[u] == 1 else succ.get(u)
        pred[v] = u if in_deg[v] == 1 else pred.get(v)

    def interior(n: int) -> bool:
        return (
            n not in alert_ids
            and in_deg.get(n) == 1
            and out_deg.get(n) == 1
        )

    collapsed: set[int] = set()
    summaries: list[SummaryEdge] = []
    for n in kept:
        if not interior(n):
            continue
        head_parent = pred[n]
        if head_parent is not None and interior(head_parent):
            continue  # not the start of its run
        run = [n]
        while True:
            nxt = succ[run[-1]]
            if nxt is not None and interior(nxt):
                run.append(nxt)
            else:
                break
        # Trim until both ends of the run sit on purely unary links.
        if out_deg[pred[run[0]]] != 1:
            run = run[1:]
        if run and in_deg[succ[run[-1]]] != 1:
            run = run[:-1]
        if run:
            summaries.append(
                SummaryEdge(
                    from_id=pred[run[0]],
                    to_id=succ[run[-1]],
                    collapsed_count=len(run),
                )
            )
            collapsed.update(run)

    final_nodes = {n: graph.nodes[n] for n in kept - collapsed}
    final_edges = frozenset(
        (u, v) for (u, v) in pruned_edges
        if u not in collapsed and v not in collapsed
    )
    summaries.sort(key=lambda s: (s.from_id, s.to_id))
    return Skeleton(
        nodes=final_nodes,
        edges=final_edges,
        summary_edges=tuple(summaries),
        alerts=graph.alerts,
    )


def expand_skeleton(skeleton: Skeleton) -> ProvenanceGraph:
    """Rehydrate a skeleton into a graph, one placeholder node per
    collapsed interior step. Placeholder events copy the payload of the
    summary edge's source node and take fresh ids above every real id."""

    nodes = dict(skeleton.nodes)
    edges = set(skeleton.edges)
    next_id = max(nodes, default=0) + 1
    for s in sorted(skeleton.summary_edges, key=lambda s: (s.from_id, s.to_id)):
        template = nodes[s.from_id]
        prev = s.from_id
        for _ in range(s.collapsed_count):
            anon = EdrEvent(
                event_id=next_id,
                triplet=template.triplet,
                attribute=template.attribute,
                value=template.value,
                timestamp=template.timestamp,
            )
            nodes[next_id] = anon
            edges.add((prev, next_id))
            prev = next_id
            next_id += 1
        edges.add((prev, s.to_id))
    return ProvenanceGraph(
        nodes=nodes, edges=frozenset(edges), alerts=skeleton.alerts
    )


@dataclass(frozen=True)
class ReductionStats:
    nodes_before: int
    nodes_after: int

    @property
    def ratio(self) -> float:
        if self.nodes_before == 0:
            return 0.0
        return self.nodes_after / self.nodes_before


def reduction_stats(graph: ProvenanceGraph, skeleton: Skeleton) -> ReductionStats:
    return ReductionStats(
        nodes_before=len(graph.nodes), nodes_after=len(skeleton.nodes)
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(skeleton_to_obj(skeleton), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise GraphError("rules file must contain a JSON array")
    return tuple(rule_from_obj(obj) for obj in data)
