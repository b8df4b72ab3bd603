"""Provenance graphs, alert rules, and skeleton reduction."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from trustgate import provenance
from trustgate.model import Alert, AttributeKind, Severity
from trustgate.provenance import (
    AlertRule,
    GraphError,
    ProvenanceGraph,
    SummaryEdge,
    ancestors,
    apply_rules,
    build_graph,
    reduce_to_skeleton,
    rule_from_obj,
    rule_to_obj,
    skeleton_to_obj,
)
from trustgate.simnet import default_rules

from conftest import chain, make_event


def burst_rule(threshold: int = 5, severity: Severity = Severity.HIGH,
               name: str = "io-burst") -> AlertRule:
    return AlertRule(
        rule_name=name,
        attribute=AttributeKind.IO_OPERATION_COUNT,
        op=">=",
        threshold=threshold,
        severity=severity,
    )


def random_dag(rng: random.Random, n: int) -> ProvenanceGraph:
    """Random DAG over ids 0..n-1 with edges from lower to higher ids."""

    events = []
    for i in range(n):
        parents = tuple(
            sorted(
                rng.sample(range(i), k=min(i, rng.randrange(0, 3)))
            )
        )
        events.append(
            make_event(i, ts=i, value=rng.randrange(10), parents=parents)
        )
    return build_graph(events)


def oracle_ancestors(graph: ProvenanceGraph, target: int) -> set[int]:
    """Independent oracle: u is an ancestor of target iff target is
    reachable walking the child direction from u."""

    children: dict[int, list[int]] = {}
    for v, event in graph.nodes.items():
        for u in event.parent_ids:
            children.setdefault(u, []).append(v)
    result = set()
    for u in graph.nodes:
        if u == target:
            continue
        frontier = [u]
        seen = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            if node == target:
                result.add(u)
                break
            frontier.extend(children.get(node, ()))
    return result


CAUSALITY_1_0 = "causality: event 1 is not later than its parent 0"

# Each log breaks one invariant of a causal DAG: (log, error message).
REJECTED_LOGS = {
    "parent_same_ts": ([make_event(0, 5), make_event(1, 5, parents=(0,))],
                       CAUSALITY_1_0),
    "parent_later_ts": ([make_event(0, 5), make_event(1, 4, parents=(0,))],
                        CAUSALITY_1_0),
    "two_event_cycle": ([make_event(0, 5, parents=(1,)),
                         make_event(1, 6, parents=(0,))],
                        "causality: event 0 is not later than its parent 1"),
}


class TestGraphConstruction:
    def test_nodes_keep_parent_ids(self):
        graph = build_graph(chain(3))
        assert {i: e.parent_ids for i, e in graph.nodes.items()} == {
            0: (), 1: (0,), 2: (1,)}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphError) as exc:
            build_graph([make_event(0, 0), make_event(0, 1)])
        assert str(exc.value) == "duplicate event ids in log"

    def test_dangling_parent_rejected(self):
        with pytest.raises(GraphError) as exc:
            build_graph([make_event(0, 0, parents=(42,))])
        assert str(exc.value) == "dangling parent: event 0 references 42"

    @pytest.mark.parametrize("case", sorted(REJECTED_LOGS))
    def test_log_rejected(self, case):
        log, message = REJECTED_LOGS[case]
        with pytest.raises(GraphError) as exc:
            build_graph(log)
        assert str(exc.value) == message


class TestAlertRules:
    def test_numeric_comparators(self):
        event = make_event(0, 0, value=5)
        cases = {
            (">=", 5): True, (">=", 6): False,
            (">", 4): True, (">", 5): False,
            ("==", 5): True, ("==", 4): False,
            ("<", 6): True, ("<", 5): False,
            ("<=", 5): True, ("<=", 4): False,
        }
        for (op, threshold), expected in cases.items():
            rule = AlertRule(
                rule_name="r", attribute=AttributeKind.IO_OPERATION_COUNT,
                op=op, threshold=threshold, severity=Severity.LOW,
            )
            assert rule.matches(event) is expected, (op, threshold)

    def test_rule_only_matches_its_attribute(self):
        event = make_event(
            0, 0, attribute=AttributeKind.SYSTEM_CALL_COUNT, value=100
        )
        assert not burst_rule().matches(event)

    def test_categorical_rules_equality_only(self):
        rule = AlertRule(
            rule_name="flagged-net",
            attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            op="==", threshold="net-bad", severity=Severity.HIGH,
        )
        hit = make_event(
            0, 0, attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            value="net-bad",
        )
        miss = make_event(
            1, 0, attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            value="net-ok",
        )
        assert rule.matches(hit)
        assert not rule.matches(miss)
        with pytest.raises(GraphError):
            AlertRule(
                rule_name="bad",
                attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
                op=">=", threshold="net-bad", severity=Severity.HIGH,
            )

    def test_numeric_rule_rejects_string_threshold(self):
        with pytest.raises(GraphError):
            AlertRule(
                rule_name="bad", attribute=AttributeKind.IO_OPERATION_COUNT,
                op=">=", threshold="5", severity=Severity.LOW,
            )

    def test_unknown_comparator_rejected(self):
        with pytest.raises(GraphError):
            AlertRule(
                rule_name="bad", attribute=AttributeKind.IO_OPERATION_COUNT,
                op="!=", threshold=5, severity=Severity.LOW,
            )

    def test_rule_from_obj_round_trip(self):
        obj = {
            "rule_name": "io-burst", "attribute": "io_operation_count",
            "op": ">=", "threshold": 5, "severity": "high",
        }
        assert rule_from_obj(obj) == burst_rule()
        assert rule_to_obj(burst_rule()) == obj
        for rule in default_rules():
            assert rule_from_obj(rule_to_obj(rule)) == rule
        with pytest.raises(GraphError):
            rule_from_obj({**obj, "extra": 1})


class TestApplyRules:
    def test_alert_ids_sequential_ordered_by_event_then_rule(self):
        events = [
            make_event(0, 0, value=9),
            make_event(1, 1, value=1),
            make_event(2, 2, value=7),
        ]
        rules = [
            burst_rule(5, Severity.HIGH, "b-rule"),
            burst_rule(7, Severity.CRITICAL, "a-rule"),
        ]
        graph = apply_rules(build_graph(events), rules)
        hits = [(a.event_id, a.rule_name, a.alert_id) for a in graph.alerts]
        assert hits == [
            (0, "a-rule", 0), (0, "b-rule", 1), (2, "a-rule", 2),
            (2, "b-rule", 3),
        ]

    def test_each_event_meets_every_rule_of_its_kind(self):
        # Rules of several kinds, names interleaved across kinds, against
        # events of every kind: the alerts are every (event, rule) match
        # in (event_id, rule_name) order.
        rng = random.Random(22)
        kinds = list(AttributeKind)
        events = [
            make_event(i, i, attribute=kind,
                       value=rng.randrange(12) if kind.numeric
                       else f"net-{rng.randrange(3)}")
            for i, kind in enumerate(rng.choice(kinds) for _ in range(300))
        ]
        rules = [*default_rules()] + [
            AlertRule(f"r{i:02d}", kind, ">=", rng.randrange(12),
                      Severity.LOW)
            for i, kind in enumerate(k for k in kinds if k.numeric)
        ] + [AlertRule("r-net", AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
                       "==", "net-1", Severity.MEDIUM)]
        graph = apply_rules(build_graph(events), rules[::-1])
        want = sorted((e.event_id, r.rule_name) for e in events
                      for r in rules if r.matches(e))
        assert [(a.event_id, a.rule_name) for a in graph.alerts] == want
        assert [a.alert_id for a in graph.alerts] == list(range(len(want)))

    def test_no_rules_no_alerts(self):
        graph = apply_rules(build_graph(chain(4)), [])
        assert graph.alerts == ()


class TestAncestors:
    def test_chain(self):
        graph = build_graph(chain(5))
        assert ancestors(graph, 4) == {0, 1, 2, 3}
        assert ancestors(graph, 0) == set()

    def test_excludes_self_on_any_graph(self):
        graph = build_graph(chain(3))
        for node in graph.nodes:
            assert node not in ancestors(graph, node)

    def test_random_dags_match_oracle(self):
        rng = random.Random(20260819)
        for _ in range(60):
            graph = random_dag(rng, rng.randrange(2, 40))
            target = rng.randrange(len(graph.nodes))
            assert ancestors(graph, target) == oracle_ancestors(graph, target)

    def test_many_seeds_match_union_of_oracles(self):
        rng = random.Random(20261018)
        for _ in range(60):
            graph = random_dag(rng, rng.randrange(2, 40))
            seeds = rng.sample(sorted(graph.nodes),
                               k=rng.randrange(1, len(graph.nodes) + 1))
            expected = set().union(*(oracle_ancestors(graph, s) for s in seeds))
            assert ancestors(graph, *seeds) == expected

    def test_no_seeds_is_empty(self):
        assert ancestors(build_graph(chain(4))) == set()

    def test_unknown_seed_anywhere_raises(self):
        graph = build_graph(chain(4))
        for seeds in ((99,), (99, 3), (3, 99), (1, 99, 2)):
            with pytest.raises(GraphError, match="unknown event 99"):
                ancestors(graph, *seeds)

    def test_repeated_seeds_same_as_one(self):
        rng = random.Random(5)
        for _ in range(20):
            graph = random_dag(rng, rng.randrange(2, 30))
            target = rng.randrange(len(graph.nodes))
            assert ancestors(graph, target, target, target) == ancestors(
                graph, target)


class TestSkeletonFixtures:
    def test_unary_chain_collapses_to_one_summary_edge(self):
        # 0 <- 1 <- 2 <- 3 <- 4 with the alert on 4: three interior
        # events vanish into a single counted edge.
        events = chain(5)
        rules = [
            AlertRule(
                rule_name="at-tail",
                attribute=AttributeKind.IO_OPERATION_COUNT,
                op=">=", threshold=0, severity=Severity.HIGH,
            )
        ]
        graph = build_graph(events)
        graph = ProvenanceGraph(
            nodes=graph.nodes,
            alerts=(Alert(alert_id=0, event_id=4, severity=Severity.HIGH,
                          rule_name="at-tail"),),
        )
        skeleton = reduce_to_skeleton(graph)
        assert sorted(skeleton.nodes) == [0, 4]
        assert skeleton.edges == frozenset()
        assert skeleton.summary_edges == (
            SummaryEdge(from_id=0, to_id=4, collapsed_count=3),
        )

    def test_diamond_never_collapses(self):
        # 0 branches to 1 and 2, both rejoin at 3: collapsing either
        # branch would leave two indistinguishable summary edges.
        events = [
            make_event(0, 0),
            make_event(1, 1, parents=(0,)),
            make_event(2, 1, parents=(0,)),
            make_event(3, 2, parents=(1, 2)),
        ]
        graph = build_graph(events)
        graph = ProvenanceGraph(
            nodes=graph.nodes,
            alerts=(Alert(alert_id=0, event_id=3, severity=Severity.HIGH,
                          rule_name="r"),),
        )
        skeleton = reduce_to_skeleton(graph)
        assert sorted(skeleton.nodes) == [0, 1, 2, 3]
        assert skeleton.summary_edges == ()
        assert skeleton.edges == frozenset(
            {(0, 1), (0, 2), (1, 3), (2, 3)}
        )

    def test_run_between_branch_and_join_keeps_its_ends(self):
        # 0 -> 1 -> 2 -> 3 -> 4, where 0 also feeds the alert 5 and 4
        # also has parent 6: a summary from 0 or into 4 would hide the
        # branch or the join, so only the middle node 2 may collapse.
        events = [
            make_event(0, 0),
            make_event(1, 1, parents=(0,)),
            make_event(2, 2, parents=(1,)),
            make_event(3, 3, parents=(2,)),
            make_event(4, 4, parents=(3, 6)),
            make_event(5, 1, parents=(0,)),
            make_event(6, 0),
        ]
        graph = build_graph(events)
        graph = ProvenanceGraph(
            nodes=graph.nodes,
            alerts=tuple(
                Alert(alert_id=i, event_id=e, severity=Severity.HIGH,
                      rule_name="r")
                for i, e in enumerate((4, 5))
            ),
        )
        skeleton = reduce_to_skeleton(graph)
        assert sorted(skeleton.nodes) == [0, 1, 3, 4, 5, 6]
        assert skeleton.edges == frozenset({(0, 1), (0, 5), (3, 4), (6, 4)})
        assert skeleton.summary_edges == (
            SummaryEdge(from_id=1, to_id=3, collapsed_count=1),
        )

    def test_non_ancestors_pruned(self):
        events = chain(3) + [make_event(10, 10), make_event(11, 11,
                                                            parents=(10,))]
        graph = build_graph(events)
        graph = ProvenanceGraph(
            nodes=graph.nodes,
            alerts=(Alert(alert_id=0, event_id=2, severity=Severity.LOW,
                          rule_name="r"),),
        )
        skeleton = reduce_to_skeleton(graph)
        assert 10 not in skeleton.nodes and 11 not in skeleton.nodes

    def test_no_alerts_empty_skeleton(self):
        skeleton = reduce_to_skeleton(build_graph(chain(6)))
        assert skeleton.nodes == {}
        assert skeleton.summary_edges == ()

    def test_alert_midway_keeps_alert_even_with_unary_tail(self):
        # Alert on node 2 of a 5-chain: nodes 3, 4 are not ancestors
        # and vanish entirely; 0..2 reduce with a one-node summary.
        events = chain(5)
        graph = build_graph(events)
        graph = ProvenanceGraph(
            nodes=graph.nodes,
            alerts=(Alert(alert_id=0, event_id=2, severity=Severity.LOW,
                          rule_name="r"),),
        )
        skeleton = reduce_to_skeleton(graph)
        assert sorted(skeleton.nodes) == [0, 2]
        assert skeleton.summary_edges == (
            SummaryEdge(from_id=0, to_id=2, collapsed_count=1),
        )

    def test_repeated_parent_id_counts_once(self):
        # 0 <- 1 <- 2 <- 3 with alerts on 1 and 3: (0, 1) stays verbatim
        # and 2 collapses. Naming any parent twice must change neither.
        alerts = tuple(
            Alert(alert_id=i, event_id=e, severity=Severity.HIGH,
                  rule_name="r")
            for i, e in enumerate((1, 3))
        )
        plain = ProvenanceGraph(nodes=build_graph(chain(4)).nodes,
                                alerts=alerts)
        expected = reduce_to_skeleton(plain)
        assert expected.edges == frozenset({(0, 1)})
        assert expected.summary_edges == (SummaryEdge(1, 3, 1),)
        for doubled in (1, 2, 3):
            events = chain(4)
            events[doubled] = replace(events[doubled],
                                      parent_ids=(doubled - 1, doubled - 1))
            graph = ProvenanceGraph(nodes=build_graph(events).nodes,
                                    alerts=alerts)
            assert ancestors(graph, 3) == ancestors(plain, 3)
            assert ancestors(graph, 1, 3) == ancestors(plain, 1, 3)
            skeleton = reduce_to_skeleton(graph)
            assert skeleton.edges == expected.edges, doubled
            assert skeleton.summary_edges == expected.summary_edges, doubled

    def test_one_ancestor_walk_for_all_alerts(self, monkeypatch):
        # One walk per alert re-walks shared ancestry each time, which
        # makes the reduction quadratic in the log size.
        calls = []
        walk = provenance.ancestors

        def counting(graph, *event_ids):
            calls.append(event_ids)
            return walk(graph, *event_ids)

        monkeypatch.setattr(provenance, "ancestors", counting)
        graph = apply_rules(build_graph(chain(8)), [burst_rule(0)])
        assert len(graph.alerts) >= 3
        skeleton = reduce_to_skeleton(graph)
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(graph.alert_event_ids())
        assert sorted(skeleton.nodes) == list(range(8))


def named_nodes(graph: ProvenanceGraph, rules) -> set[int]:
    return set(reduce_to_skeleton(apply_rules(graph, rules)).nodes)


class TestSkeletonProperties:
    def test_named_nodes_monotone_under_added_alerts(self):
        rng = random.Random(77)
        for _ in range(40):
            graph = random_dag(rng, rng.randrange(5, 60))
            r1 = [burst_rule(8, Severity.HIGH, "few")]
            r2 = r1 + [burst_rule(4, Severity.LOW, "more")]
            assert named_nodes(graph, r1) <= named_nodes(graph, r2)

    def test_expansion_preserves_named_ancestry(self):
        # Expanded: each summary edge read as a direct edge between the
        # kept nodes it joins, given to the child as a parent id.
        rng = random.Random(99)
        for _ in range(30):
            graph = apply_rules(
                random_dag(rng, rng.randrange(5, 50)),
                [burst_rule(6, Severity.HIGH)],
            )
            skeleton = reduce_to_skeleton(graph)
            links = skeleton.edges | {
                (s.from_id, s.to_id) for s in skeleton.summary_edges
            }
            expanded = ProvenanceGraph(nodes={
                n: replace(e, parent_ids=tuple(
                    sorted(u for (u, v) in links if v == n)))
                for n, e in skeleton.nodes.items()
            })
            named = set(skeleton.nodes)
            for alert in graph.alerts:
                original = oracle_ancestors(graph, alert.event_id) & named
                assert oracle_ancestors(expanded, alert.event_id) == original

    def test_reduction_never_grows(self):
        rng = random.Random(44)
        for _ in range(40):
            graph = apply_rules(
                random_dag(rng, rng.randrange(2, 80)),
                [burst_rule(rng.randrange(0, 10), Severity.HIGH)],
            )
            assert len(reduce_to_skeleton(graph).nodes) <= len(graph.nodes)


class TestSkeletonSerialization:
    def test_obj_shape(self):
        graph = apply_rules(
            build_graph(chain(5)),
            [AlertRule(rule_name="tail",
                       attribute=AttributeKind.IO_OPERATION_COUNT,
                       op=">=", threshold=0, severity=Severity.HIGH)],
        )
        skeleton = reduce_to_skeleton(graph)
        obj = skeleton_to_obj(skeleton)
        assert set(obj) == {"nodes", "edges", "summary_edges"}
        for node in obj["nodes"]:
            assert "parents" not in node
        ids = [n["event_id"] for n in obj["nodes"]]
        assert ids == sorted(ids)
