"""Storage layer: hot pool queries, the archival pipeline, and the
access table a run writes as access.json."""

from __future__ import annotations

import json
import random
import re

import pytest

from trustgate.cli import main
from trustgate.engine import DEFAULT_QUORUM, ResourceSpec
from trustgate.logcodec import average_length, decode, encode
from trustgate.model import AttributeKind, Severity, Triplet
from trustgate.provenance import AlertRule, SummaryEdge
from trustgate.secretshare import ThresholdPolicy
from trustgate.simnet import (
    DeviceSpec,
    ScenarioConfig,
    benign_profile,
    config_to_obj,
    default_policy,
    default_rules,
    run,
)
from trustgate.store import HotStore, StoreError, archive_batch

from conftest import DEFAULT_TRIPLET, make_event

BURST_RULE = AlertRule(
    rule_name="io-burst",
    attribute=AttributeKind.IO_OPERATION_COUNT,
    op=">=",
    threshold=100,
    severity=Severity.HIGH,
)


class TestHotStore:
    def test_append_and_length(self):
        store = HotStore(None)
        assert store.append_events([make_event(i, i) for i in range(5)]) == 5
        assert len(store) == 5

    def test_window_is_half_open(self):
        store = HotStore(None)
        store.append_events([
            make_event(1, 100, value=7),
            make_event(2, 200, value=8),
            make_event(3, 300, value=9),
        ])
        # (now - horizon, now] with now=300, horizon=200 excludes ts=100.
        window = store.query_window(DEFAULT_TRIPLET, 300, 200)
        assert window == {AttributeKind.IO_OPERATION_COUNT: 9}
        # ts=now is included, ts just past the lower edge is too.
        window = store.query_window(DEFAULT_TRIPLET, 300, 199)
        assert window == {AttributeKind.IO_OPERATION_COUNT: 9}

    def test_latest_timestamp_wins(self):
        store = HotStore(None)
        store.append_events([
            make_event(1, 100, value=1),
            make_event(2, 150, value=2),
        ])
        window = store.query_window(DEFAULT_TRIPLET, 200, 200)
        assert window == {AttributeKind.IO_OPERATION_COUNT: 2}

    def test_timestamp_tie_falls_to_higher_id(self):
        store = HotStore(None)
        store.append_events([
            make_event(9, 100, value=1),
            make_event(4, 100, value=2),
        ])
        window = store.query_window(DEFAULT_TRIPLET, 100, 50)
        assert window == {AttributeKind.IO_OPERATION_COUNT: 1}

    def test_window_separates_triplets(self):
        other = Triplet("user-b", "dev-b", "res-b")
        store = HotStore(None)
        store.append_events([
            make_event(1, 100, value=1),
            make_event(2, 100, value=2, triplet=other),
        ])
        assert store.query_window(other, 100, 100) == {
            AttributeKind.IO_OPERATION_COUNT: 2
        }

    def test_window_spans_attribute_kinds(self):
        store = HotStore(None)
        store.append_events([
            make_event(1, 100, value=5),
            make_event(2, 110, attribute=AttributeKind.SYSTEM_CALL_COUNT,
                       value=50),
        ])
        window = store.query_window(DEFAULT_TRIPLET, 120, 100)
        assert window == {
            AttributeKind.IO_OPERATION_COUNT: 5,
            AttributeKind.SYSTEM_CALL_COUNT: 50,
        }

    def test_negative_horizon_rejected(self):
        store = HotStore(None)
        with pytest.raises(StoreError, match="horizon"):
            store.query_window(DEFAULT_TRIPLET, 100, -1)

    def test_empty_window(self):
        store = HotStore(None)
        assert store.query_window(DEFAULT_TRIPLET, 100, 100) == {}


WINDOW_TRIPLETS = tuple(Triplet(f"user-{i}", f"dev-{i}", "res-a")
                        for i in range(3))
WINDOW_KINDS = (AttributeKind.IO_OPERATION_COUNT,
                AttributeKind.SYSTEM_CALL_COUNT,
                AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID)


def brute_force_window(events, triplet, now, horizon):
    """The latest (timestamp, event id) per kind in (now - horizon, now],
    the first appended of equal keys winning."""

    best = {}
    for event in events:
        if event.triplet != triplet:
            continue
        if not now - horizon < event.timestamp <= now:
            continue
        cur = best.get(event.attribute)
        if cur is None or (event.timestamp, event.event_id) > (
                cur.timestamp, cur.event_id):
            best[event.attribute] = event
    return {kind: event.value for kind, event in best.items()}


def random_log(rng: random.Random, count: int) -> list:
    """Events over few timestamps, so that equal timestamps are common."""

    events = []
    for event_id in range(count):
        kind = rng.choice(WINDOW_KINDS)
        value = (f"net-{rng.randrange(9)}" if not kind.numeric
                 else rng.randrange(50))
        events.append(make_event(event_id, rng.randrange(40), kind, value,
                                 triplet=rng.choice(WINDOW_TRIPLETS)))
    return events


class TestWindowOracle:
    """``query_window`` reads a sorted tail of each triplet's events; on
    any append order it must equal a scan of the whole log."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ["time", "shuffled", "reversed"])
    def test_window_equals_brute_force(self, seed, order):
        rng = random.Random(seed)
        events = random_log(rng, 400)
        if order == "time":
            events.sort(key=lambda e: (e.timestamp, e.event_id))
        elif order == "shuffled":
            rng.shuffle(events)
        else:
            events.sort(key=lambda e: (e.timestamp, e.event_id), reverse=True)
        store = HotStore(None)
        start = 0
        while start < len(events):  # batches of random size
            size = rng.randrange(1, 60)
            assert store.append_events(events[start:start + size]) == len(
                events[start:start + size])
            start += size
        assert store.events == tuple(events)
        absent = Triplet("user-x", "dev-x", "res-a")
        for _ in range(300):
            triplet = rng.choice(WINDOW_TRIPLETS + (absent,))
            # Past the newest timestamp, inside the log and before it.
            now = rng.randrange(-3, 46)
            horizon = rng.randrange(0, 30)
            assert store.query_window(triplet, now, horizon) == (
                brute_force_window(events, triplet, now, horizon))

    def test_equal_keys_keep_the_first_appended(self):
        # Duplicate (timestamp, id) pairs: the store trusts its caller,
        # and the first one appended is the one a window reads.
        store = HotStore(None)
        store.append_events([make_event(2, 10, value=1),
                             make_event(5, 20, value=2),
                             make_event(2, 10, value=3),
                             make_event(5, 20, value=4)])
        assert store.query_window(DEFAULT_TRIPLET, 20, 100) == {
            AttributeKind.IO_OPERATION_COUNT: 2}
        assert store.query_window(DEFAULT_TRIPLET, 15, 100) == {
            AttributeKind.IO_OPERATION_COUNT: 1}


def access_scenario(
    devices=(("d1", "u1"),),
    resources=(ResourceSpec("res-a", 0.5),),
    quorum=DEFAULT_QUORUM,
) -> ScenarioConfig:
    specs = tuple(DeviceSpec(d, u) for d, u in devices)
    return ScenarioConfig(
        seed=1, duration=60, devices=specs, benign=benign_profile(),
        policy=default_policy(quorum=quorum, resources=resources),
        alert_rules=default_rules(), pretrusted=(specs[0].device_id,),
    )


def written_access(tmp_path, config: ScenarioConfig) -> dict:
    run(config, tmp_path)
    return json.loads((tmp_path / "access.json").read_text(encoding="utf-8"))


class TestAccessTable:
    """The access.json a run writes: principals, resource registry with
    token digests and share holders, and the attribute schema."""

    def test_principals_sorted_and_deduped(self, tmp_path):
        config = access_scenario(
            devices=(("d9", "u2"), ("d1", "u1"), ("d5", "u2"))
        )
        access = written_access(tmp_path, config)
        assert access["users"] == ["u1", "u2"]
        assert access["devices"] == ["d1", "d5", "d9"]

    def test_default_attributes_cover_all_kinds(self, tmp_path):
        access = written_access(tmp_path, access_scenario())
        assert access["attributes"] == sorted(k.value for k in AttributeKind)
        assert access["version"] == 1

    def test_quorum_shape_follows_token_resources(self, tmp_path):
        specs = (ResourceSpec("res-a", 0.5),
                 ResourceSpec("res-v", 0.75, "high"))
        config = access_scenario(resources=specs,
                                 quorum=ThresholdPolicy(n=3, z=2))
        access = written_access(tmp_path, config)
        holders = ["approver-1", "approver-2", "approver-3"]
        assert access["quorum_n"] == 3
        assert access["resources"]["res-v"]["share_holders"] == holders
        assert re.fullmatch("[0-9a-f]{64}",
                            access["resources"]["res-v"]["token_digest"])
        assert access["resources"]["res-a"]["share_holders"] == []
        assert access["resources"]["res-a"]["token_digest"] is None

    def test_no_token_resource_writes_null_quorum(self, tmp_path):
        access = written_access(tmp_path, access_scenario())
        assert access["quorum_n"] is None
        text = (tmp_path / "access.json").read_text(encoding="utf-8")
        assert '"quorum_n": null' in text

    def test_resource_entry_validation(self, tmp_path, capsys):
        # A bad registry entry is refused before any artifact is written.
        for field, value in (("threshold", 1.5), ("sensitivity", "secretive")):
            obj = config_to_obj(access_scenario())
            del obj["policy"]
            obj["resources"][0][field] = value
            scenario = tmp_path / f"{field}.json"
            scenario.write_text(json.dumps(obj), encoding="utf-8")
            out = tmp_path / f"out-{field}"
            code = main(["simulate", "--config", str(scenario),
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 1
            assert field in err and err.count("\n") == 1
            assert not out.exists()

    def test_round_trip(self, tmp_path):
        specs = (ResourceSpec("res-a", 0.5, "standard"),
                 ResourceSpec("res-v", 0.8, "high"))
        config = access_scenario(resources=specs)
        access = written_access(tmp_path, config)
        text = (tmp_path / "access.json").read_text(encoding="utf-8")
        assert text == json.dumps(access, indent=2, sort_keys=True) + "\n"
        registry = {
            rid: ResourceSpec(rid, entry["threshold"], entry["sensitivity"])
            for rid, entry in access["resources"].items()
        }
        assert registry == dict(config.policy.resources)


def alert_batch():
    """Two alert neighbourhoods plus noise.

    Alert 3 has two parents, so both survive verbatim. Alerts 10 and 14
    end a chain whose three interior non-alert nodes collapse into one
    summary edge. Events 20 and 21 lie on no path to an alert.
    """

    return [
        make_event(1, 100, value=1),
        make_event(2, 105, value=2),
        make_event(3, 110, value=200, parents=(1, 2)),     # alert
        make_event(10, 200, value=300),                    # alert
        make_event(11, 210, value=1, parents=(10,)),
        make_event(12, 220, value=1, parents=(11,)),
        make_event(13, 230, value=1, parents=(12,)),
        make_event(14, 240, value=400, parents=(13,)),     # alert
        make_event(20, 300, value=1),
        make_event(21, 310, value=1, parents=(20,)),
    ]


class TestArchiveBatch:
    def test_alert_ancestry_kept(self):
        batch = archive_batch(alert_batch(), [BURST_RULE])
        assert sorted(a.event_id for a in batch.graph.alerts) == [3, 10, 14]
        assert sorted(batch.skeleton.nodes) == [1, 2, 3, 10, 14]
        assert batch.skeleton.summary_edges == (SummaryEdge(10, 14, 3),)

    def test_records_decode_after_encode(self):
        # Records follow event-id order whatever order the batch came in.
        batch = archive_batch(alert_batch()[::-1], [BURST_RULE])
        values = [dict(r.items)["io_operation_count"] for r in batch.records]
        assert values == [1, 2, 200, 300, 400]
        assert batch.avg_code_length == average_length(batch.table)
        assert decode(encode(batch.records, batch.table)) == batch.records

    def test_summary_counts_nodes_and_alerts(self):
        batch = archive_batch(alert_batch(), [BURST_RULE])
        assert batch.summary() == {
            "nodes_before": 10, "nodes_after": 5, "ratio": 0.5, "alerts": 3,
        }

    def test_summary_of_empty_batch_has_zero_ratio(self):
        assert archive_batch([], [BURST_RULE]).summary() == {
            "nodes_before": 0, "nodes_after": 0, "ratio": 0.0, "alerts": 0,
        }

    def test_no_alerts_gives_empty_skeleton(self):
        batch = archive_batch(
            [make_event(1, 100, value=1), make_event(2, 110, value=2,
                                                     parents=(1,))],
            [BURST_RULE],
        )
        assert len(batch.graph.nodes) == 2
        assert batch.skeleton.nodes == {}
        assert batch.records == []
        assert batch.table is None
        assert batch.avg_code_length is None
        assert batch.summary()["ratio"] == 0.0
