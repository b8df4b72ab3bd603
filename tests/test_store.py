"""Storage layer: hot pool queries, the archival pipeline, and the
access table."""

from __future__ import annotations

import json

import pytest

from trustgate.logcodec import average_length, decode, encode
from trustgate.model import AttributeKind, Severity, Triplet
from trustgate.provenance import AlertRule, SummaryEdge
from trustgate.store import (
    AccessTable,
    HotStore,
    ResourceEntry,
    StoreError,
    archive_batch,
)

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

    def test_duplicate_id_rejected(self):
        store = HotStore(None)
        store.append_events([make_event(1, 0)])
        with pytest.raises(StoreError, match="duplicate event id"):
            store.append_events([make_event(1, 10)])

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = HotStore(path)
        store.append_events([make_event(i, i * 10) for i in range(3)])
        reopened = HotStore(path)
        assert reopened.events == store.events

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


class TestAccessTable:
    def test_principals_sorted_and_deduped(self):
        table = AccessTable(users=["u2", "u1", "u2"], devices=["d9", "d1"])
        assert table.users == ("u1", "u2")
        assert table.devices == ("d1", "d9")

    def test_default_attributes_cover_all_kinds(self):
        table = AccessTable()
        assert set(table.attributes) == {k.value for k in AttributeKind}

    def test_high_sensitivity_needs_exact_holder_count(self):
        entry = ResourceEntry(threshold=0.75, sensitivity="high",
                              share_holders=("a", "b"))
        with pytest.raises(StoreError, match="exactly 3"):
            AccessTable(resources={"res-x": entry}, quorum_n=3)

    def test_holder_count_unchecked_without_quorum(self):
        entry = ResourceEntry(threshold=0.75, sensitivity="high",
                              share_holders=("a",))
        AccessTable(resources={"res-x": entry})  # no quorum_n: accepted

    def test_resource_entry_validation(self):
        with pytest.raises(StoreError, match="threshold"):
            ResourceEntry(threshold=1.5, sensitivity="standard")
        with pytest.raises(StoreError, match="sensitivity"):
            ResourceEntry(threshold=0.5, sensitivity="secretive")

    def test_round_trip(self, tmp_path):
        table = AccessTable(
            users=["u1"], devices=["d1"],
            resources={"res-a": ResourceEntry(0.5, "standard")},
            quorum_n=None, version=4,
        )
        path = tmp_path / "access.json"
        table.save(path)
        assert json.loads(path.read_text(encoding="utf-8")) == table.to_obj()


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
