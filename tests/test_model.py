"""Core event model: domains and serialization."""

from __future__ import annotations

import random

import pytest

from trustgate.model import (
    MAX_NUMERIC_VALUE,
    AttributeKind,
    EdrEvent,
    ModelError,
    Triplet,
    dumps_event,
    event_from_obj,
    event_to_obj,
    read_events,
    write_events,
)
from trustgate.provenance import GraphError, build_graph

from conftest import DEFAULT_TRIPLET, make_event


class TestAttributeKinds:
    def test_exactly_ten_kinds(self):
        assert len(list(AttributeKind)) == 10

    def test_single_categorical_kind(self):
        categorical = [k for k in AttributeKind if not k.numeric]
        assert categorical == [AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID]


class TestTriplet:
    def test_ordering_is_lexicographic(self):
        a = Triplet("u1", "d1", "r1")
        b = Triplet("u1", "d1", "r2")
        c = Triplet("u1", "d2", "r0")
        assert a < b < c

    def test_empty_component_rejected(self):
        with pytest.raises(ModelError):
            Triplet("", "d", "r")
        with pytest.raises(ModelError):
            Triplet("u", "", "r")
        with pytest.raises(ModelError):
            Triplet("u", "d", "")

    def test_hashable_and_frozen(self):
        t = Triplet("u", "d", "r")
        assert t in {t}
        with pytest.raises(Exception):
            t.user_id = "other"


class TestValueDomains:
    def test_numeric_bounds(self):
        make_event(0, 0, value=0)
        make_event(1, 0, value=MAX_NUMERIC_VALUE)
        with pytest.raises(ModelError):
            make_event(2, 0, value=-1)
        with pytest.raises(ModelError):
            make_event(3, 0, value=MAX_NUMERIC_VALUE + 1)

    def test_bool_is_not_numeric(self):
        with pytest.raises(ModelError):
            make_event(0, 0, value=True)

    def test_float_rejected(self):
        with pytest.raises(ModelError):
            make_event(0, 0, value=1.5)

    def test_categorical_takes_string(self):
        make_event(
            0, 0,
            attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            value="net-17",
        )
        with pytest.raises(ModelError):
            make_event(
                1, 0,
                attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
                value=3,
            )
        with pytest.raises(ModelError):
            make_event(
                2, 0,
                attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
                value="",
            )

    def test_categorical_string_rejected_for_numeric(self):
        with pytest.raises(ModelError):
            make_event(0, 0, value="5")


class TestValidation:
    """The event-log invariants hold where a log is assembled: build_graph."""

    def test_duplicate_id_rejected(self):
        with pytest.raises(GraphError, match="duplicate event ids"):
            build_graph([make_event(0, 0), make_event(0, 5)])

    def test_dangling_parent_rejected(self):
        with pytest.raises(GraphError, match="event 1 references 99"):
            build_graph([make_event(1, 5, parents=(99,))])


class TestSerialization:
    def test_round_trip_object(self):
        event = make_event(7, 42, parents=(1, 2), value=13)
        assert event_from_obj(event_to_obj(event)) == event

    def test_round_trip_categorical(self):
        event = make_event(
            7, 42,
            attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            value="net-9",
        )
        assert event_from_obj(event_to_obj(event)) == event

    def test_unknown_field_rejected(self):
        obj = event_to_obj(make_event(0, 0))
        obj["extra"] = 1
        with pytest.raises(ModelError):
            event_from_obj(obj)

    def test_missing_field_rejected(self):
        obj = event_to_obj(make_event(0, 0))
        del obj["ts"]
        with pytest.raises(ModelError):
            event_from_obj(obj)

    def test_unknown_attribute_rejected(self):
        obj = event_to_obj(make_event(0, 0))
        obj["attribute"] = "made_up_counter"
        with pytest.raises(ModelError):
            event_from_obj(obj)

    def test_file_round_trip(self, tmp_events_path):
        events = [
            make_event(i, i, value=i * 3, parents=(i - 1,) if i else ())
            for i in range(20)
        ]
        count = write_events(tmp_events_path, events)
        assert count == 20
        assert read_events(tmp_events_path) == events

    def test_malformed_line_reports_line_number(self, tmp_events_path):
        good = dumps_event(make_event(0, 0))
        tmp_events_path.write_text(good + "\n{not json}\n")
        with pytest.raises(ModelError, match="line 2"):
            read_events(tmp_events_path)

    def test_deterministic_dump(self):
        event = make_event(3, 9, parents=(1,))
        assert dumps_event(event) == dumps_event(event)

    def test_random_round_trip_sweep(self):
        rng = random.Random(1234)
        kinds = list(AttributeKind)
        for _ in range(300):
            kind = rng.choice(kinds)
            value: int | str
            if kind.numeric:
                value = rng.randrange(0, MAX_NUMERIC_VALUE + 1)
            else:
                value = f"net-{rng.randrange(1000)}"
            event = EdrEvent(
                event_id=rng.randrange(10**9),
                triplet=Triplet(
                    f"u{rng.randrange(50)}",
                    f"d{rng.randrange(50)}",
                    f"r{rng.randrange(50)}",
                ),
                attribute=kind,
                value=value,
                timestamp=rng.randrange(10**9),
                parent_ids=tuple(
                    sorted({rng.randrange(100) for _ in range(rng.randrange(3))})
                ),
            )
            assert event_from_obj(event_to_obj(event)) == event
