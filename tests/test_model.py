"""Core event model: domains and serialization."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import pytest

from trustgate.model import (
    _CANONICAL_LINE,
    EVENT_FIELDS,
    MAX_NUMERIC_VALUE,
    AttributeKind,
    EdrEvent,
    ModelError,
    Severity,
    Triplet,
    dumps_event,
    event_from_obj,
    event_to_obj,
    read_events,
    write_events,
)
from trustgate.provenance import GraphError, build_graph
from trustgate.simnet import reference_scenario, run

from conftest import DEFAULT_TRIPLET, make_event
from test_simnet import small_scenario

GOOD_OBJ = event_to_obj(make_event(0, 0))
GOOD_LINE = json.dumps(GOOD_OBJ)


def _line(drop: tuple[str, ...] = (), **changes: object) -> str:
    """GOOD_LINE with fields changed, added or dropped."""

    obj = {k: v for k, v in GOOD_OBJ.items() if k not in drop}
    obj.update(changes)
    return json.dumps(obj)


# (id, text of the bad line, exact ModelError message). Each bad line is
# read as line 2, after GOOD_LINE; "blank_line_counts" adds a blank line.
MALFORMED_EVENT_LINES = [
    ("not_json", "{not json}",
     "line 2: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("utf8_bom", "\ufeff" + GOOD_LINE,
     "line 2: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    ("json_array", "[1, 2]", "line 2: event record must be a JSON object"),
    ("trailing_data", '{"a": 1} x',
     "line 2: Extra data: line 1 column 10 (char 9)"),
    ("second_object", '{"a": 1}{"b": 2}',
     "line 2: Extra data: line 1 column 9 (char 8)"),
    ("unknown_field", _line(extra=1),
     "line 2: unknown event fields: ['extra']"),
    ("missing_field", _line(drop=("ts", "parents")),
     "line 2: missing event fields: ['parents', 'ts']"),
    ("unknown_and_missing_field", _line(drop=("ts",), extra=1),
     "line 2: unknown event fields: ['extra']"),
    ("unknown_attribute", _line(attribute="made_up_counter"),
     "line 2: unknown attribute kind: 'made_up_counter'"),
    ("attribute_list", _line(attribute=["io_operation_count"]),
     "line 2: unknown attribute kind: ['io_operation_count']"),
    ("user_list", _line(user=["user-a"]),
     "line 2: user_id must be a non-empty string, got ['user-a']"),
    ("user_empty", _line(user=""),
     "line 2: user_id must be a non-empty string, got ''"),
    ("resource_object", _line(resource={"id": "res-a"}),
     "line 2: resource_id must be a non-empty string, got {'id': 'res-a'}"),
    ("bool_event_id", _line(event_id=True),
     "line 2: event_id must be an integer"),
    ("float_ts", _line(ts=1.5), "line 2: timestamp must be an integer"),
    ("bool_ts", _line(ts=True), "line 2: timestamp must be an integer"),
    ("negative_ts", _line(ts=-1),
     "line 2: timestamp -1 outside the unsigned 64-bit range"),
    ("value_above_u64", _line(value=MAX_NUMERIC_VALUE + 1),
     "line 2: attribute io_operation_count value 18446744073709551616 "
     "outside the unsigned 64-bit range"),
    ("string_for_numeric", _line(value="5"),
     "line 2: attribute io_operation_count value must be an integer"),
    ("empty_categorical",
     _line(attribute="frequent_external_network_id", value=""),
     "line 2: attribute frequent_external_network_id expects a non-empty "
     "string value"),
    ("parents_not_list", _line(parents=3),
     "line 2: parents must be a list of event ids"),
    ("bool_parent", _line(parents=[True]),
     "line 2: parent id must be an integer"),
    ("negative_parent", _line(parents=[0, -1]),
     "line 2: parent id -1 outside the unsigned 64-bit range"),
    ("blank_line_counts", "\n" + _line(user=""),
     "line 3: user_id must be a non-empty string, got ''"),
    ("nested_too_deep", "[" * 200_000,
     "line 2: maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string"),
    ("integer_past_digit_limit", '{"value": ' + "9" * 5000 + "}",
     "line 2: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
     "to increase the limit"),
    # Bytes rows are written as they are; the position is in the line.
    ("invalid_utf8", GOOD_LINE[:26].encode() + b"\xff" + b"x",
     "line 2: 'utf-8' codec can't decode byte 0xff in position 26: "
     "invalid start byte"),
]


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
        with pytest.raises(AttributeError):
            t.user_id = "other"
        with pytest.raises(AttributeError):
            t.extra = "other"

    def test_is_the_plain_tuple(self):
        t = Triplet("u", "d", "r")
        assert t == ("u", "d", "r") and ("u", "d", "r") == t
        assert hash(t) == hash(("u", "d", "r"))
        assert {("u", "d", "r"): 1}[t] == 1
        assert (t.user_id, t.device_id, t.resource_id) == ("u", "d", "r")
        assert list(t) == ["u", "d", "r"]
        assert Triplet(user_id="u", device_id="d", resource_id="r") == t
        assert repr(t) == "Triplet(user_id='u', device_id='d', resource_id='r')"

    def test_orders_like_the_plain_tuple(self):
        rng = random.Random(5)
        ids = ["a", "a-1", "a-10", "a-2", "b", "user-1", "user-10"]
        triplets = [Triplet(rng.choice(ids), rng.choice(ids), rng.choice(ids))
                    for _ in range(200)]
        assert sorted(triplets) == sorted(triplets, key=tuple)

    @pytest.mark.parametrize("bad", [1, None, b"u", ("u",), True])
    @pytest.mark.parametrize("field", ["user_id", "device_id", "resource_id"])
    def test_non_string_component_rejected(self, field, bad):
        ids = {"user_id": "u", "device_id": "d", "resource_id": "r"}
        ids[field] = bad
        with pytest.raises(ModelError) as info:
            Triplet(**ids)
        assert str(info.value) == (
            f"{field} must be a non-empty string, got {bad!r}")

    def test_copy_and_pickle_round_trip(self):
        t = Triplet("u", "d", "r")
        copies = [copy.copy(t), copy.deepcopy(t)] + [
            pickle.loads(pickle.dumps(t, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert type(other) is Triplet
            assert other == t and other.device_id == "d"

    def test_event_rejects_plain_tuple(self):
        with pytest.raises(ModelError, match="triplet must be a Triplet"):
            make_event(0, 0, triplet=("user-a", "dev-a", "res-a"))


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


class _Int(int):
    pass


class _Str(str):
    pass


class TestConstructionEdgeCases:
    """Values that are not of exact type int, str or tuple are accepted
    and stored as before."""

    def test_int_subclasses_accepted(self):
        event = make_event(_Int(3), _Int(9), value=_Int(5),
                           parents=(_Int(1),))
        assert (event.event_id, event.timestamp, event.value,
                event.parent_ids) == (3, 9, 5, (1,))
        assert type(event.event_id) is _Int

    def test_str_subclass_categorical_accepted(self):
        event = make_event(
            0, 0,
            attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            value=_Str("net-1"),
        )
        assert event.value == "net-1"

    def test_list_parent_ids_stored_as_tuple(self):
        event = make_event(2, 0, parents=[0, 1])
        assert event.parent_ids == (0, 1)
        assert type(event.parent_ids) is tuple

    def test_slots(self):
        event = make_event(0, 0)
        for obj in (event, event.triplet):
            assert not hasattr(obj, "__dict__")


def reference_u64(value, what):
    """The event integer rule, written out: an int that is not a bool,
    in [0, 2**64 - 1]."""

    if type(value) is bool or not isinstance(value, int):
        raise ModelError(f"{what} must be an integer")
    if not 0 <= value <= 2**64 - 1:
        raise ModelError(f"{what} {value} outside the unsigned 64-bit range")


def reference_checks(event_id, triplet, attribute, value, timestamp,
                     parent_ids=()):
    """EdrEvent's checks, in their order with their messages, as a
    function of the field values: every id, time and numeric value is an
    unsigned 64-bit int. Returns the parent ids as the event stores
    them."""

    reference_u64(event_id, "event_id")
    if not isinstance(triplet, Triplet):
        raise ModelError("triplet must be a Triplet")
    if not isinstance(attribute, AttributeKind):
        raise ModelError("attribute must be an AttributeKind")
    if attribute.numeric:
        reference_u64(value, f"attribute {attribute.value} value")
    elif not isinstance(value, str) or not value:
        raise ModelError(
            f"attribute {attribute.value} expects a non-empty string value")
    reference_u64(timestamp, "timestamp")
    if type(parent_ids) is not tuple:
        parent_ids = tuple(parent_ids)
    for pid in parent_ids:
        reference_u64(pid, "parent id")
    return parent_ids


_INTS = [0, 5, MAX_NUMERIC_VALUE, 2**64, -1, True, False, _Int(3), _Int(-2),
         1.5, "3", None]
# Each field's candidates; parent ids are made afresh for every event,
# since a generator is spent by one construction.
CONSTRUCTOR_CANDIDATES = {
    "event_id": [lambda v=v: v for v in _INTS],
    "triplet": [lambda: DEFAULT_TRIPLET,
                lambda: Triplet(_Str("u"), "d", "r"),
                lambda: tuple(DEFAULT_TRIPLET), lambda: "user-a", lambda: None],
    "attribute": [lambda: AttributeKind.IO_OPERATION_COUNT,
                  lambda: AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
                  lambda: "io_operation_count", lambda: Severity.LOW,
                  lambda: None],
    "value": [lambda v=v: v for v in _INTS + [
        "net-1", "", _Str("net-2"), _Str(""), b"net"]],
    "timestamp": [lambda v=v: v for v in _INTS],
    "parent_ids": [
        lambda: (), lambda: (0, 4), lambda: [1, 2], lambda: [],
        lambda: (i for i in (3, 1)), lambda: (i for i in (3, -1)),
        lambda: (_Int(2),), lambda: (True,), lambda: (-1,), lambda: (2**64,),
        lambda: (1.0,), lambda: ["0"], lambda: "12", lambda: 5,
        lambda: None],
}


def _outcome(build, values):
    """``("ok", build(*values))``, or ``("raised", type, text)`` of what
    it raises."""

    try:
        return "ok", build(*values)
    except Exception as exc:  # TypeError too: tuple(5) raises it
        return "raised", type(exc), str(exc)


class TestConstructor:
    """The hand-written constructor accepts and refuses exactly where the
    reference checks do, and the type keeps its dataclass behaviour."""

    def test_matches_the_reference_checks(self):
        rng = random.Random(11)
        names = list(CONSTRUCTOR_CANDIDATES)
        good = {name: CONSTRUCTOR_CANDIDATES[name][0] for name in names}
        cases = [
            {**good, name: make} for name in names
            for make in CONSTRUCTOR_CANDIDATES[name]
        ] + [
            {name: rng.choice(CONSTRUCTOR_CANDIDATES[name]) for name in names}
            for _ in range(3000)
        ]
        accepted = 0
        for case in cases:
            values = [case[name]() for name in names]
            want = _outcome(reference_checks, values)
            values[-1] = case["parent_ids"]()
            got = _outcome(EdrEvent, values)
            if got[0] == "raised":
                assert got == want
                continue
            accepted += 1
            assert want[0] == "ok"
            event = got[1]
            for name, value in zip(names, values[:-1]):
                assert getattr(event, name) is value
            assert event.parent_ids == want[1]
            assert type(event.parent_ids) is tuple
            if type(values[-1]) is tuple:
                assert event.parent_ids is values[-1]
        assert 20 < accepted < len(cases) - 1000

    def test_replace_runs_the_checks(self):
        event = make_event(3, 9, parents=(1,))
        assert dataclasses.replace(event, value=7) == make_event(
            3, 9, value=7, parents=(1,))
        with pytest.raises(ModelError) as info:
            dataclasses.replace(event, timestamp=-1)
        assert str(info.value) == (
            "timestamp -1 outside the unsigned 64-bit range")

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(EdrEvent)])
    def test_fields_are_frozen(self, name):
        event = make_event(3, 9, parents=(1,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, name, getattr(event, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(event, name)

    def test_copy_and_pickle_round_trip(self):
        event = make_event(
            3, 9, attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            value="net-1", parents=(1, 2))
        copies = [copy.copy(event), copy.deepcopy(event)] + [
            pickle.loads(pickle.dumps(event, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert type(other) is EdrEvent
            assert other == event and hash(other) == hash(event)
            assert repr(other) == repr(event)

    def test_not_equal_to_the_tuple_of_its_fields(self):
        event = make_event(3, 9, parents=(1,))
        values = tuple(getattr(event, field.name)
                       for field in dataclasses.fields(event))
        assert values == (3, DEFAULT_TRIPLET,
                          AttributeKind.IO_OPERATION_COUNT, 1, 9, (1,))
        assert event != values and values != event


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
        assert event_from_obj(event_to_obj(event), {}) == event

    def test_round_trip_categorical(self):
        event = make_event(
            7, 42,
            attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
            value="net-9",
        )
        assert event_from_obj(event_to_obj(event), {}) == event

    def test_unknown_field_rejected(self):
        obj = event_to_obj(make_event(0, 0))
        obj["extra"] = 1
        with pytest.raises(ModelError):
            event_from_obj(obj, {})

    def test_missing_field_rejected(self):
        obj = event_to_obj(make_event(0, 0))
        del obj["ts"]
        with pytest.raises(ModelError):
            event_from_obj(obj, {})

    def test_unknown_attribute_rejected(self):
        obj = event_to_obj(make_event(0, 0))
        obj["attribute"] = "made_up_counter"
        with pytest.raises(ModelError):
            event_from_obj(obj, {})

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

    @pytest.mark.parametrize(
        "text, message",
        [row[1:] for row in MALFORMED_EVENT_LINES],
        ids=[row[0] for row in MALFORMED_EVENT_LINES],
    )
    def test_malformed_line_table(self, tmp_events_path, text, message):
        if isinstance(text, str):
            text = text.encode("utf-8")
        tmp_events_path.write_bytes(GOOD_LINE.encode() + b"\n" + text + b"\n")
        with pytest.raises(ModelError) as info:
            read_events(tmp_events_path)
        assert str(info.value) == message

    def test_read_shares_one_triplet_per_identity(self, tmp_path):
        run(small_scenario(), tmp_path)
        path = tmp_path / "events.jsonl"
        events = read_events(path)
        identities = {event.triplet for event in events}
        assert len(identities) > 1
        assert len({id(event.triplet) for event in events}) == len(identities)
        assert events == [event_from_obj(json.loads(line), {})
                          for line in path.read_text().splitlines()]

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
            assert event_from_obj(event_to_obj(event), {}) == event


# One canonical line, as dumps_event writes it, with a parent so that
# the parents list has an element to edit.
CANON_OBJ = event_to_obj(make_event(7, 9, value=5, parents=(3,)))


def _edited(field: str, text: str) -> str:
    """The canonical line with ``field``'s JSON text replaced by ``text``
    (inside the list, for parents)."""

    parts = []
    for key, value in CANON_OBJ.items():
        if key == field:
            value_text = f"[{text}]" if key == "parents" else text
        else:
            value_text = json.dumps(value)
        parts.append(f'"{key}": {value_text}')
    return "{" + ", ".join(parts) + "}"


FIELD_EDITS = {
    "zero": "0",
    "u64_max": str(MAX_NUMERIC_VALUE),
    "u64_max_plus_one": str(MAX_NUMERIC_VALUE + 1),
    "twenty_digits": "9" * 20,
    "twenty_one_digits": "1" + "0" * 20,
    "leading_zero": "05",
    "negative": "-5",
    "empty_string": '""',
    "escaped_string": '"net-\\u0041"',
    "non_ascii_string": '"n\u00e9t"',
    "unknown_kind": '"made_up_counter"',
    "categorical_kind": '"frequent_external_network_id"',
}

# (id, line): every field at every edit, plus whole-line edits.
READER_LINES = [
    (f"{field}-{edit}", _edited(field, text))
    for field in EVENT_FIELDS for edit, text in FIELD_EDITS.items()
] + [
    ("canonical", _edited("ts", "9")),
    ("swapped_keys", json.dumps(
        {"user": CANON_OBJ["user"],
         **{k: v for k, v in CANON_OBJ.items() if k != "user"}})),
    ("extra_spaces", json.dumps(CANON_OBJ).replace(": ", ":  ")),
    ("compact", json.dumps(CANON_OBJ, separators=(",", ":"))),
    ("no_parents", _edited("parents", "")),
    ("two_parents", _edited("parents", "1, 2")),
    ("surrounding_spaces", "  " + json.dumps(CANON_OBJ) + "\t"),
]


class TestCanonicalReader:
    """read_events's regular expression path reads what the JSON parser
    reads, or refuses with the parser path's message."""

    @staticmethod
    def parser_reading(line: str) -> EdrEvent | str:
        try:
            return event_from_obj(json.loads(line), {})
        except ValueError as exc:
            return f"line 2: {exc}"

    @pytest.mark.parametrize("line", [row[1] for row in READER_LINES],
                             ids=[row[0] for row in READER_LINES])
    def test_field_edit_reads_as_the_parser_reads(self, tmp_events_path,
                                                  line):
        tmp_events_path.write_text(GOOD_LINE + "\n" + line + "\n",
                                   encoding="utf-8")
        try:
            got = read_events(tmp_events_path)[1]
        except ModelError as exc:
            got = str(exc)
        want = self.parser_reading(line)
        assert got == want
        if isinstance(want, EdrEvent):  # 1 == True, so compare types too
            assert type(got.value) is type(want.value)

    def test_simulator_log_is_canonical(self, tmp_path):
        run(reference_scenario(42), tmp_path)
        lines = (tmp_path / "events.jsonl").read_bytes().splitlines()
        assert len(lines) > 1000
        assert all(_CANONICAL_LINE.fullmatch(line) for line in lines)

    @pytest.mark.parametrize("separator", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_line_numbers_across_chunks(self, tmp_events_path, separator):
        # Enough lines for several read chunks, a blank line, then an
        # event the constructor refuses, then one the parser refuses.
        lines = [dumps_event(make_event(i, i)) for i in range(2000)]
        lines[1500] = ""
        refused = _edited("value", str(MAX_NUMERIC_VALUE + 1))
        for bad, message in (
            (refused, "attribute io_operation_count value "
                      "18446744073709551616 outside the unsigned 64-bit "
                      "range"),
            ("{not json}", "Expecting property name enclosed in double "
                           "quotes: line 1 column 2 (char 1)"),
        ):
            text = separator.join(lines[:1800] + [bad] + lines[1800:])
            tmp_events_path.write_bytes(text.encode())
            with pytest.raises(ModelError) as info:
                read_events(tmp_events_path)
            assert str(info.value) == f"line 1801: {message}"
        tmp_events_path.write_bytes(separator.join(lines).encode())
        assert read_events(tmp_events_path) == [
            make_event(i, i) for i in range(2000) if i != 1500]

    @pytest.mark.parametrize("field,text,message", [
        ("value", str(MAX_NUMERIC_VALUE + 1),
         "attribute io_operation_count value 18446744073709551616 outside "
         "the unsigned 64-bit range"),
        ("user", '""', "user_id must be a non-empty string, got ''"),
    ], ids=["value_above_u64", "user_empty"])
    def test_repeated_refused_run_is_numbered_at_its_first_line(
            self, tmp_events_path, field, text, message):
        # The same refused run on two lines of one chunk: the run's text
        # is parsed once, but each line still goes through the
        # constructor, so the first line is the one named.
        lines = [dumps_event(make_event(i, i)) for i in range(50)]
        lines[20] = lines[35] = _edited(field, text)
        tmp_events_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelError) as info:
            read_events(tmp_events_path)
        assert str(info.value) == f"line 21: {message}"

    def test_identity_first_seen_in_a_later_chunk(self, tmp_events_path):
        late = Triplet("user-late", "dev-late", "res-late")
        events = [make_event(i, i, value=i % 7) for i in range(3000)]
        events[2500:2600] = [
            make_event(i, i, triplet=late,
                       attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
                       value=f"net-{i % 3}")
            if i % 2 else make_event(i, i, triplet=late, value=i % 3)
            for i in range(2500, 2600)]
        lines = [dumps_event(event) for event in events]
        assert sum(map(len, lines[:2500])) > 2 * 65536  # past two chunks
        tmp_events_path.write_text("\n".join(lines) + "\n")
        triplets: dict = {}
        want = [event_from_obj(json.loads(line), triplets) for line in lines]
        got = read_events(tmp_events_path)
        assert got == want == events
        assert len({id(event.triplet) for event in got}) == 2

    def test_mixed_chunk_shares_triplets(self, tmp_events_path):
        # A non-canonical line sends its chunk through the parser; the
        # events of both paths share one Triplet per identity.
        lines = [dumps_event(make_event(i, i)) for i in range(1000)]
        lines[10] = json.dumps(event_to_obj(make_event(10, 10)),
                               separators=(",", ":"))
        tmp_events_path.write_text("\n".join(lines) + "\n")
        events = read_events(tmp_events_path)
        assert events == [make_event(i, i) for i in range(1000)]
        assert len({id(event.triplet) for event in events}) == 1


class _ReprInt(int):
    """An int whose str and repr are not its digits."""

    def __repr__(self) -> str:
        return "ReprInt"

    __str__ = __repr__


class _ReprStr(str):
    def __repr__(self) -> str:
        return "ReprStr"

    __str__ = __repr__


_ODD = 'é"\\\x00\x1f\n\u2603\U0001f600/'

# (id, event). Every string field carries non-ASCII, quote, backslash and
# control characters in one case or another.
DUMPS_EVENT_CASES = [
    ("plain", make_event(0, 0)),
    *[(f"kind_{kind.value}",
       make_event(1, 2, attribute=kind, value=7 if kind.numeric else "net-7"))
      for kind in AttributeKind],
    ("user_odd", make_event(0, 0, triplet=Triplet("u" + _ODD, "d", "r"))),
    ("device_odd", make_event(0, 0, triplet=Triplet("u", _ODD, "r"))),
    ("resource_odd", make_event(0, 0, triplet=Triplet("u", "d", _ODD + "r"))),
    ("value_odd", make_event(
        0, 0, attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
        value=_ODD)),
    ("value_zero", make_event(0, 0, value=0)),
    ("value_max", make_event(0, 0, value=MAX_NUMERIC_VALUE)),
    ("ids_max", make_event(MAX_NUMERIC_VALUE, MAX_NUMERIC_VALUE,
                           parents=(MAX_NUMERIC_VALUE,))),
    ("int_subclasses", make_event(
        _ReprInt(3), _ReprInt(9), value=_ReprInt(2**64 - 1),
        parents=(_ReprInt(1), 2, _ReprInt(0)))),
    ("str_subclasses", make_event(
        0, 0, attribute=AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
        value=_ReprStr("net-" + _ODD),
        triplet=Triplet(_ReprStr("u"), _ReprStr(_ODD), _ReprStr("r")))),
    ("no_parents", make_event(5, 5)),
    ("one_parent", make_event(5, 5, parents=(4,))),
    ("several_parents", make_event(5, 5, parents=(0, 1, 3, 4))),
]


@pytest.mark.parametrize("event", [case[1] for case in DUMPS_EVENT_CASES],
                         ids=[case[0] for case in DUMPS_EVENT_CASES])
def test_dumps_event_is_json_dumps(event):
    assert dumps_event(event) == json.dumps(event_to_obj(event))
