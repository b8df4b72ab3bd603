"""One integer rule: every id, time and numeric value an event carries
is an int, not a bool, in the unsigned 64-bit range. Every reader of
such an integer, and every holder of an event id, accepts exactly what
``model.check_u64`` accepts."""

from __future__ import annotations

import json

import pytest

from trustgate.logcodec import CodecError, record_from_key
from trustgate.model import (
    _CANONICAL_LINE,
    MAX_NUMERIC_VALUE,
    Alert,
    AttributeKind,
    ModelError,
    Severity,
    check_u64,
    is_int,
    read_events,
)
from trustgate.simnet import (
    AttributeProfile,
    BehaviorProfile,
    DeviceSpec,
    ScenarioConfig,
    ScenarioError,
    default_policy,
)

from conftest import make_event
from test_model import GOOD_LINE, _edited
from test_simnet import QUIET_PROFILE


class _Int(int):
    pass


IO = AttributeKind.IO_OPERATION_COUNT

# (id, candidate, whether the rule accepts it)
CANDIDATES = [
    ("zero", 0, True),
    ("u64_max", MAX_NUMERIC_VALUE, True),
    ("u64_max_plus_one", MAX_NUMERIC_VALUE + 1, False),
    ("negative", -1, False),
    ("bool", True, False),
    ("float", 1.5, False),
    ("string", "3", False),
    ("int_subclass", _Int(3), True),
]
IDS = [case[0] for case in CANDIDATES]

# Each int field of an event, by its wire name: its name in refusals,
# and the event of test_model's canonical line that carries a candidate
# there.
FIELDS = {
    "event_id": ("event_id",
                 lambda v: make_event(v, 9, value=5, parents=(3,))),
    "ts": ("timestamp", lambda v: make_event(7, v, value=5, parents=(3,))),
    "value": ("attribute io_operation_count value",
              lambda v: make_event(7, 9, value=v, parents=(3,))),
    "parents": ("parent id", lambda v: make_event(7, 9, value=5,
                                                  parents=(v,))),
}

# The ids an alert holds: its own and its event's.
HOLDERS = {
    **FIELDS,
    "alert_id": ("alert_id",
                 lambda v: Alert(v, 7, Severity.HIGH, "rule")),
    "alert_event_id": ("event_id",
                       lambda v: Alert(1, v, Severity.HIGH, "rule")),
}


def refusal(value: object, what: str) -> str | None:
    """The rule's message for ``value`` named ``what``, or None when the
    rule accepts it."""

    try:
        check_u64(value, what)
    except ModelError as exc:
        return str(exc)
    return None


def outcome(build, error: type[ValueError]) -> str | None:
    """None when ``build()`` returns, else the text of the ``error`` it
    raises."""

    try:
        build()
    except error as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("value, accepted", [c[1:] for c in CANDIDATES],
                         ids=IDS)
def test_rule(value, accepted):
    assert (refusal(value, "x") is None) == accepted
    assert is_int(value) == (type(value) not in (bool, float, str))


@pytest.mark.parametrize("field", HOLDERS)
@pytest.mark.parametrize("value", [c[1] for c in CANDIDATES], ids=IDS)
def test_event_field(field, value):
    what, build = HOLDERS[field]
    assert outcome(lambda: build(value), ModelError) == refusal(value, what)


@pytest.mark.parametrize("layout", ["canonical", "compact"])
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", [c[1] for c in CANDIDATES], ids=IDS)
def test_read_events(tmp_events_path, layout, field, value):
    # A canonical line with an int of at most 20 digits (or a string
    # value) is tried by the regular expression first; the compact line
    # goes to the JSON parser. Either path refuses with the line's number.
    line = _edited(field, json.dumps(value))
    if layout == "compact":
        line = json.dumps(json.loads(line), separators=(",", ":"))
    assert bool(_CANONICAL_LINE.fullmatch(line.encode())) == (
        layout == "canonical" and (is_int(value) and value >= 0
                                   or field == "value" and value == "3"))
    tmp_events_path.write_text(GOOD_LINE + "\n" + line + "\n",
                               encoding="utf-8")
    what, build = FIELDS[field]
    message = refusal(value, what)
    got = outcome(lambda: read_events(tmp_events_path), ModelError)
    assert got == (None if message is None else f"line 2: {message}")
    if message is None:
        assert read_events(tmp_events_path)[1] == build(value)


@pytest.mark.parametrize("value", [c[1] for c in CANDIDATES], ids=IDS)
def test_record_from_key(value):
    key = json.dumps({IO.value: value}, separators=(",", ":"))
    message = refusal(value, f"attribute {IO.value} value")
    assert outcome(lambda: record_from_key(key), CodecError) == (
        None if message is None else f"pattern key {key!r}: {message}")
    if message is None:
        assert record_from_key(key) == (IO, value)


@pytest.mark.parametrize("value", [c[1] for c in CANDIDATES], ids=IDS)
def test_behavior_profile(value):
    message = refusal(value, f"attribute {IO.value} value")
    assert outcome(lambda: BehaviorProfile(attributes={IO: AttributeProfile(
        rate=0.01, values=((value, 1),))}), ScenarioError) == (
        None if message is None
        else f"attributes.{IO.value}.values[0]: {message}")


@pytest.mark.parametrize("value", [c[1] for c in CANDIDATES], ids=IDS)
def test_scenario_duration(value):
    # Every time a run draws lies below its duration. A duration that is
    # no int is refused by the scenario's own type check first.
    message = refusal(value, "duration")
    if not is_int(value):
        message = f"duration must be an integer, got {value!r}"
    assert outcome(lambda: ScenarioConfig(
        seed=1, duration=value, devices=(DeviceSpec("dev-01", "user-01"),),
        benign=QUIET_PROFILE, policy=default_policy(), alert_rules=(),
        refresh_interval=2**64), ScenarioError) == message
