"""Core domain types shared across the package.

Everything downstream (provenance graphs, stores, the decision engine,
the simulator) speaks in terms of the types defined here: access
triplets, endpoint attribute observations, and the alerts raised on
them.

Logs are JSON Lines, one event per line. A read shares one ``Triplet``
per distinct (user, device, resource) among the events that carry it,
and reads lines in ``dumps_event``'s layout with a regular expression,
the rest with the JSON parser.

This module is also the package's one home for JSON wire formats:
``load_json`` reads every JSON document, ``format_json`` formats every
one written, and ``parse_lines`` reads every JSON Lines input with
numbered lines.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

MAX_NUMERIC_VALUE = 2**64 - 1


class ModelError(ValueError):
    """Raised for malformed domain objects or serialized records."""


class AttributeKind(str, Enum):
    """Closed set of endpoint telemetry attributes.

    Numeric kinds carry unsigned 64-bit integers; categorical kinds
    carry opaque non-empty identifier strings.
    """

    EXTERNAL_NET_ACCESS_SECONDS = "external_net_access_seconds"
    FLASH_DRIVE_USAGE_SECONDS = "flash_drive_usage_seconds"
    ENTRY_TIMESTAMP = "entry_timestamp"
    IO_OPERATION_COUNT = "io_operation_count"
    PRIVILEGE_ESCALATION_ATTEMPTS = "privilege_escalation_attempts"
    MALICIOUS_FILE_ACCESS_COUNT = "malicious_file_access_count"
    FREQUENT_EXTERNAL_NETWORK_ID = "frequent_external_network_id"
    FUNCTION_CALL_COUNT = "function_call_count"
    SYSTEM_CALL_COUNT = "system_call_count"
    EXIT_TIMESTAMP = "exit_timestamp"

    @property
    def numeric(self) -> bool:
        return self is not _CATEGORICAL


_CATEGORICAL = AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID


class Severity(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"


class Triplet(tuple):
    """A (user, device, resource) access identity.

    A Triplet is a tuple: it compares, hashes and orders exactly like
    ``(user_id, device_id, resource_id)``, so ordering is lexicographic
    on those fields and gives every collection of triplets a stable
    total order.
    """

    __slots__ = ()

    def __new__(cls, user_id: str, device_id: str, resource_id: str) -> Triplet:
        if not isinstance(user_id, str) or not user_id:
            raise ModelError("user_id must be a non-empty string")
        if not isinstance(device_id, str) or not device_id:
            raise ModelError("device_id must be a non-empty string")
        if not isinstance(resource_id, str) or not resource_id:
            raise ModelError("resource_id must be a non-empty string")
        return tuple.__new__(cls, (user_id, device_id, resource_id))

    user_id = property(itemgetter(0))
    device_id = property(itemgetter(1))
    resource_id = property(itemgetter(2))

    def __getnewargs__(self) -> tuple[str, str, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return (f"Triplet(user_id={self[0]!r}, device_id={self[1]!r}, "
                f"resource_id={self[2]!r})")


@dataclass(frozen=True, slots=True)
class EdrEvent:
    """One timestamped attribute observation bound to a triplet.

    ``parent_ids`` names the events this observation causally depends
    on. Log-level invariants (unique ids, parents present and strictly
    earlier) are checked by :func:`trustgate.provenance.build_graph`,
    not at construction.

    The constructor is written by hand: it checks the fields, then
    stores each through its slot's descriptor, past the frozen
    ``__setattr__``. Its parameters must stay the fields, in order.
    """

    event_id: int
    triplet: Triplet
    attribute: AttributeKind
    value: int | str
    timestamp: int
    parent_ids: tuple[int, ...] = ()

    def __init__(self, event_id: int, triplet: Triplet,
                 attribute: AttributeKind, value: int | str, timestamp: int,
                 parent_ids: tuple[int, ...] = ()) -> None:
        # bool is an int subclass; it is not an id, a time or a value.
        # Each check tests the exact type first, which is the common case.
        if type(event_id) is not int and (
                isinstance(event_id, bool) or not isinstance(event_id, int)):
            raise ModelError("event_id must be an integer")
        if event_id < 0:
            raise ModelError("event_id must be non-negative")
        if not isinstance(triplet, Triplet):
            raise ModelError("triplet must be a Triplet")
        if not isinstance(attribute, AttributeKind):
            raise ModelError("attribute must be an AttributeKind")
        if attribute is not _CATEGORICAL:
            if type(value) is not int and (
                    isinstance(value, bool) or not isinstance(value, int)):
                raise ModelError(
                    f"attribute {attribute.value} expects an integer value"
                )
            if not 0 <= value <= MAX_NUMERIC_VALUE:
                raise ModelError(
                    f"attribute {attribute.value} value {value} outside the "
                    f"unsigned 64-bit range"
                )
        elif not isinstance(value, str) or not value:
            raise ModelError(
                f"attribute {attribute.value} expects a non-empty string value"
            )
        if type(timestamp) is not int and (
                isinstance(timestamp, bool) or not isinstance(timestamp, int)):
            raise ModelError("timestamp must be an integer")
        if timestamp < 0:
            raise ModelError("timestamp must be non-negative")
        if type(parent_ids) is not tuple:
            parent_ids = tuple(parent_ids)
        for pid in parent_ids:
            if type(pid) is not int and (
                    isinstance(pid, bool) or not isinstance(pid, int)) or pid < 0:
                raise ModelError("parent ids must be non-negative integers")
        _set_event_id(self, event_id)
        _set_triplet(self, triplet)
        _set_attribute(self, attribute)
        _set_value(self, value)
        _set_timestamp(self, timestamp)
        _set_parent_ids(self, parent_ids)


# Each field's slot descriptor stores past the frozen __setattr__; the
# slotted class exists only once the decorator has run.
(_set_event_id, _set_triplet, _set_attribute, _set_value, _set_timestamp,
 _set_parent_ids) = (EdrEvent.__dict__[field.name].__set__
                     for field in fields(EdrEvent))


@dataclass(frozen=True)
class Alert:
    """A rule firing on a single event."""

    alert_id: int
    event_id: int
    severity: Severity
    rule_name: str

    def __post_init__(self) -> None:
        if self.alert_id < 0 or self.event_id < 0:
            raise ModelError("alert_id and event_id must be non-negative")
        if not isinstance(self.severity, Severity):
            raise ModelError("severity must be a Severity")
        if not self.rule_name:
            raise ModelError("rule_name must be non-empty")


# --- JSON Lines wire format -------------------------------------------------

EVENT_FIELDS = ("event_id", "user", "device", "resource", "attribute",
                "value", "ts", "parents")


def event_to_obj(event: EdrEvent) -> dict:
    return {
        "event_id": event.event_id,
        "user": event.triplet.user_id,
        "device": event.triplet.device_id,
        "resource": event.triplet.resource_id,
        "attribute": event.attribute.value,
        "value": event.value,
        "ts": event.timestamp,
        "parents": list(event.parent_ids),
    }


_FIELD_SET = frozenset(EVENT_FIELDS)
_KINDS = {kind.value: kind for kind in AttributeKind}


def event_from_obj(obj: object, triplets: dict[tuple, Triplet]) -> EdrEvent:
    """Build an event from its wire object. Events built with one
    ``triplets`` dict share one Triplet per (user, device, resource)."""

    if not isinstance(obj, dict):
        raise ModelError("event record must be a JSON object")
    if obj.keys() != _FIELD_SET:
        unknown = obj.keys() - _FIELD_SET
        if unknown:
            raise ModelError(f"unknown event fields: {sorted(unknown)}")
        raise ModelError(
            f"missing event fields: {sorted(_FIELD_SET - obj.keys())}")
    try:
        attribute = _KINDS[obj["attribute"]]
    except (KeyError, TypeError):
        raise ModelError(f"unknown attribute kind: {obj['attribute']!r}") from None
    parents = obj["parents"]
    if not isinstance(parents, list):
        raise ModelError("parents must be a list of event ids")
    identity = (obj["user"], obj["device"], obj["resource"])
    try:
        triplet = triplets[identity]
    except KeyError:
        triplet = triplets[identity] = Triplet(*identity)
    except TypeError:  # an unhashable field is no string: Triplet rejects it
        triplet = Triplet(*identity)
    return EdrEvent(
        event_id=obj["event_id"],
        triplet=triplet,
        attribute=attribute,
        value=obj["value"],
        timestamp=obj["ts"],
        parent_ids=tuple(parents),
    )


_int_repr = int.__repr__


def _identity_text(triplet: Triplet) -> str:
    """The "user", "device" and "resource" fields of an event line."""

    user, device, resource = triplet
    return (f'"user": {encode_basestring_ascii(user)}, '
            f'"device": {encode_basestring_ascii(device)}, '
            f'"resource": {encode_basestring_ascii(resource)}')


def _pair_text(attribute: AttributeKind, value: int | str) -> str:
    """The "attribute" and "value" fields of an event line."""

    value = (encode_basestring_ascii(value) if isinstance(value, str)
             else _int_repr(value))
    return f'"attribute": {encode_basestring_ascii(attribute)}, "value": {value}'


def _event_line(event: EdrEvent, identity: str, pair: str) -> str:
    return (
        f'{{"event_id": {_int_repr(event.event_id)}, {identity}, {pair}, '
        f'"ts": {_int_repr(event.timestamp)}, '
        f'"parents": [{", ".join(map(_int_repr, event.parent_ids))}]}}'
    )


def dumps_event(event: EdrEvent) -> str:
    """One event as a JSON line, byte for byte ``json.dumps`` of
    :func:`event_to_obj`. ``int.__repr__`` and ``encode_basestring_ascii``
    are what the encoder applies to int and str subclasses too, and an
    AttributeKind is a str whose content is its value."""

    return _event_line(event, _identity_text(event.triplet),
                       _pair_text(event.attribute, event.value))


def write_events(path: str | Path, events: Iterable[EdrEvent]) -> int:
    """Write events as JSON Lines, each line as :func:`dumps_event`
    formats it; returns the number written. Each distinct identity and
    (attribute, value) pair is formatted once per call."""

    identities: dict[Triplet, str] = {}
    pairs: dict[tuple[AttributeKind, int | str], str] = {}
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for event in events:
            identity = identities.get(event.triplet)
            if identity is None:
                identity = identities[event.triplet] = _identity_text(
                    event.triplet)
            key = (event.attribute, event.value)
            pair = pairs.get(key)
            if pair is None:
                pair = pairs[key] = _pair_text(*key)
            write(_event_line(event, identity, pair) + "\n")
            count += 1
    return count


# The layout dumps_event writes, as a whole line of a file read as bytes:
# ASCII strings with no quote, escape or control character, a known
# attribute kind, integers of at most 20 digits with no sign or leading
# zero. json.loads reads such a line into the eight fields the five
# groups hold: the event id, the identity run ("user", "device" and
# "resource"), the pair run ("attribute" and "value"), ts and the
# parents. A match spans one line from its start to its end, so a chunk
# with as many matches as lines has every line in this layout.
_ID = rb"0|[1-9][0-9]{0,19}"
_STR = rb'"[^"\\\x00-\x1f\x80-\xff]*"'
_CANONICAL_LINE = re.compile(
    rb'(?m)^\{"event_id": (' + _ID + rb'), '
    rb'("user": ' + _STR + rb', "device": ' + _STR + rb', '
    rb'"resource": ' + _STR + rb'), '
    rb'("attribute": "(?:' + b"|".join(sorted(k.encode() for k in _KINDS))
    + rb')", "value": (?:' + _ID + rb'|' + _STR + rb')), '
    rb'"ts": (' + _ID + rb'), '
    rb'"parents": \[((?:' + _ID + rb')(?:, (?:' + _ID + rb'))*)?\]\}'
    rb'(?:\r?\n|\r?\Z)'
)
_CHUNK_BYTES = 1 << 16


def _canonical_events(
    found: list[tuple[bytes, ...]], triplets: dict[tuple, Triplet],
    triplet_of: dict[bytes, Triplet],
    pair_of: dict[bytes, tuple[AttributeKind, int | str]],
) -> list[EdrEvent]:
    """The events of a chunk's matched lines. ``triplet_of`` and
    ``pair_of`` hold the triplet and the (kind, value) of each identity
    and pair run already read, so each distinct run is parsed once; every
    line still builds its event, and a refused one raises ModelError
    with no line number."""

    events = []
    append = events.append
    for event_id, identity_text, pair_text, ts, parents in found:
        triplet = triplet_of.get(identity_text)
        if triplet is None:
            # The run's strings hold no quote, so its 4th, 8th and 12th
            # quote-separated parts are the user, device and resource.
            identity = tuple(identity_text.decode().split('"')[3::4])
            triplet = triplets.get(identity)
            if triplet is None:
                triplet = triplets[identity] = Triplet(*identity)
            triplet_of[identity_text] = triplet
        pair = pair_of.get(pair_text)
        if pair is None:
            kind, value = pair_text.decode().removeprefix(
                '"attribute": "').split('", "value": ')
            pair = pair_of[pair_text] = (
                _KINDS[kind], value[1:-1] if value[0] == '"' else int(value))
        if not parents:
            parent_ids = ()
        elif b"," in parents:
            parent_ids = tuple(map(int, parents.split(b", ")))
        else:
            parent_ids = (int(parents),)
        append(EdrEvent(int(event_id), triplet, pair[0], pair[1], int(ts),
                        parent_ids))
    return events


def read_events(path: str | Path) -> list[EdrEvent]:
    """Read the events of a JSON Lines file.

    The file is read in chunks of whole lines. A chunk whose every line is
    in ``dumps_event``'s layout is read by one regular expression scan,
    one match per line. From the first chunk that is not, or that holds
    an event its constructor refuses, the rest of the file is read by
    :func:`parse_lines`, one ``json.loads`` per line: a malformed line,
    invalid UTF-8 and nesting too deep to parse included, raises
    ModelError carrying its 1-based line number.
    """

    triplets: dict[tuple, Triplet] = {}
    triplet_of: dict[bytes, Triplet] = {}
    pair_of: dict[bytes, tuple[AttributeKind, int | str]] = {}

    def scan(chunk: list[bytes]) -> list[EdrEvent] | None:
        found = _CANONICAL_LINE.findall(b"".join(chunk))
        if len(found) != len(chunk):
            return None
        try:
            return _canonical_events(found, triplets, triplet_of, pair_of)
        except ModelError:
            return None  # parse_lines names the line

    with open(path, "rb") as fh:
        return scan_lines(
            fh, scan, lambda line: event_from_obj(json.loads(line), triplets),
            ModelError, "line")


_Row = TypeVar("_Row")


def scan_lines(fh: BinaryIO, scan: Callable[[list[bytes]], list[_Row] | None],
               parse: Callable[[str], _Row], error: type[ValueError],
               what: str) -> list[_Row]:
    """The rows of a binary JSON Lines file, read in chunks of whole lines.

    ``scan`` reads a chunk's lines into their rows, one per line, or
    returns None when it cannot vouch for every line (a line off its
    layout, or a record it would refuse); a line it vouches for holds no
    line break but its last. From the first chunk it returns None for,
    the rest of the file goes through :func:`parse_lines`, so that a
    malformed line raises ``error`` naming it as ``what`` and its number.
    """

    rows: list[_Row] = []
    lineno = 0
    while chunk := fh.readlines(_CHUNK_BYTES):
        scanned = scan(chunk)
        if scanned is None:
            rows += parse_lines(chain(chunk, fh), parse, error, what, lineno)
            break
        rows += scanned
        lineno += len(chunk)
    return rows


def parse_lines(raw_lines: Iterable[bytes], parse: Callable[[str], _Row],
                error: type[ValueError], what: str,
                lineno: int = 0) -> Iterator[_Row]:
    r"""Yield ``parse`` of each non-blank line of a JSON Lines input.

    Binary lines are split as text mode splits them, at "\n", "\r\n"
    and a lone "\r", numbered from ``lineno + 1``, decoded as UTF-8 and
    stripped. A ValueError or RecursionError from decoding or ``parse``
    (bad UTF-8 or JSON, nesting too deep, an integer past the digit
    limit, a refused record) raises ``error`` naming the line as
    ``what`` and its number.
    """

    for raw in raw_lines:
        for part in raw.splitlines():  # unlike str, not at \x0b, \x85 or \u2028
            lineno += 1
            try:
                line = part.decode("utf-8").strip()
                if not line:
                    continue
                row = parse(line)
            except (ValueError, RecursionError) as exc:
                raise error(f"{what} {lineno}: {exc}") from None
            yield row


def format_json(obj: object) -> str:
    """A JSON document as every artifact and command writes one: sorted
    keys, two-space indent and a trailing newline."""

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str | Path, what: str,
              error: type[ValueError]) -> object:
    """Parse the JSON document at ``path``.

    Any parse failure (bad syntax or UTF-8, nesting too deep, an integer
    past the digit limit) raises ``error`` naming the document as
    ``what``. A file that cannot be opened raises OSError.
    """

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{what} is not valid JSON: {exc}") from None
