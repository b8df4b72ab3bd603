"""Event storage, the archival pipeline, and the access-control table.

Fresh telemetry lives in a hot JSON Lines pool indexed by triplet.
Archival runs a batch of events through both reduction stages: alert
rules and skeleton reduction keep only alert ancestry, then the
surviving attribute records are tallied into patterns and given an
optimal prefix code. The access table holds the principals, the
resource registry, and the attribute schema with its version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .engine import SENSITIVITY_HIGH, SENSITIVITY_LEVELS
from .model import (
    AttributeKind,
    EdrEvent,
    Triplet,
    dumps_event,
    iter_events,
)
from .logcodec import (
    AttributeRecord,
    PatternTable,
    average_length,
    build_codebook,
    collect_patterns,
    records_from_events,
)
from .provenance import (
    AlertRule,
    ProvenanceGraph,
    Skeleton,
    apply_rules,
    build_graph,
    reduce_to_skeleton,
)


class StoreError(ValueError):
    """Raised for storage consistency violations."""


class HotStore:
    """Append-only pool of recent events, indexed by triplet.

    Pass a file path for a persistent pool, or ``None`` to keep the
    pool in memory only.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._events: list[EdrEvent] = []
        self._ids: set[int] = set()
        self._by_triplet: dict[Triplet, list[EdrEvent]] = {}
        if self.path is not None and self.path.exists():
            for event in iter_events(self.path):
                self._admit(event)

    def _admit(self, event: EdrEvent) -> None:
        if event.event_id in self._ids:
            raise StoreError(f"duplicate event id {event.event_id}")
        self._events.append(event)
        self._ids.add(event.event_id)
        self._by_triplet.setdefault(event.triplet, []).append(event)

    def append_events(self, events: Iterable[EdrEvent]) -> int:
        """Append pre-validated events; returns how many were added."""

        added = list(events)
        for event in added:
            self._admit(event)
        if self.path is not None and added:
            with open(self.path, "a", encoding="utf-8") as fh:
                for event in added:
                    fh.write(dumps_event(event))
                    fh.write("\n")
        return len(added)

    def query_window(
        self, triplet: Triplet, now: int, horizon: int
    ) -> dict[AttributeKind, int | str]:
        """Latest value per attribute kind within the last ``horizon``
        seconds, i.e. timestamps in (now - horizon, now]. A later
        timestamp wins; equal timestamps fall to the higher event id."""

        if horizon < 0:
            raise StoreError("horizon must be non-negative")
        best: dict[AttributeKind, EdrEvent] = {}
        for event in self._by_triplet.get(triplet, ()):
            if not now - horizon < event.timestamp <= now:
                continue
            cur = best.get(event.attribute)
            if cur is None or (event.timestamp, event.event_id) > (
                cur.timestamp, cur.event_id
            ):
                best[event.attribute] = event
        return {kind: e.value for kind, e in best.items()}

    @property
    def events(self) -> tuple[EdrEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)


@dataclass(frozen=True)
class ArchiveBatch:
    """Both reduction stages of one batch, ready to encode.

    ``table`` and ``avg_code_length`` are ``None`` when no event fired
    an alert, because then the skeleton and the records are empty.
    """

    graph: ProvenanceGraph
    skeleton: Skeleton
    records: list[AttributeRecord]
    table: PatternTable | None
    avg_code_length: Fraction | None


def archive_batch(
    events: Sequence[EdrEvent], rules: Sequence[AlertRule]
) -> ArchiveBatch:
    """Reduce a batch to its alert skeleton, then build the pattern code
    for the skeleton's records, taken in event-id order."""

    graph = apply_rules(build_graph(events), rules)
    skeleton = reduce_to_skeleton(graph)
    records = records_from_events(
        skeleton.nodes[eid] for eid in sorted(skeleton.nodes)
    )
    if not records:
        return ArchiveBatch(graph, skeleton, records, None, None)
    table = build_codebook(collect_patterns(records))
    return ArchiveBatch(graph, skeleton, records, table, average_length(table))


@dataclass(frozen=True)
class ResourceEntry:
    threshold: float
    sensitivity: str
    token_digest: str | None = None
    share_holders: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise StoreError("resource threshold must lie in [0, 1]")
        if self.sensitivity not in SENSITIVITY_LEVELS:
            raise StoreError(f"unknown sensitivity {self.sensitivity!r}")


class AccessTable:
    """Principals, resource registry, active attribute schema, version.

    Every high-sensitivity resource must name exactly ``quorum_n``
    share holders.
    """

    def __init__(
        self,
        users: Iterable[str] = (),
        devices: Iterable[str] = (),
        resources: Mapping[str, ResourceEntry] | None = None,
        attributes: Iterable[str] | None = None,
        quorum_n: int | None = None,
        version: int = 1,
    ):
        self.users = tuple(sorted(set(users)))
        self.devices = tuple(sorted(set(devices)))
        self.resources = dict(resources or {})
        self.attributes = sorted(
            set(attributes) if attributes is not None
            else (k.value for k in AttributeKind)
        )
        self.quorum_n = quorum_n
        self.version = version
        self._validate()

    def _validate(self) -> None:
        for rid, entry in self.resources.items():
            if entry.sensitivity == SENSITIVITY_HIGH and self.quorum_n is not None:
                if len(entry.share_holders) != self.quorum_n:
                    raise StoreError(
                        f"high-sensitivity resource {rid} must have exactly "
                        f"{self.quorum_n} share holders, has "
                        f"{len(entry.share_holders)}"
                    )

    def to_obj(self) -> dict:
        return {
            "version": self.version,
            "users": list(self.users),
            "devices": list(self.devices),
            "attributes": list(self.attributes),
            "quorum_n": self.quorum_n,
            "resources": {
                rid: {
                    "threshold": entry.threshold,
                    "sensitivity": entry.sensitivity,
                    "token_digest": entry.token_digest,
                    "share_holders": list(entry.share_holders),
                }
                for rid, entry in sorted(self.resources.items())
            },
        }

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_obj(), fh, indent=2, sort_keys=True)
            fh.write("\n")
