"""Event storage and the archival pipeline.

Fresh telemetry lives in a hot JSON Lines pool indexed by triplet.
Archival runs a batch of events through both reduction stages: alert
rules and skeleton reduction keep only alert ancestry, then the
surviving attribute records are tallied into patterns and given an
optimal prefix code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

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


DEFAULT_ATTRIBUTE_WINDOW = 900  # seconds of telemetry a trust score reads


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

        start = len(self._events)
        for event in events:
            self._admit(event)
        added = len(self._events) - start
        if added and self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                for event in self._events[start:]:
                    fh.write(dumps_event(event))
                    fh.write("\n")
        return added

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

    def summary(self) -> dict[str, object]:
        """Node counts before and after reduction, their ratio (0.0 for
        an empty graph) and the number of alerts."""

        before, after = len(self.graph.nodes), len(self.skeleton.nodes)
        return {
            "nodes_before": before,
            "nodes_after": after,
            "ratio": after / before if before else 0.0,
            "alerts": len(self.graph.alerts),
        }


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
