"""Event storage and the archival pipeline.

Fresh telemetry lives in a hot in-memory pool indexed by triplet.
Archival runs a batch of events through both reduction stages: alert
rules and skeleton reduction keep only alert ancestry, then the
surviving attribute records are tallied into patterns and given an
optimal prefix code.
"""

from __future__ import annotations

from bisect import bisect_right, insort_left
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence

from .model import AttributeKind, EdrEvent, Triplet
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

_timestamp = attrgetter("timestamp")
_order = attrgetter("timestamp", "event_id")


class StoreError(ValueError):
    """Raised for storage consistency violations."""


class HotStore:
    """Append-only in-memory pool of recent events, indexed by triplet.

    Each triplet's events are kept sorted by (timestamp, event id), so a
    window query bisects to its time range and reads only the events in
    it. An event appended in that order, as the simulator and a time
    ordered log append them, costs one comparison; any other is inserted
    in place.

    The store trusts its caller: it keeps no id set and checks no
    parentage, so every event passed in, at construction or through
    :meth:`append_events`, must belong to a log that
    :func:`trustgate.provenance.build_graph` would accept. ``None``
    starts an empty store.
    """

    def __init__(self, events: Iterable[EdrEvent] | None = None):
        self._events: list[EdrEvent] = []
        self._by_triplet: dict[Triplet, list[EdrEvent]] = {}
        if events is not None:
            self.append_events(events)

    def append_events(self, events: Iterable[EdrEvent]) -> int:
        """Append events; returns how many were added."""

        start = len(self._events)
        by_triplet = self._by_triplet
        for event in events:
            self._events.append(event)
            same = by_triplet.get(event.triplet)
            if same is None:
                by_triplet[event.triplet] = [event]
                continue
            last = same[-1]
            if event.timestamp > last.timestamp or (
                    event.timestamp == last.timestamp
                    and event.event_id > last.event_id):
                same.append(event)
            else:
                # Before any equal key, so that the first appended of
                # equal keys stays the one a window reads last.
                insort_left(same, event, key=_order)
        return len(self._events) - start

    def query_window(
        self, triplet: Triplet, now: int, horizon: int
    ) -> dict[AttributeKind, int | str]:
        """Latest value per attribute kind within the last ``horizon``
        seconds, i.e. timestamps in (now - horizon, now]. A later
        timestamp wins; equal timestamps fall to the higher event id."""

        if horizon < 0:
            raise StoreError("horizon must be non-negative")
        events = self._by_triplet.get(triplet)
        if events is None:
            return {}
        end = len(events)
        if events[-1].timestamp > now:  # a query into the past
            end = bisect_right(events, now, key=_timestamp)
        start = bisect_right(events, now - horizon, 0, end, key=_timestamp)
        # In (timestamp, id) order, so the last event of a kind wins.
        return {e.attribute: e.value for e in events[start:end]}

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
