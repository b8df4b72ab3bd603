"""Event storage and the archival pipeline.

Fresh telemetry lives in a hot in-memory pool of columns, one set per
triplet. Archival runs a batch of events through both reduction stages:
alert rules and skeleton reduction keep only alert ancestry, then the
surviving attribute records are tallied into patterns and given an
optimal prefix code.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
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

# A triplet's timestamps, event ids and (kind, value) pairs, sorted by
# (timestamp, event id).
_Columns = tuple[array, array, list[AttributeRecord]]


class StoreError(ValueError):
    """Raised for storage consistency violations."""


class HotStore:
    """Append-only in-memory pool of recent events, kept as columns.

    Each triplet keeps three columns sorted by (timestamp, event id):
    its events' timestamps and ids, as ``array``s, and their (kind,
    value) pairs, as references to one tuple per distinct pair. No
    object is kept per event. A window query bisects the timestamps to
    its time range and builds its dict from that slice of the pairs. An
    event past its triplet's last, as the simulator and a time ordered
    log append them, costs one comparison; any other is inserted in
    place.

    The store trusts its caller: it keeps no id set and no parentage,
    which no window reads, so the events appended must form a log that
    :func:`trustgate.provenance.build_graph` would accept. ``None``
    starts an empty store.
    """

    def __init__(self, events: Iterable[EdrEvent] | None = None):
        self._by_triplet: dict[Triplet, _Columns] = {}
        self._pairs: dict[AttributeRecord, AttributeRecord] = {}
        if events is not None:
            self.append_events(events)

    def append_events(self, events: Iterable[EdrEvent]) -> int:
        """Append events; returns how many were added."""

        pairs, append = self._pairs, self.append
        count = 0
        for event in events:
            pair = (event.attribute, event.value)
            append(event.event_id, event.triplet, pairs.setdefault(pair, pair),
                   event.timestamp)
            count += 1
        return count

    def append(self, event_id: int, triplet: Triplet, pair: AttributeRecord,
               timestamp: int) -> None:
        """Append one event by its fields. ``pair`` is kept as given, so
        a caller shares one tuple per distinct pair."""

        columns = self._by_triplet.get(triplet)
        if columns is None:
            columns = self._by_triplet[triplet] = (array("Q"), array("Q"), [])
        times, ids, pairs = columns
        if times and (timestamp < times[-1] or (
                timestamp == times[-1] and event_id <= ids[-1])):
            # Before any equal key, so that the first appended of equal
            # keys stays the one a window reads last.
            lo = bisect_left(times, timestamp)
            at = bisect_left(ids, event_id, lo,
                             bisect_right(times, timestamp, lo))
            times.insert(at, timestamp)
            ids.insert(at, event_id)
            pairs.insert(at, pair)
            return
        times.append(timestamp)
        ids.append(event_id)
        pairs.append(pair)

    def query_window(
        self, triplet: Triplet, now: int, horizon: int
    ) -> dict[AttributeKind, int | str]:
        """Latest value per attribute kind within the last ``horizon``
        seconds, i.e. timestamps in (now - horizon, now]. A later
        timestamp wins; equal timestamps fall to the higher event id."""

        if horizon < 0:
            raise StoreError("horizon must be non-negative")
        columns = self._by_triplet.get(triplet)
        if columns is None:
            return {}
        times, _, pairs = columns
        end = len(times)
        if times[-1] > now:  # a query into the past
            end = bisect_right(times, now)
        # In (timestamp, id) order, so the last pair of a kind wins.
        return dict(pairs[bisect_right(times, now - horizon, 0, end):end])

    def __len__(self) -> int:
        return sum(len(times) for times, _, _ in self._by_triplet.values())


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

    def summary(self, nodes_before: int | None = None) -> dict[str, object]:
        """Node counts before and after reduction, their ratio (0.0 for
        an empty graph) and the number of alerts. ``nodes_before``
        stands for the graph's node count when the batch holds only the
        alert ancestry of a larger log."""

        before = len(self.graph.nodes) if nodes_before is None else nodes_before
        after = len(self.skeleton.nodes)
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
