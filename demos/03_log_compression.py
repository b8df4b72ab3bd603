#!/usr/bin/env python3
"""Shrink an endpoint log twice: drop noise, then pack what remains.

Stage one keeps only events on a causal path to an alert and collapses
straight-line runs into summary edges. Stage two tallies the surviving
records into patterns and assigns minimum-redundancy codewords, landing
the exact average codeword length inside [H, H+1) of the pattern
entropy.
"""

import math
import random

from trustgate import (
    AlertRule,
    AttributeKind,
    EdrEvent,
    Severity,
    Triplet,
    archive_batch,
    decode,
    encode,
    reduction_stats,
)

TRIPLET = Triplet("user-01", "dev-01", "res-files")
BURST = AlertRule("io-burst", AttributeKind.IO_OPERATION_COUNT,
                  ">=", 1000, Severity.HIGH)


def synthetic_log(rng: random.Random, size: int = 400) -> list[EdrEvent]:
    """Humdrum I/O readings in a causal tree, plus burst chains."""

    events = []
    for event_id in range(1, size + 1):
        # Background noise: small draws from a handful of levels, each
        # event caused by some earlier event.
        value = rng.choice((10, 10, 10, 20, 20, 40, 80))
        parent = (rng.randrange(1, event_id),) if event_id > 1 else ()
        events.append(EdrEvent(
            event_id=event_id, triplet=TRIPLET,
            attribute=AttributeKind.IO_OPERATION_COUNT, value=value,
            timestamp=event_id * 10, parent_ids=parent,
        ))
    # A dozen six-step escalations hanging off random background
    # events, each ending in bursts big enough to trip the rule.
    chain_values = (100, 150, 300, 500, 1200, 4000)
    next_id = size + 1
    for _ in range(12):
        parent = rng.randrange(1, size + 1)
        for offset, value in enumerate(chain_values):
            events.append(EdrEvent(
                event_id=next_id, triplet=TRIPLET,
                attribute=AttributeKind.IO_OPERATION_COUNT, value=value,
                timestamp=(size + next_id) * 10, parent_ids=(parent,),
            ))
            parent = next_id
            next_id += 1
    return events


def entropy_bits(table) -> float:
    return -sum(
        float(p.probability) * math.log2(float(p.probability))
        for p in table.patterns
    )


def main() -> None:
    log = synthetic_log(random.Random(11))
    # Both stages in one call: keep alerts and their ancestry, collapse
    # unary runs, then build the pattern code for what survives.
    batch = archive_batch(log, [BURST])
    graph, skeleton = batch.graph, batch.skeleton
    print(f"log of {len(log)} events, "
          f"{len(graph.alerts)} alert(s) from rule {BURST.rule_name!r}")

    stats = reduction_stats(graph, skeleton)
    collapsed = sum(s.collapsed_count for s in skeleton.summary_edges)
    print(f"\nstage 1 -- causal skeleton")
    print(f"  nodes   : {stats.nodes_before} -> {stats.nodes_after} "
          f"(ratio {stats.ratio:.3f})")
    print(f"  summary : {len(skeleton.summary_edges)} edge(s) standing in "
          f"for {collapsed} collapsed events")

    records, table, avg = batch.records, batch.table, batch.avg_code_length
    archive = encode(records, table)
    entropy = entropy_bits(table)
    print(f"\nstage 2 -- pattern coding of {len(records)} kept records")
    print(f"  distinct patterns : {len(table.patterns)}")
    for pattern in sorted(table.patterns, key=lambda p: -p.count)[:3]:
        print(f"    {pattern.key:<32} count {pattern.count:>3} "
              f"code {table.codebook[pattern.key]!r}")
    print(f"  avg codeword bits : {avg} = {float(avg):.4f}")
    print(f"  pattern entropy   : {entropy:.4f} "
          f"(within [H, H+1): {entropy <= float(avg) < entropy + 1})")
    print(f"  payload           : {len(archive.payload)} bytes for "
          f"{archive.record_count} records")

    roundtrip = decode(archive)
    print(f"  decode round trip : {roundtrip == records}")


if __name__ == "__main__":
    main()
