"""Shared fixtures and event-building helpers."""

from __future__ import annotations

import pytest

from trustgate.model import AttributeKind, EdrEvent, Triplet
from trustgate.reputation import LEDGER_SEPARATOR, InteractionLedger

DEFAULT_TRIPLET = Triplet(user_id="user-a", device_id="dev-a",
                          resource_id="res-a")


def make_event(
    event_id: int,
    ts: int,
    attribute: AttributeKind = AttributeKind.IO_OPERATION_COUNT,
    value: int | str = 1,
    parents: tuple[int, ...] = (),
    triplet: Triplet = DEFAULT_TRIPLET,
) -> EdrEvent:
    return EdrEvent(
        event_id=event_id,
        triplet=triplet,
        attribute=attribute,
        value=value,
        timestamp=ts,
        parent_ids=parents,
    )


def chain(length: int, start_ts: int = 0) -> list[EdrEvent]:
    """A pure parent chain: 0 <- 1 <- ... <- length-1."""

    events = []
    for i in range(length):
        events.append(
            make_event(i, start_ts + i, parents=(i - 1,) if i else ())
        )
    return events


def ledger_to_obj(ledger: InteractionLedger) -> dict:
    """The ledger file that `trustgate reputation --ledger` reads: the
    full peer list plus {"p→q": {"sat": n, "unsat": m}} entries for the
    touched pairs. Silent peers stay in "peers", since they are the
    zero-row case the trust iteration must still account for."""

    pairs = sorted(set(ledger.sat) | set(ledger.unsat))
    return {
        "peers": sorted(ledger.peers),
        "interactions": {
            f"{p}{LEDGER_SEPARATOR}{q}": {
                "sat": ledger.sat.get((p, q), 0),
                "unsat": ledger.unsat.get((p, q), 0),
            }
            for p, q in pairs
        },
    }


@pytest.fixture
def tmp_events_path(tmp_path):
    return tmp_path / "events.jsonl"
