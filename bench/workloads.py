"""Seeded inputs and timed repetitions for the benchmark's workloads.

Every workload is single-process and single-threaded. ``setup`` turns a
seed into inputs; ``rep`` runs one repetition of the workload over
those inputs and returns its timings and its correctness findings.
Repetitions over the same inputs must produce identical outputs, which
``digest`` fingerprints.

trustgate is driven only through public functions, always looked up as
module attributes at call time (``engine.decide``, not a name imported
into this module), so the tracer's wrappers see every call.

Workloads:

* ``fleet-sim``: the reference scenario scaled to 200 devices, run by
  ``simnet.run`` into a directory and checked by ``simnet.replay``. It
  is the whole loop: telemetry, scoring, cache, decisions, quorum,
  reputation, skeleton reduction, coding, artifacts.
* ``gate-serve``: the access gate wired from outside the way
  ``simnet.run`` wires it, driven by one closed-loop client over a
  2000-device fleet with skewed popularity, so the cache working set
  far exceeds its capacity. Telemetry ingest, critical alerts and
  periodic reputation/cache sweeps run between requests. No provenance
  work happens here.
* ``archive-cold``: the telemetry lifecycle without decisions: JSONL
  log -> graph -> rules -> skeleton -> codebook -> archive bytes, on the
  skeleton and on the whole log, then bytes -> records.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from trustgate import (
    cache as tg_cache,
    engine,
    logcodec,
    model,
    provenance,
    reputation,
    secretshare,
    simnet,
    store,
)

ARTIFACTS = ("config.json", "events.jsonl", "audit.jsonl", "access.json",
             "report.json")


@dataclass
class Rep:
    """One repetition: timings, work done, and correctness findings."""

    wall_s: float                   # timed region of the repetition
    items: int                      # work items completed (decisions, events)
    attempted: int
    failed: int
    digest: str                     # fingerprint of the outputs
    errors: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    named: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_audit_line(line: str) -> tuple[list[str], bool]:
    """Audit invariants: grant <=> no reasons, low_trust <=> T < theta.
    Returns violations and whether the decision had no score."""

    obj = engine.parse_audit_line(line)
    errors = []
    granted = obj["verdict"] == "grant"
    if granted != (not obj["reasons"]):
        errors.append(f"grant/reasons mismatch: {line}")
    unavailable = engine.REASON_SCORE_UNAVAILABLE in obj["reasons"]
    if not unavailable:
        low = engine.REASON_LOW_TRUST in obj["reasons"]
        if low != (obj["T"] < obj["theta"]):
            errors.append(f"low_trust/threshold mismatch: {line}")
    return errors, unavailable


# --- fleet-sim ----------------------------------------------------------------

@dataclass(frozen=True)
class FleetSizes:
    devices: int = 200


def fleet_setup(seed: int, sizes: FleetSizes, work: Path) -> simnet.ScenarioConfig:
    """The reference scenario with ``devices`` devices, its two
    compromised devices renamed to the wider id format, and every
    device pre-trusted (the reference default)."""

    obj = simnet.config_to_obj(simnet.reference_scenario(seed))
    width = max(2, len(str(sizes.devices)))
    obj["devices"] = {"count": sizes.devices}
    del obj["pretrusted"]
    for plan in obj["compromises"]:
        number = int(plan["device_id"].split("-")[1])
        plan["device_id"] = f"dev-{number:0{width}d}"
    return simnet.config_from_obj(obj)


def fleet_rep(config: simnet.ScenarioConfig, work: Path) -> Rep:
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        t0 = time.perf_counter()
        report = simnet.run(config, tmp)
        t1 = time.perf_counter()
        errors = []
        try:
            simnet.replay(tmp)
            replay_failed = 0
        except simnet.ReplayError as exc:
            errors.append(f"replay failed: {exc}")
            replay_failed = 1
        t2 = time.perf_counter()
        digests = {
            name: _sha256((Path(tmp) / name).read_bytes()) for name in ARTIFACTS
        }
        audit = (Path(tmp) / "audit.jsonl").read_text(encoding="utf-8")
    unavailable = 0
    for line in audit.splitlines():
        line_errors, no_score = _check_audit_line(line)
        errors.extend(line_errors)
        unavailable += no_score
    return Rep(
        wall_s=t2 - t0,
        items=report.total_requests,
        attempted=report.total_requests + 1,
        failed=unavailable + replay_failed,
        digest=_sha256("".join(digests[n] for n in ARTIFACTS).encode()),
        errors=errors,
        named={"run_s": t1 - t0, "replay_ms": (t2 - t1) * 1e3},
        info={"wall_s": t2 - t0, "artifacts_sha256": digests,
              "events": report.total_events,
              "requests": report.total_requests},
    )


# --- gate-serve ---------------------------------------------------------------

@dataclass(frozen=True)
class GateSizes:
    devices: int = 2000
    requests: int = 9000
    events_per_request: int = 3
    compromised_share: float = 0.02
    requests_per_sim_second: int = 4
    sweep_interval: int = 300
    attribute_window: int = 900
    cache_capacity: int = 256
    popularity_exponent: float = 1.0


class _Approver:
    """Share holder that always answers (no outages in this workload)."""

    def __init__(self) -> None:
        self.shares: dict[str, secretshare.Share] = {}

    def respond(self, resource_id: str, now: int):
        return self.shares.get(resource_id)


@dataclass
class GateInputs:
    sizes: GateSizes
    device_ids: tuple[str, ...]
    policy: engine.TrustPolicy
    critical_rules: tuple[provenance.AlertRule, ...]
    quorum: engine.QuorumClient
    host_of: dict[str, str]
    compromised_at: dict[str, int]
    times: list[int]
    triplets: list[model.Triplet]
    events: list[tuple[model.EdrEvent, ...]]


_RESOURCES = (
    ("res-db", 0.75, "high"),
    ("res-files", 0.5, "standard"),
    ("res-mail", 0.5, "standard"),
    ("res-vault", 0.75, "high"),
)


def _draw_event(rng: random.Random, profile: simnet.BehaviorProfile):
    kinds = sorted(profile.attributes, key=lambda k: k.value)
    kind = rng.choices(kinds, weights=[profile.attributes[k].rate for k in kinds])[0]
    spec = profile.attributes[kind]
    value = rng.choices([v for v, _ in spec.values],
                        weights=[w for _, w in spec.values])[0]
    return kind, value


def gate_setup(seed: int, sizes: GateSizes, work: Path) -> GateInputs:
    rng = random.Random(seed)
    width = len(str(sizes.devices))
    device_ids = tuple(f"dev-{i:0{width}d}" for i in range(1, sizes.devices + 1))
    user_of = {d: "user-" + d[4:] for d in device_ids}
    specs = tuple(simnet.ResourceSpec(r, t, s) for r, t, s in _RESOURCES)
    policy = simnet.default_policy(resources=specs)
    resource_ids = [r for r, _, _ in _RESOURCES]

    params = secretshare.FieldParams()
    approvers = {f"approver-{i}": _Approver()
                 for i in range(1, policy.quorum.n + 1)}
    digests, scheme_ids = {}, {}
    for rid, _, sensitivity in _RESOURCES:
        if sensitivity != "high":
            continue
        token = rng.randrange(params.prime)
        shares = secretshare.split(token, policy.quorum, params, rng)
        for share, approver in zip(shares, approvers.values()):
            approver.shares[rid] = share
        digests[rid] = engine.token_digest(shares[0].scheme_id, token)
        scheme_ids[rid] = shares[0].scheme_id
    quorum = engine.QuorumClient(approvers=approvers, digests=digests,
                                 scheme_ids=scheme_ids)

    # Skewed popularity over a seeded ranking of the fleet.
    ranking = list(device_ids)
    rng.shuffle(ranking)
    cumulative, acc = [], 0.0
    for rank in range(len(ranking)):
        acc += 1.0 / (rank + 1) ** sizes.popularity_exponent
        cumulative.append(acc)

    duration = sizes.requests // sizes.requests_per_sim_second + 1
    compromised = rng.sample(device_ids,
                             round(sizes.compromised_share * sizes.devices))
    compromised_at = {d: rng.randrange(max(duration // 2, 1))
                      for d in sorted(compromised)}
    benign = simnet.benign_profile()
    malicious = simnet.malicious_profile()

    times, triplets, events = [], [], []
    last: dict[str, model.EdrEvent] = {}
    next_id = 0
    for i in range(sizes.requests):
        now = i // sizes.requests_per_sim_second
        batch = []
        for dev in rng.choices(ranking, cum_weights=cumulative,
                               k=sizes.events_per_request):
            start = compromised_at.get(dev)
            profile = malicious if start is not None and now >= start else benign
            kind, value = _draw_event(rng, profile)
            parent = last.get(dev)
            event = model.EdrEvent(
                event_id=next_id,
                triplet=model.Triplet(user_of[dev], dev, rng.choice(resource_ids)),
                attribute=kind,
                value=value,
                timestamp=now,
                parent_ids=(parent.event_id,)
                if parent is not None and parent.timestamp < now else (),
            )
            next_id += 1
            last[dev] = event
            batch.append(event)
        dev = rng.choices(ranking, cum_weights=cumulative)[0]
        times.append(now)
        triplets.append(model.Triplet(user_of[dev], dev, rng.choice(resource_ids)))
        events.append(tuple(batch))

    rules = sorted(simnet.default_rules(), key=lambda r: r.rule_name)
    return GateInputs(
        sizes=sizes,
        device_ids=device_ids,
        policy=policy,
        critical_rules=tuple(r for r in rules
                             if r.severity is model.Severity.CRITICAL),
        quorum=quorum,
        host_of={rid: device_ids[i % len(device_ids)]
                 for i, rid in enumerate(resource_ids)},
        compromised_at=compromised_at,
        times=times,
        triplets=triplets,
        events=events,
    )


def gate_rep(inp: GateInputs, work: Path) -> Rep:
    sizes = inp.sizes
    policy = inp.policy
    hot = store.HotStore(None)
    cache = tg_cache.TrustScoreCache(
        tg_cache.CacheConfig(capacity=sizes.cache_capacity),
        tg_cache.ScoreStore(),
    )
    ledger = reputation.InteractionLedger(peers=tuple(sorted(inp.device_ids)))
    relative: dict[str, float] = {}
    alerts: list[engine.ActiveAlert] = []

    def recompute(triplet: model.Triplet, now: int) -> engine.TrustRecord:
        window = hot.query_window(triplet, now, sizes.attribute_window)
        b = engine.behavioral_score(window, policy)
        g = relative.get(triplet.device_id, 1.0)
        return engine.make_record(triplet, b, g, policy.alpha, now)

    def score_source(triplet: model.Triplet, now: int) -> engine.TrustRecord:
        return cache.get_score(triplet, now, recompute)[0]

    def sweep(now: int) -> None:
        vector = reputation.global_trust(
            reputation.normalize(ledger), pretrusted=inp.device_ids)
        best = max(vector.scores.values())
        for peer, score in vector.scores.items():
            relative[peer] = score / best if best > 0 else 1.0
        cache.refresh_sweep(now, recompute)

    latencies: list[float] = []
    lines: list[str] = []
    next_sweep = 0
    next_alert = 0
    clock = time.perf_counter_ns
    t_start = clock()
    for now, triplet, batch in zip(inp.times, inp.triplets, inp.events):
        while now >= next_sweep:
            sweep(next_sweep)
            next_sweep += sizes.sweep_interval
        hot.append_events(batch)
        for event in batch:
            for rule in inp.critical_rules:
                if rule.matches(event):
                    alerts.append(engine.ActiveAlert(
                        alert=model.Alert(next_alert, event.event_id,
                                          rule.severity, rule.rule_name),
                        device_id=event.triplet.device_id,
                    ))
                    next_alert += 1
        t0 = clock()
        decision = engine.decide(triplet, policy, score_source, alerts,
                                 inp.quorum, now=now)
        line = engine.audit_line(now, triplet, decision)
        latencies.append((clock() - t0) / 1e6)
        lines.append(line)
        if decision.granted:
            host = inp.host_of[triplet.resource_id]
            if host != triplet.device_id:
                start = inp.compromised_at.get(triplet.device_id)
                if start is not None and now >= start:
                    ledger.record_unsat(host, triplet.device_id)
                else:
                    ledger.record_sat(host, triplet.device_id)
    wall = (clock() - t_start) / 1e9

    errors: list[str] = []
    unavailable = grants = 0
    for line in lines:
        line_errors, no_score = _check_audit_line(line)
        errors.extend(line_errors)
        unavailable += no_score
        grants += '"verdict": "grant"' in line
    return Rep(
        wall_s=wall,
        items=len(lines),
        attempted=len(lines),
        failed=unavailable,
        digest=_sha256("\n".join(lines).encode()),
        errors=errors,
        latencies_ms=latencies,
        info={"wall_s": wall, "decisions": len(lines), "grants": grants,
              "critical_alerts": len(alerts), "events": len(hot)},
    )


# --- archive-cold -------------------------------------------------------------

@dataclass(frozen=True)
class ArchiveSizes:
    devices: int = 160
    compromised: int = 1
    duration: int = 3600
    compromise_at: float = 0.3


@dataclass
class ArchiveInputs:
    path: Path
    events: int


def generate_log(seed: int, sizes: ArchiveSizes) -> list[model.EdrEvent]:
    """A log shaped like the simulator's: per-device telemetry at the
    reference profiles' rates, each event's parent the device's previous
    strictly earlier event, ids in time order. Compromised devices add
    malicious telemetry, which is what raises alerts."""

    rng = random.Random(seed)
    width = max(2, len(str(sizes.devices)))
    device_ids = [f"dev-{i:0{width}d}" for i in range(1, sizes.devices + 1)]
    resource_ids = [r for r, _, _ in _RESOURCES]
    start = int(sizes.duration * sizes.compromise_at)
    compromised = set(rng.sample(device_ids, sizes.compromised))
    drafts = []  # (ts, device index, seq, kind, value, resource)
    seq = 0
    for index, dev in enumerate(device_ids):
        plans = [(simnet.benign_profile(), 0)]
        if dev in compromised:
            plans.append((simnet.malicious_profile(), start))
        for profile, begin in plans:
            span = sizes.duration - begin
            for kind in sorted(profile.attributes, key=lambda k: k.value):
                spec = profile.attributes[kind]
                values = [v for v, _ in spec.values]
                weights = [w for _, w in spec.values]
                for _ in range(round(spec.rate * span)):
                    drafts.append((
                        begin + rng.randrange(span), index, seq, kind,
                        rng.choices(values, weights=weights)[0],
                        rng.choice(resource_ids),
                    ))
                    seq += 1
    drafts.sort()
    events = []
    last: dict[str, model.EdrEvent] = {}
    for event_id, (ts, index, _, kind, value, rid) in enumerate(drafts):
        dev = device_ids[index]
        parent = last.get(dev)
        event = model.EdrEvent(
            event_id=event_id,
            triplet=model.Triplet("user-" + dev[4:], dev, rid),
            attribute=kind,
            value=value,
            timestamp=ts,
            parent_ids=(parent.event_id,)
            if parent is not None and parent.timestamp < ts else (),
        )
        last[dev] = event
        events.append(event)
    return events


def archive_setup(seed: int, sizes: ArchiveSizes, work: Path) -> ArchiveInputs:
    events = generate_log(seed, sizes)
    path = work / f"archive-cold-{seed}.jsonl"
    model.write_events(path, events)
    return ArchiveInputs(path=path, events=len(events))


def _archive_bytes(records: list[logcodec.AttributeRecord]) -> bytes:
    table = logcodec.build_codebook(logcodec.collect_patterns(records))
    return logcodec.archive_to_bytes(logcodec.encode(records, table))


def archive_rep(inp: ArchiveInputs, work: Path) -> Rep:
    rules = simnet.default_rules()
    t0 = time.perf_counter()
    events = model.read_events(inp.path)
    graph = provenance.apply_rules(provenance.build_graph(events), rules)
    skeleton = provenance.reduce_to_skeleton(graph)
    skeleton_records = logcodec.records_from_events(
        skeleton.nodes[eid] for eid in sorted(skeleton.nodes))
    skeleton_blob = _archive_bytes(skeleton_records)
    full_records = logcodec.records_from_events(events)
    full_blob = _archive_bytes(full_records)
    t1 = time.perf_counter()
    restored = [
        logcodec.decode(logcodec.archive_from_bytes(blob))
        for blob in (skeleton_blob, full_blob)
    ]
    t2 = time.perf_counter()

    errors = []
    failed = 0
    for label, got, want in (("skeleton", restored[0], skeleton_records),
                             ("full log", restored[1], full_records)):
        if got != want:
            errors.append(f"{label} archive does not round-trip")
            failed += 1
    lost = graph.alert_event_ids() - set(skeleton.nodes)
    if lost:
        errors.append(f"{len(lost)} alert events missing from the skeleton")
    if len(events) != inp.events:
        errors.append(f"read {len(events)} events, wrote {inp.events}")
    return Rep(
        wall_s=t2 - t0,
        items=len(events),
        attempted=2,
        failed=failed,
        digest=_sha256(skeleton_blob + full_blob),
        errors=errors,
        named={
            "archive_s": t1 - t0,
            "restore_s": t2 - t1,
            "archive_bytes_per_event": len(full_blob) / len(events),
        },
        info={"wall_s": t2 - t0, "events": len(events),
              "alerts": len(graph.alerts),
              "skeleton_nodes": len(skeleton.nodes),
              "skeleton_bytes": len(skeleton_blob),
              "full_bytes": len(full_blob)},
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable   # (seed, sizes, work dir) -> inputs
    rep: Callable     # (inputs, work dir) -> Rep
    sizes: object     # the benchmark's sizes
    toy: object       # toy sizes for the smoke tests


WORKLOADS = {
    "fleet-sim": Workload(fleet_setup, fleet_rep, FleetSizes(),
                          FleetSizes(devices=20)),
    "gate-serve": Workload(gate_setup, gate_rep, GateSizes(),
                           GateSizes(devices=50, requests=600,
                                     requests_per_sim_second=1)),
    "archive-cold": Workload(archive_setup, archive_rep, ArchiveSizes(),
                             ArchiveSizes(devices=10, duration=600)),
}
