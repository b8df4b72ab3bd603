"""Deterministic enterprise-network simulation.

Devices emit telemetry and request resources; the decision engine
gates every request through the cache, the alert set, peer reputation,
and (for high-sensitivity resources) an approver quorum. The simulator
knows which devices are compromised, uses that knowledge only to score
the outcome, and never shows it to the engine. Identical seeds yield
byte-identical artifacts.

Conventions baked into this module rather than the engine:

* Only critical alerts stay in force for decisions, and they stay in
  force until the end of the run.
* Every request a device issues at or after its compromise time counts
  as malicious ground truth.
* The rating peer for a granted request is the device hosting the
  resource, assigned round-robin over the sorted resource registry.
* Reputation scores are rescaled relative to the best-scoring peer
  before blending, so "as trusted as the best peer" reads as 1.0.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .model import (
    Alert,
    AttributeKind,
    EdrEvent,
    Severity,
    Triplet,
    write_events,
)
from .provenance import (  # noqa: F401 -- keeps simnet.reduce_to_skeleton importable
    AlertRule,
    reduce_to_skeleton,
    reduction_stats,
    rule_from_obj,
)
from .reputation import (
    InteractionLedger,
    global_trust,
    normalize,
)
from .secretshare import FieldParams, Share, ThresholdPolicy, split
from .engine import (
    SENSITIVITY_HIGH,
    SENSITIVITY_LEVELS,
    SENSITIVITY_STANDARD,
    ActiveAlert,
    QuorumClient,
    TrustPolicy,
    TrustRecord,
    audit_line,
    behavioral_score,
    decide,
    make_record,
    parse_audit_line,
    policy_from_obj,
    policy_to_obj,
    token_digest,
)
from .cache import CacheConfig, ScoreStore, TrustScoreCache
from .store import AccessTable, HotStore, ResourceEntry, archive_batch

FLAG_NO_DEVICES = "no_devices"
FLAG_NO_MALICIOUS_TRAFFIC = "no_malicious_traffic"

_PRIORITY_SWEEP = 0
_PRIORITY_EMIT = 1
_PRIORITY_REQUEST = 2


class ScenarioError(ValueError):
    """Raised for invalid scenario configurations."""


class ReplayError(ValueError):
    """Raised when an audit log cannot reproduce its report."""


@dataclass(frozen=True)
class AttributeProfile:
    """Homogeneous emission rate plus a weighted value table."""

    rate: float
    values: tuple[tuple[int | str, int], ...]

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ScenarioError("attribute rate must be non-negative")
        if not self.values:
            raise ScenarioError("attribute profile needs at least one value")
        for _, weight in self.values:
            if isinstance(weight, bool) or not isinstance(weight, int) or weight <= 0:
                raise ScenarioError("value weights must be positive integers")


@dataclass(frozen=True)
class BehaviorProfile:
    attributes: Mapping[AttributeKind, AttributeProfile]
    request_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.request_rate < 0:
            raise ScenarioError("request rate must be non-negative")
        for kind, profile in self.attributes.items():
            for value, _ in profile.values:
                if kind.numeric:
                    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                        raise ScenarioError(
                            f"profile value for {kind.value} must be a "
                            f"non-negative integer"
                        )
                elif not isinstance(value, str) or not value:
                    raise ScenarioError(
                        f"profile value for {kind.value} must be a non-empty string"
                    )


@dataclass(frozen=True)
class DeviceSpec:
    device_id: str
    user_id: str

    def __post_init__(self) -> None:
        if not self.device_id or not self.user_id:
            raise ScenarioError("device and user ids must be non-empty")


@dataclass(frozen=True)
class ResourceSpec:
    resource_id: str
    threshold: float
    sensitivity: str = SENSITIVITY_STANDARD

    def __post_init__(self) -> None:
        if not self.resource_id:
            raise ScenarioError("resource_id must be non-empty")
        if not 0.0 <= self.threshold <= 1.0:
            raise ScenarioError("resource threshold must lie in [0, 1]")
        if self.sensitivity not in SENSITIVITY_LEVELS:
            raise ScenarioError(f"unknown sensitivity {self.sensitivity!r}")


@dataclass(frozen=True)
class CompromisePlan:
    device_id: str
    start_time: int
    profile: BehaviorProfile


@dataclass(frozen=True)
class FailureWindow:
    node: str
    start: int
    end: int

    def covers(self, t: int) -> bool:
        return self.start <= t <= self.end


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: int
    devices: tuple[DeviceSpec, ...]
    resources: tuple[ResourceSpec, ...]
    benign: BehaviorProfile
    policy: TrustPolicy
    alert_rules: tuple[AlertRule, ...]
    compromises: tuple[CompromisePlan, ...] = ()
    failures: tuple[FailureWindow, ...] = ()
    approver_n: int = 5
    approver_z: int = 3
    pretrusted: tuple[str, ...] = ()
    attribute_window: int = 900
    refresh_interval: int = 300
    cache_capacity: int = 256
    damping: float = 0.1
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ScenarioError("duration must be non-negative")
        device_ids = [d.device_id for d in self.devices]
        if len(set(device_ids)) != len(device_ids):
            raise ScenarioError("duplicate device ids")
        resource_ids = [r.resource_id for r in self.resources]
        if len(set(resource_ids)) != len(resource_ids):
            raise ScenarioError("duplicate resource ids")
        known = set(device_ids)
        for plan in self.compromises:
            if plan.device_id not in known:
                raise ScenarioError(f"unknown compromised device {plan.device_id}")
            if not 0 <= plan.start_time < max(self.duration, 1):
                raise ScenarioError("compromise start must fall inside the run")
        quorum = ThresholdPolicy(n=self.approver_n, z=self.approver_z)
        if (self.policy.quorum.n, self.policy.quorum.z) != (quorum.n, quorum.z):
            raise ScenarioError(
                "policy quorum must match the scenario approver shape"
            )
        approver_ids = set(self.approver_ids())
        for window in self.failures:
            if window.node not in known and window.node not in approver_ids:
                raise ScenarioError(f"unknown failure node {window.node}")
            if not 0 <= window.start <= window.end <= self.duration:
                raise ScenarioError("failure window must fall inside the run")
        unknown = set(self.pretrusted) - known
        if unknown:
            raise ScenarioError(f"unknown pre-trusted devices: {sorted(unknown)}")
        if len(set(self.pretrusted)) != len(self.pretrusted):
            raise ScenarioError("duplicate pre-trusted devices")
        if len(self.devices) >= 2 and not self.pretrusted:
            raise ScenarioError("pre-trusted set must be non-empty")
        if self.attribute_window < 0:
            raise ScenarioError("attribute_window must be non-negative")
        if self.refresh_interval < 1:
            raise ScenarioError("refresh_interval must be positive")
        if self.cache_capacity < 1:
            raise ScenarioError("cache_capacity must be positive")
        if not 0.0 <= self.damping < 1.0:
            raise ScenarioError("damping must lie in [0, 1)")

    def approver_ids(self) -> tuple[str, ...]:
        return tuple(f"approver-{i}" for i in range(1, self.approver_n + 1))

    def compromise_time(self, device_id: str) -> int | None:
        times = [
            p.start_time for p in self.compromises if p.device_id == device_id
        ]
        return min(times) if times else None

    def first_compromise_time(self) -> int | None:
        times = [p.start_time for p in self.compromises]
        return min(times) if times else None


# --- scenario JSON ----------------------------------------------------------

def _profile_to_obj(profile: BehaviorProfile) -> dict:
    return {
        "request_rate": profile.request_rate,
        "attributes": {
            kind.value: {
                "rate": spec.rate,
                "values": [[v, w] for v, w in spec.values],
            }
            for kind, spec in sorted(
                profile.attributes.items(), key=lambda kv: kv[0].value
            )
        },
    }


def _profile_from_obj(obj: object) -> BehaviorProfile:
    if not isinstance(obj, dict):
        raise ScenarioError("behavior profile must be a JSON object")
    unknown = set(obj) - {"request_rate", "attributes"}
    if unknown:
        raise ScenarioError(f"unknown profile fields: {sorted(unknown)}")
    attributes = {}
    for name, spec in obj.get("attributes", {}).items():
        try:
            kind = AttributeKind(name)
        except ValueError:
            raise ScenarioError(f"unknown attribute kind: {name!r}") from None
        if not isinstance(spec, dict) or set(spec) - {"rate", "values"}:
            raise ScenarioError(f"malformed attribute profile for {name}")
        attributes[kind] = AttributeProfile(
            rate=float(spec.get("rate", 0.0)),
            values=tuple((v, w) for v, w in spec.get("values", ())),
        )
    return BehaviorProfile(
        attributes=attributes,
        request_rate=float(obj.get("request_rate", 0.0)),
    )


def config_to_obj(config: ScenarioConfig) -> dict:
    return {
        "seed": config.seed,
        "duration": config.duration,
        "devices": [
            {"device_id": d.device_id, "user_id": d.user_id}
            for d in config.devices
        ],
        "resources": [
            {
                "resource_id": r.resource_id,
                "threshold": r.threshold,
                "sensitivity": r.sensitivity,
            }
            for r in config.resources
        ],
        "benign_profile": _profile_to_obj(config.benign),
        "compromises": [
            {
                "device_id": p.device_id,
                "start_time": p.start_time,
                "profile": _profile_to_obj(p.profile),
            }
            for p in config.compromises
        ],
        "failures": [
            {"node": w.node, "down": [w.start, w.end]}
            for w in config.failures
        ],
        "approvers": {"n": config.approver_n, "z": config.approver_z},
        "pretrusted": list(config.pretrusted),
        "policy": policy_to_obj(config.policy),
        "alert_rules": [
            {
                "rule_name": r.rule_name,
                "attribute": r.attribute.value,
                "op": r.op,
                "threshold": r.threshold,
                "severity": r.severity.value,
            }
            for r in config.alert_rules
        ],
        "attribute_window": config.attribute_window,
        "refresh_interval": config.refresh_interval,
        "cache_capacity": config.cache_capacity,
        "damping": config.damping,
        "epsilon": config.epsilon,
    }


def config_from_obj(obj: object) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    allowed = {
        "seed", "duration", "devices", "resources", "benign_profile",
        "compromises", "failures", "approvers", "pretrusted", "policy",
        "alert_rules", "attribute_window", "refresh_interval",
        "cache_capacity", "damping", "epsilon",
    }
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    devices_spec = obj.get("devices", [])
    if isinstance(devices_spec, dict):
        count = devices_spec.get("count", 0)
        width = max(2, len(str(count)))
        devices = tuple(
            DeviceSpec(
                device_id=f"dev-{i:0{width}d}", user_id=f"user-{i:0{width}d}"
            )
            for i in range(1, count + 1)
        )
    else:
        devices = tuple(
            DeviceSpec(device_id=d["device_id"], user_id=d["user_id"])
            for d in devices_spec
        )
    resources = tuple(
        ResourceSpec(
            resource_id=r["resource_id"],
            threshold=float(r["threshold"]),
            sensitivity=r.get("sensitivity", SENSITIVITY_STANDARD),
        )
        for r in obj.get("resources", [])
    )
    approvers = obj.get("approvers", {"n": 5, "z": 3})
    policy_obj = obj.get("policy")
    policy = (
        policy_from_obj(policy_obj) if policy_obj is not None
        else default_policy(
            quorum_n=approvers["n"], quorum_z=approvers["z"],
            resources=resources,
        )
    )
    rules_obj = obj.get("alert_rules")
    rules = (
        tuple(rule_from_obj(r) for r in rules_obj)
        if rules_obj is not None else default_rules()
    )
    pretrusted = obj.get("pretrusted")
    if pretrusted is None:
        pretrusted = [d.device_id for d in devices]
    return ScenarioConfig(
        seed=obj.get("seed", 0),
        duration=obj.get("duration", 0),
        devices=devices,
        resources=resources,
        benign=_profile_from_obj(obj.get("benign_profile", {})),
        compromises=tuple(
            CompromisePlan(
                device_id=p["device_id"],
                start_time=p["start_time"],
                profile=_profile_from_obj(p["profile"]),
            )
            for p in obj.get("compromises", [])
        ),
        failures=tuple(
            FailureWindow(node=w["node"], start=w["down"][0], end=w["down"][1])
            for w in obj.get("failures", [])
        ),
        approver_n=approvers["n"],
        approver_z=approvers["z"],
        pretrusted=tuple(pretrusted),
        policy=policy,
        alert_rules=rules,
        attribute_window=obj.get("attribute_window", 900),
        refresh_interval=obj.get("refresh_interval", 300),
        cache_capacity=obj.get("cache_capacity", 256),
        damping=obj.get("damping", 0.1),
        epsilon=obj.get("epsilon", 1e-9),
    )


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_obj(json.load(fh))


def config_digest(config: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_obj(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- reference material -----------------------------------------------------

def default_policy(
    quorum_n: int = 5,
    quorum_z: int = 3,
    resources: Sequence[ResourceSpec] = (),
) -> TrustPolicy:
    """A balanced default: escalation and file-access anomalies carry
    most of the weight; volume counters carry the rest."""

    obj = {
        "weights": {
            "privilege_escalation_attempts": "0.3",
            "malicious_file_access_count": "0.3",
            "io_operation_count": "0.2",
            "system_call_count": "0.2",
        },
        "normalizers": {
            "privilege_escalation_attempts": {
                "breakpoints": [[0, 1], [2, "0.7"], [5, "0.2"], [10, 0]],
                "default": 1,
            },
            "malicious_file_access_count": {
                "breakpoints": [[0, 1], [1, "0.4"], [3, 0]],
                "default": 1,
            },
            "io_operation_count": {
                "breakpoints": [[0, "0.95"], [100, "0.9"], [500, "0.5"],
                                [2000, "0.3"]],
                "default": "0.9",
            },
            "system_call_count": {
                "breakpoints": [[0, "0.95"], [200, "0.85"], [1000, "0.6"]],
                "default": "0.9",
            },
        },
        "alpha": 0.5,
        "thresholds": {
            r.resource_id: r.threshold for r in resources
        },
        "sensitivity": {
            r.resource_id: r.sensitivity for r in resources
            if r.sensitivity != SENSITIVITY_STANDARD
        },
        "quorum": {"n": quorum_n, "z": quorum_z},
    }
    return policy_from_obj(obj)


def default_rules() -> tuple[AlertRule, ...]:
    return (
        AlertRule(
            rule_name="privilege-escalation-burst",
            attribute=AttributeKind.PRIVILEGE_ESCALATION_ATTEMPTS,
            op=">=", threshold=3, severity=Severity.HIGH,
        ),
        AlertRule(
            rule_name="privilege-escalation-critical",
            attribute=AttributeKind.PRIVILEGE_ESCALATION_ATTEMPTS,
            op=">=", threshold=6, severity=Severity.CRITICAL,
        ),
        AlertRule(
            rule_name="malicious-file-access",
            attribute=AttributeKind.MALICIOUS_FILE_ACCESS_COUNT,
            op=">=", threshold=1, severity=Severity.HIGH,
        ),
        AlertRule(
            rule_name="malicious-file-burst",
            attribute=AttributeKind.MALICIOUS_FILE_ACCESS_COUNT,
            op=">=", threshold=2, severity=Severity.CRITICAL,
        ),
    )


def benign_profile() -> BehaviorProfile:
    return BehaviorProfile(
        request_rate=0.008,
        attributes={
            AttributeKind.IO_OPERATION_COUNT: AttributeProfile(
                rate=0.01, values=((3, 5), (12, 3), (40, 2)),
            ),
            AttributeKind.SYSTEM_CALL_COUNT: AttributeProfile(
                rate=0.01, values=((10, 6), (60, 3), (150, 1)),
            ),
            AttributeKind.PRIVILEGE_ESCALATION_ATTEMPTS: AttributeProfile(
                rate=0.002, values=((0, 19), (1, 1)),
            ),
            AttributeKind.MALICIOUS_FILE_ACCESS_COUNT: AttributeProfile(
                rate=0.001, values=((0, 1),),
            ),
            AttributeKind.EXTERNAL_NET_ACCESS_SECONDS: AttributeProfile(
                rate=0.005, values=((30, 5), (300, 4), (1200, 1)),
            ),
        },
    )


def malicious_profile() -> BehaviorProfile:
    return BehaviorProfile(
        request_rate=0.01,
        attributes={
            AttributeKind.PRIVILEGE_ESCALATION_ATTEMPTS: AttributeProfile(
                rate=0.02, values=((3, 3), (5, 4), (8, 3)),
            ),
            AttributeKind.MALICIOUS_FILE_ACCESS_COUNT: AttributeProfile(
                rate=0.015, values=((1, 2), (2, 4), (4, 4)),
            ),
            AttributeKind.IO_OPERATION_COUNT: AttributeProfile(
                rate=0.02, values=((300, 5), (800, 5)),
            ),
        },
    )


def reference_scenario(seed: int = 42) -> ScenarioConfig:
    """Twenty devices, two compromised at t = 0.3 * duration, a 5-of-3
    approver quorum guarding the high-sensitivity resources."""

    duration = 3600
    devices = tuple(
        DeviceSpec(device_id=f"dev-{i:02d}", user_id=f"user-{i:02d}")
        for i in range(1, 21)
    )
    resources = (
        ResourceSpec("res-files", 0.5, SENSITIVITY_STANDARD),
        ResourceSpec("res-mail", 0.5, SENSITIVITY_STANDARD),
        ResourceSpec("res-db", 0.75, SENSITIVITY_HIGH),
        ResourceSpec("res-vault", 0.75, SENSITIVITY_HIGH),
    )
    start = int(duration * 0.3)
    return ScenarioConfig(
        seed=seed,
        duration=duration,
        devices=devices,
        resources=resources,
        benign=benign_profile(),
        policy=default_policy(resources=resources),
        alert_rules=default_rules(),
        compromises=(
            CompromisePlan("dev-17", start, malicious_profile()),
            CompromisePlan("dev-18", start, malicious_profile()),
        ),
        pretrusted=tuple(d.device_id for d in devices),
        cache_capacity=48,
    )


# --- report -----------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    """Run outcome. ``from_audit`` fields are recomputable from the
    decision audit log plus the scenario; the rest are run-internal."""

    config_digest: str
    flags: tuple[str, ...]
    total_events: int
    total_requests: int
    grants: int
    denies: int
    per_device: Mapping[str, Mapping[str, Mapping[str, int]]]
    first_compromise_time: int | None
    malicious_total: int
    malicious_granted: int
    malicious_grant_fraction: float
    post_containment_malicious: int
    post_containment_granted: int
    time_to_containment: int | None
    containment_latency: int | None
    cache_metrics: Mapping[str, int]
    max_served_age: int
    reduction: Mapping[str, object]
    reputation_convergence: Mapping[str, object]

    AUDIT_DERIVED = (
        "config_digest", "flags", "total_requests", "grants", "denies",
        "per_device", "first_compromise_time", "malicious_total",
        "malicious_granted", "malicious_grant_fraction",
        "post_containment_malicious", "post_containment_granted",
        "time_to_containment", "containment_latency",
    )

    def to_obj(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "flags": list(self.flags),
            "total_events": self.total_events,
            "total_requests": self.total_requests,
            "grants": self.grants,
            "denies": self.denies,
            "per_device": {
                d: {
                    phase: dict(counts) for phase, counts in phases.items()
                }
                for d, phases in self.per_device.items()
            },
            "first_compromise_time": self.first_compromise_time,
            "malicious_total": self.malicious_total,
            "malicious_granted": self.malicious_granted,
            "malicious_grant_fraction": self.malicious_grant_fraction,
            "post_containment_malicious": self.post_containment_malicious,
            "post_containment_granted": self.post_containment_granted,
            "time_to_containment": self.time_to_containment,
            "containment_latency": self.containment_latency,
            "cache_metrics": dict(self.cache_metrics),
            "max_served_age": self.max_served_age,
            "reduction": dict(self.reduction),
            "reputation_convergence": dict(self.reputation_convergence),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "SimReport":
        return cls(
            config_digest=obj["config_digest"],
            flags=tuple(obj["flags"]),
            total_events=obj["total_events"],
            total_requests=obj["total_requests"],
            grants=obj["grants"],
            denies=obj["denies"],
            per_device=obj["per_device"],
            first_compromise_time=obj["first_compromise_time"],
            malicious_total=obj["malicious_total"],
            malicious_granted=obj["malicious_granted"],
            malicious_grant_fraction=obj["malicious_grant_fraction"],
            post_containment_malicious=obj["post_containment_malicious"],
            post_containment_granted=obj["post_containment_granted"],
            time_to_containment=obj["time_to_containment"],
            containment_latency=obj["containment_latency"],
            cache_metrics=obj["cache_metrics"],
            max_served_age=obj["max_served_age"],
            reduction=obj["reduction"],
            reputation_convergence=obj["reputation_convergence"],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class _AuditRow:
    ts: int
    device_id: str
    granted: bool


def _decision_summary(
    config: ScenarioConfig, rows: Sequence[_AuditRow]
) -> dict:
    """Everything in SimReport.AUDIT_DERIVED, computed from audit rows."""

    first_compromise = config.first_compromise_time()
    per_device: dict[str, dict[str, dict[str, int]]] = {
        d.device_id: {
            "before": {"grants": 0, "denies": 0},
            "after": {"grants": 0, "denies": 0},
        }
        for d in config.devices
    }
    grants = denies = 0
    malicious_total = malicious_granted = 0
    last_malicious_grant: int | None = None
    for row in rows:
        outcome = "grants" if row.granted else "denies"
        if row.granted:
            grants += 1
        else:
            denies += 1
        phase = (
            "after"
            if first_compromise is not None and row.ts >= first_compromise
            else "before"
        )
        per_device[row.device_id][phase][outcome] += 1
        start = config.compromise_time(row.device_id)
        malicious = start is not None and row.ts >= start
        if malicious:
            malicious_total += 1
            if row.granted:
                malicious_granted += 1
                last_malicious_grant = row.ts
    flags = []
    if not config.devices:
        flags.append(FLAG_NO_DEVICES)
    if malicious_total == 0:
        flags.append(FLAG_NO_MALICIOUS_TRAFFIC)
    if first_compromise is None:
        time_to_containment = None
    elif last_malicious_grant is None:
        time_to_containment = first_compromise
    else:
        time_to_containment = last_malicious_grant + 1
    post_total = post_granted = 0
    if time_to_containment is not None:
        for row in rows:
            start = config.compromise_time(row.device_id)
            if start is None or row.ts < start:
                continue
            if row.ts >= time_to_containment:
                post_total += 1
                if row.granted:
                    post_granted += 1
    return {
        "config_digest": config_digest(config),
        "flags": tuple(flags),
        "total_requests": len(rows),
        "grants": grants,
        "denies": denies,
        "per_device": per_device,
        "first_compromise_time": first_compromise,
        "malicious_total": malicious_total,
        "malicious_granted": malicious_granted,
        "malicious_grant_fraction": (
            malicious_granted / malicious_total if malicious_total else 0.0
        ),
        "post_containment_malicious": post_total,
        "post_containment_granted": post_granted,
        "time_to_containment": time_to_containment,
        "containment_latency": (
            None if time_to_containment is None or first_compromise is None
            else time_to_containment - first_compromise
        ),
    }


# --- simulation -------------------------------------------------------------

@dataclass(frozen=True)
class _Action:
    time: int
    priority: int
    seq: int
    kind: str
    device_id: str = ""
    attribute: AttributeKind | None = None
    value: int | str | None = None
    resource_id: str = ""


class _SimApprover:
    def __init__(self, approver_id: str, windows: Sequence[FailureWindow]):
        self.approver_id = approver_id
        self.shares: dict[str, Share] = {}
        self.windows = [w for w in windows if w.node == approver_id]

    def respond(self, resource_id: str, now: int) -> Share | None:
        if any(w.covers(now) for w in self.windows):
            return None
        return self.shares.get(resource_id)


def _draw_value(rng: random.Random, profile: AttributeProfile) -> int | str:
    values = [v for v, _ in profile.values]
    weights = [w for _, w in profile.values]
    return rng.choices(values, weights=weights, k=1)[0]


def run(config: ScenarioConfig, out_dir: str | Path | None = None) -> SimReport:
    """Execute a scenario; optionally write the artifact directory.

    Artifacts: ``config.json`` (canonical form), ``events.jsonl``,
    ``audit.jsonl``, ``report.json``. Identical configurations produce
    byte-identical artifacts.
    """

    rng = random.Random(config.seed)
    device_ids = [d.device_id for d in config.devices]
    users = {d.device_id: d.user_id for d in config.devices}
    resource_ids = sorted(r.resource_id for r in config.resources)
    down_windows: dict[str, list[FailureWindow]] = {}
    for w in config.failures:
        down_windows.setdefault(w.node, []).append(w)

    def is_down(node: str, t: int) -> bool:
        return any(w.covers(t) for w in down_windows.get(node, ()))

    # Resource registry, unlock tokens, approvers.
    approvers = {
        aid: _SimApprover(aid, config.failures)
        for aid in config.approver_ids()
    }
    field_params = FieldParams()
    quorum = ThresholdPolicy(n=config.approver_n, z=config.approver_z)
    digests: dict[str, str] = {}
    scheme_ids: dict[str, str] = {}
    resources: dict[str, ResourceEntry] = {}
    for spec in sorted(config.resources, key=lambda r: r.resource_id):
        digest = None
        holders: tuple[str, ...] = ()
        if spec.sensitivity == SENSITIVITY_HIGH:
            token = rng.randrange(field_params.prime)
            shares = split(token, quorum, field_params, rng)
            for share, aid in zip(shares, config.approver_ids()):
                approvers[aid].shares[spec.resource_id] = share
            digest = token_digest(shares[0].scheme_id, token)
            digests[spec.resource_id] = digest
            scheme_ids[spec.resource_id] = shares[0].scheme_id
            holders = config.approver_ids()
        resources[spec.resource_id] = ResourceEntry(
            threshold=spec.threshold,
            sensitivity=spec.sensitivity,
            token_digest=digest,
            share_holders=holders,
        )
    access = AccessTable(
        users=sorted(set(users.values())),
        devices=device_ids,
        resources=resources,
        quorum_n=config.approver_n if digests else None,
    )
    quorum_client = QuorumClient(
        approvers=approvers, digests=digests, scheme_ids=scheme_ids
    )

    # Pre-draw the whole schedule so replaying a config is exact.
    actions: list[_Action] = []
    seq = 0

    def push(time: int, priority: int, kind: str, **kw) -> None:
        nonlocal seq
        actions.append(_Action(time=time, priority=priority, seq=seq,
                               kind=kind, **kw))
        seq += 1

    if config.duration > 0:
        for t in range(0, config.duration, config.refresh_interval):
            push(t, _PRIORITY_SWEEP, "sweep")
        for device in config.devices:
            for kind in sorted(config.benign.attributes, key=lambda k: k.value):
                prof = config.benign.attributes[kind]
                for _ in range(round(prof.rate * config.duration)):
                    t = rng.randrange(config.duration)
                    push(
                        t, _PRIORITY_EMIT, "emit",
                        device_id=device.device_id,
                        attribute=kind,
                        value=_draw_value(rng, prof),
                        resource_id=rng.choice(resource_ids) if resource_ids else "",
                    )
            for _ in range(round(config.benign.request_rate * config.duration)):
                t = rng.randrange(config.duration)
                push(
                    t, _PRIORITY_REQUEST, "request",
                    device_id=device.device_id,
                    resource_id=rng.choice(resource_ids) if resource_ids else "",
                )
        for plan in config.compromises:
            window = config.duration - plan.start_time
            for kind in sorted(plan.profile.attributes, key=lambda k: k.value):
                prof = plan.profile.attributes[kind]
                for _ in range(round(prof.rate * window)):
                    t = plan.start_time + rng.randrange(window)
                    push(
                        t, _PRIORITY_EMIT, "emit",
                        device_id=plan.device_id,
                        attribute=kind,
                        value=_draw_value(rng, prof),
                        resource_id=rng.choice(resource_ids) if resource_ids else "",
                    )
            for _ in range(round(plan.profile.request_rate * window)):
                t = plan.start_time + rng.randrange(window)
                push(
                    t, _PRIORITY_REQUEST, "request",
                    device_id=plan.device_id,
                    resource_id=rng.choice(resource_ids) if resource_ids else "",
                )

    heap = [(a.time, a.priority, a.seq, a) for a in actions]
    heapq.heapify(heap)

    # Engine wiring.
    hot = HotStore(None)
    cache = TrustScoreCache(
        CacheConfig(capacity=config.cache_capacity), ScoreStore()
    )
    policy = config.policy
    ledger = (
        InteractionLedger(peers=tuple(sorted(device_ids)))
        if len(device_ids) >= 2 else None
    )
    reputation_rel: dict[str, float] = {}
    convergence: dict[str, object] = {
        "iterations_used": None, "residual": None,
        "converged": None, "sweeps": 0,
    }
    host_of = {
        rid: device_ids[i % len(device_ids)] if device_ids else ""
        for i, rid in enumerate(resource_ids)
    }

    def recompute(triplet: Triplet, now: int) -> TrustRecord:
        window = hot.query_window(triplet, now, config.attribute_window)
        b = behavioral_score(window, policy)
        g = reputation_rel.get(triplet.device_id, 1.0)
        return make_record(triplet, b, g, policy.alpha, now)

    def refresh_reputation(now: int) -> None:
        if ledger is None:
            return
        local = normalize(ledger)
        vector = global_trust(
            local,
            pretrusted=config.pretrusted,
            a=config.damping,
            epsilon=config.epsilon,
        )
        best = max(vector.scores.values())
        for peer, score in vector.scores.items():
            reputation_rel[peer] = score / best if best > 0 else 1.0
        convergence.update(
            iterations_used=vector.iterations_used,
            residual=vector.residual,
            converged=vector.converged,
            sweeps=int(convergence["sweeps"]) + 1,
        )

    next_event_id = 0
    next_alert_id = 0
    last_event: dict[str, EdrEvent] = {}
    all_events: list[EdrEvent] = []
    critical_alerts: list[ActiveAlert] = []
    sorted_rules = sorted(config.alert_rules, key=lambda r: r.rule_name)
    audit_rows: list[_AuditRow] = []
    audit_lines: list[str] = []

    while heap:
        _, _, _, action = heapq.heappop(heap)
        t = action.time
        if action.kind == "sweep":
            refresh_reputation(t)
            cache.refresh_sweep(t, recompute)
            continue
        if is_down(action.device_id, t):
            continue
        if action.kind == "emit":
            parent = last_event.get(action.device_id)
            parents = (
                (parent.event_id,)
                if parent is not None and parent.timestamp < t else ()
            )
            event = EdrEvent(
                event_id=next_event_id,
                triplet=Triplet(
                    user_id=users[action.device_id],
                    device_id=action.device_id,
                    resource_id=action.resource_id or "none",
                ),
                attribute=action.attribute,
                value=action.value,
                timestamp=t,
                parent_ids=parents,
            )
            next_event_id += 1
            hot.append_events([event])
            all_events.append(event)
            last_event[action.device_id] = event
            for rule in sorted_rules:
                if rule.matches(event):
                    alert = Alert(
                        alert_id=next_alert_id,
                        event_id=event.event_id,
                        severity=rule.severity,
                        rule_name=rule.rule_name,
                    )
                    next_alert_id += 1
                    if alert.severity is Severity.CRITICAL:
                        critical_alerts.append(
                            ActiveAlert(alert=alert, device_id=action.device_id)
                        )
            continue
        # request
        triplet = Triplet(
            user_id=users[action.device_id],
            device_id=action.device_id,
            resource_id=action.resource_id or "none",
        )

        def score_source(trip: Triplet, now: int) -> TrustRecord:
            record, _ = cache.get_score(trip, now, recompute)
            return record

        decision = decide(
            triplet, policy, score_source, critical_alerts,
            quorum_client, now=t,
        )
        audit_lines.append(audit_line(t, triplet, decision))
        audit_rows.append(
            _AuditRow(ts=t, device_id=action.device_id,
                      granted=decision.granted)
        )
        if decision.granted:
            host = host_of.get(action.resource_id, "")
            if ledger is not None and host and host != action.device_id:
                start = config.compromise_time(action.device_id)
                if start is not None and t >= start:
                    ledger.record_unsat(host, action.device_id)
                else:
                    ledger.record_sat(host, action.device_id)

    # End-of-run archival statistics over the full event log.
    batch = archive_batch(all_events, sorted_rules)
    stats = reduction_stats(batch.graph, batch.skeleton)
    avg_len = batch.avg_code_length
    reduction = {
        "nodes_before": stats.nodes_before,
        "nodes_after": stats.nodes_after,
        "ratio": stats.ratio,
        "avg_code_length": None if avg_len is None else float(avg_len),
        "avg_code_length_exact": None if avg_len is None else str(avg_len),
        "alerts": len(batch.graph.alerts),
    }

    summary = _decision_summary(config, audit_rows)
    report = SimReport(
        total_events=len(all_events),
        cache_metrics=cache.metrics.to_obj(),
        max_served_age=cache.metrics.max_served_age,
        reduction=reduction,
        reputation_convergence=dict(convergence),
        **summary,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "config.json", "w", encoding="utf-8") as fh:
            json.dump(config_to_obj(config), fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_events(out / "events.jsonl", all_events)
        with open(out / "audit.jsonl", "w", encoding="utf-8") as fh:
            for line in audit_lines:
                fh.write(line)
                fh.write("\n")
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            fh.write(report.dumps())
        access.save(out / "access.json")
    return report


def replay(out_dir: str | Path) -> SimReport:
    """Recompute the decision-derived report fields from the audit log.

    Raises ReplayError when the log is malformed or disagrees with the
    stored report; otherwise returns a report equal to the stored one.
    """

    out = Path(out_dir)
    try:
        config = load_config(out / "config.json")
    except (OSError, json.JSONDecodeError, ScenarioError) as exc:
        raise ReplayError(f"cannot load scenario: {exc}") from None
    try:
        with open(out / "report.json", "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReplayError(f"cannot load report: {exc}") from None
    rows: list[_AuditRow] = []
    try:
        with open(out / "audit.jsonl", "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = parse_audit_line(line)
                except (ValueError, KeyError) as exc:
                    raise ReplayError(f"audit line {lineno}: {exc}") from None
                rows.append(
                    _AuditRow(
                        ts=obj["ts"],
                        device_id=obj["triplet"][1],
                        granted=obj["verdict"] == "grant",
                    )
                )
    except OSError as exc:
        raise ReplayError(f"cannot read audit log: {exc}") from None
    summary = _decision_summary(config, rows)
    for key, value in summary.items():
        stored_value = stored.get(key)
        recomputed = json.loads(json.dumps(value))  # normalize tuples
        if stored_value != recomputed:
            raise ReplayError(
                f"report mismatch on {key}: stored {stored_value!r}, "
                f"replayed {recomputed!r}"
            )
    return SimReport.from_obj(stored)
