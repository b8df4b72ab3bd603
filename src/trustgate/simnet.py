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
import json
import math
import random
import sys
from bisect import bisect
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .model import (
    Alert,
    AttributeKind,
    EdrEvent,
    Severity,
    Triplet,
    format_json,
    load_json,
    scan_lines,
    write_events,
)
# bench/test_bench.py asserts that simnet binds reduce_to_skeleton.
from .provenance import (  # noqa: F401
    AlertRule,
    reduce_to_skeleton,
    rule_from_obj,
    rule_to_obj,
)
from .reputation import (
    DEFAULT_DAMPING,
    DEFAULT_EPSILON,
    GlobalTrustVector,
    InteractionLedger,
    global_trust,
    normalize,
)
from .secretshare import FieldParams, Share, ThresholdPolicy, split
from .engine import (
    DEFAULT_QUORUM,
    SENSITIVITY_HIGH,
    SENSITIVITY_STANDARD,
    ActiveAlert,
    QuorumClient,
    ResourceSpec,
    TrustPolicy,
    TrustRecord,
    audit_line,
    behavioral_score,
    decide,
    make_record,
    parse_audit_line,
    policy_from_obj,
    policy_to_obj,
    scan_audit_lines,
    token_digest,
)
from .cache import (
    DEFAULT_CAPACITY,
    DEFAULT_MAX_REFRESH,
    CacheConfig,
    ScoreStore,
    TrustScoreCache,
)
from .store import DEFAULT_ATTRIBUTE_WINDOW, HotStore, archive_batch

FLAG_NO_DEVICES = "no_devices"
FLAG_NO_MALICIOUS_TRAFFIC = "no_malicious_traffic"

_PRIORITY_SWEEP = 0
_PRIORITY_EMIT = 1
_PRIORITY_REQUEST = 2

_FLOAT_MAX = sys.float_info.max
# A scenario names each approver, so its quorum size is bounded.
MAX_APPROVERS = 1000


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
        _check_rate(self.rate, "attribute rate")
        if not self.values:
            raise ScenarioError("attribute profile needs at least one value")
        for _, weight in self.values:
            if isinstance(weight, bool) or not isinstance(weight, int) or weight <= 0:
                raise ScenarioError("value weights must be positive integers")
        # A draw scales a float in [0, 1) by the total, as rng.choices does.
        if sum(w for _, w in self.values) > _FLOAT_MAX:
            raise ScenarioError(f"value weights must total at most {_FLOAT_MAX!r}")


@dataclass(frozen=True)
class BehaviorProfile:
    attributes: Mapping[AttributeKind, AttributeProfile]
    request_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rate(self.request_rate, "request rate")
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
        for name in ("device_id", "user_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ScenarioError(
                    f"{name} must be a non-empty string, got {value!r}")


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
    benign: BehaviorProfile
    policy: TrustPolicy
    alert_rules: tuple[AlertRule, ...]
    compromises: tuple[CompromisePlan, ...] = ()
    failures: tuple[FailureWindow, ...] = ()
    pretrusted: tuple[str, ...] = ()
    attribute_window: int = DEFAULT_ATTRIBUTE_WINDOW
    refresh_interval: int = DEFAULT_MAX_REFRESH
    cache_capacity: int = DEFAULT_CAPACITY
    damping: float = DEFAULT_DAMPING
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        for name in ("seed", "duration", "attribute_window",
                     "refresh_interval", "cache_capacity"):
            _check_integer(getattr(self, name), name)
        for name in ("damping", "epsilon"):
            _check_number(getattr(self, name), name)
        if self.duration < 0:
            raise ScenarioError("duration must be non-negative")
        device_ids = [d.device_id for d in self.devices]
        if len(set(device_ids)) != len(device_ids):
            raise ScenarioError("duplicate device ids")
        known = set(device_ids)
        for i, plan in enumerate(self.compromises):
            _check_integer(plan.start_time, f"compromises[{i}].start_time")
            if not isinstance(plan.device_id, str) or plan.device_id not in known:
                raise ScenarioError(f"unknown compromised device {plan.device_id}")
            if not 0 <= plan.start_time < max(self.duration, 1):
                raise ScenarioError("compromise start must fall inside the run")
        if self.policy.quorum.n > MAX_APPROVERS:
            raise ScenarioError(f"approvers.n must be at most {MAX_APPROVERS}, "
                                f"got {self.policy.quorum.n}")
        approver_ids = set(self.approver_ids())
        for i, window in enumerate(self.failures):
            if not isinstance(window.node, str) or (
                    window.node not in known and window.node not in approver_ids):
                raise ScenarioError(f"unknown failure node {window.node}")
            down = [window.start, window.end]
            if any(isinstance(t, bool) or not isinstance(t, int) for t in down):
                raise ScenarioError(
                    f"failures[{i}].down must be two integers, got {down!r}")
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
        if not 0 < self.epsilon <= _FLOAT_MAX:  # NaN fails both
            raise ScenarioError(
                f"epsilon must be a finite positive number, got {self.epsilon!r}")
        profiles = [("benign_profile", self.benign)] + [
            (f"compromises[{i}].profile", p.profile)
            for i, p in enumerate(self.compromises)
        ]
        for where, profile in profiles:
            _check_draws(profile.request_rate, self.duration,
                         f"{where}.request_rate")
            for kind, attribute in profile.attributes.items():
                _check_draws(attribute.rate, self.duration,
                             f"{where}.attributes.{kind.value}.rate")

    def approver_ids(self) -> tuple[str, ...]:
        return tuple(f"approver-{i}" for i in range(1, self.policy.quorum.n + 1))

    def malicious(self, device_id: str, t: int) -> bool:
        """Ground truth: a request at or after its device's compromise
        time is malicious."""

        return any(p.device_id == device_id and t >= p.start_time
                   for p in self.compromises)

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


def _check_integer(value: object, where: str) -> int:
    """Return ``value`` if it is an int but not a bool; otherwise raise
    ScenarioError naming ``where``."""

    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _check_number(value: object, where: str) -> int | float:
    """Return ``value`` if it is an int or float but not a bool;
    otherwise raise ScenarioError naming ``where``."""

    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    return value


def _check_rate(value: object, where: str) -> float:
    """Return ``value`` as a float if it is a finite non-negative number;
    otherwise raise ScenarioError naming ``where``. A rate times a window
    is a count of draws, so infinity, NaN and ints past the float range
    are refused (NaN fails both comparisons)."""

    if not 0 <= _check_number(value, where) <= _FLOAT_MAX:
        raise ScenarioError(
            f"{where} must be a finite non-negative number, got {value!r}")
    return float(value)


def _check_draws(rate: float, duration: int, where: str) -> None:
    """Raise ScenarioError naming ``where`` unless ``rate * duration``, the
    most draws a profile can ask of one device, is a finite float."""

    try:
        finite = math.isfinite(rate * duration)
    except OverflowError:  # a duration past the float range
        finite = False
    if not finite:
        raise ScenarioError(
            f"{where} times duration must be finite, got {rate!r} x {duration}")


def _profile_from_obj(obj: object, where: str) -> BehaviorProfile:
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
        rate = _check_rate(spec.get("rate", 0.0),
                           f"{where}.attributes.{name}.rate")
        values = tuple((v, w) for v, w in spec.get("values", ()))
        try:
            attributes[kind] = AttributeProfile(rate=rate, values=values)
        except ScenarioError as exc:
            raise ScenarioError(f"{where}.attributes.{name}: {exc}") from None
    return BehaviorProfile(
        attributes=attributes,
        request_rate=_check_rate(obj.get("request_rate", 0.0),
                                 f"{where}.request_rate"),
    )


def _window_from_obj(obj: dict, where: str) -> FailureWindow:
    down = obj["down"]
    if not isinstance(down, list) or len(down) != 2:
        raise ScenarioError(f"{where}.down must be two integers, got {down!r}")
    return FailureWindow(node=obj["node"], start=down[0], end=down[1])


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
            for r in config.policy.resources.values()
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
        "approvers": {"n": config.policy.quorum.n, "z": config.policy.quorum.z},
        "pretrusted": list(config.pretrusted),
        "policy": policy_to_obj(config.policy),
        "alert_rules": [rule_to_obj(r) for r in config.alert_rules],
        "attribute_window": config.attribute_window,
        "refresh_interval": config.refresh_interval,
        "cache_capacity": config.cache_capacity,
        "damping": config.damping,
        "epsilon": config.epsilon,
    }


_TUNABLES = (
    "attribute_window", "refresh_interval", "cache_capacity", "damping",
    "epsilon",
)


def config_from_obj(obj: object) -> ScenarioConfig:
    """Parse a scenario document; any malformed part raises ScenarioError.

    The ``"resources"`` list is the resource registry. A ``"policy"``
    block, when given, must list the same thresholds and sensitivity
    levels.
    """

    try:
        return _config_from_obj(obj)
    except ScenarioError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"missing scenario field {exc}") from None
    except (AttributeError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from None


def _config_from_obj(obj: object) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    allowed = {
        "seed", "duration", "devices", "resources", "benign_profile",
        "compromises", "failures", "approvers", "pretrusted", "policy",
        "alert_rules", *_TUNABLES,
    }
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    devices_spec = obj.get("devices", [])
    if isinstance(devices_spec, dict):
        count = _check_integer(devices_spec.get("count", 0), "devices.count")
        if count < 0:
            raise ScenarioError(f"devices.count must be non-negative, got {count}")
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
    resources_obj = obj.get("resources", [])
    if not isinstance(resources_obj, list):
        raise ScenarioError("resources must be a list")
    resources = tuple(
        ResourceSpec(
            resource_id=r["resource_id"],
            threshold=float(r["threshold"]),
            sensitivity=r.get("sensitivity", SENSITIVITY_STANDARD),
        )
        for r in resources_obj
    )
    quorum = DEFAULT_QUORUM
    if "approvers" in obj:
        quorum = ThresholdPolicy(n=obj["approvers"]["n"], z=obj["approvers"]["z"])
    policy_obj = obj.get("policy")
    if policy_obj is None:
        policy = default_policy(quorum=quorum, resources=resources)
    else:
        policy = policy_from_obj(policy_obj)
        if policy.resources != {r.resource_id: r for r in resources}:
            raise ScenarioError(
                "policy thresholds and sensitivity must agree with the "
                "resources list"
            )
        if policy.quorum != quorum:
            raise ScenarioError("approvers must match the policy quorum")
        policy = replace(policy, resources=resources)
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
        benign=_profile_from_obj(obj.get("benign_profile", {}),
                                 "benign_profile"),
        compromises=tuple(
            CompromisePlan(
                device_id=p["device_id"],
                start_time=p["start_time"],
                profile=_profile_from_obj(p["profile"],
                                          f"compromises[{i}].profile"),
            )
            for i, p in enumerate(obj.get("compromises", []))
        ),
        failures=tuple(
            _window_from_obj(w, f"failures[{i}]")
            for i, w in enumerate(obj.get("failures", []))
        ),
        pretrusted=tuple(pretrusted),
        policy=policy,
        alert_rules=rules,
        **{key: obj[key] for key in _TUNABLES if key in obj},
    )


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_obj(load_json(path, "scenario", ScenarioError))


def config_digest(config: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_obj(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- reference material -----------------------------------------------------

def default_policy(
    quorum: ThresholdPolicy = DEFAULT_QUORUM,
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
    }
    return replace(policy_from_obj(obj), resources=resources, quorum=quorum)


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
    """Run outcome. The fields ``_decision_summary`` returns are
    recomputable from the decision audit log plus the scenario; the
    rest are run-internal."""

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

    def to_obj(self) -> dict:
        return {**asdict(self), "flags": list(self.flags)}

    @classmethod
    def from_obj(cls, obj: dict) -> "SimReport":
        return cls(**{**obj, "flags": tuple(obj["flags"])})


class _AuditRow(NamedTuple):
    ts: int
    device_id: str
    granted: bool


def _compromise_starts(config: ScenarioConfig) -> dict[str, int]:
    """Each compromised device's earliest compromise start. A request
    by ``d`` at ``t`` is malicious iff ``t >= starts.get(d, inf)``: the
    predicate of ``ScenarioConfig.malicious``, at one lookup a call."""

    starts: dict[str, int] = {}
    for plan in config.compromises:
        starts[plan.device_id] = min(
            plan.start_time, starts.get(plan.device_id, plan.start_time))
    return starts


def _decision_summary(
    config: ScenarioConfig, rows: Sequence[_AuditRow]
) -> dict:
    """The decision-derived SimReport fields, computed from audit rows."""

    first_compromise = config.first_compromise_time()
    starts = _compromise_starts(config)
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
    for ts, device_id, granted in rows:
        outcome = "grants" if granted else "denies"
        if granted:
            grants += 1
        else:
            denies += 1
        phase = (
            "after"
            if first_compromise is not None and ts >= first_compromise
            else "before"
        )
        per_device[device_id][phase][outcome] += 1
        if ts >= starts.get(device_id, math.inf):
            malicious_total += 1
            if granted:
                malicious_granted += 1
                last_malicious_grant = ts
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
        for ts, device_id, granted in rows:
            if (ts >= time_to_containment
                    and ts >= starts.get(device_id, math.inf)):
                post_total += 1
                if granted:
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

# One scheduled action: (time, priority, device_id, attribute, value,
# resource_id). The priority is also the action's kind; a sweep carries
# no device, an emission no resource when the registry is empty, and a
# request no attribute or value.
_Action = tuple[int, int, str, AttributeKind | None, int | str | None, str]


def _action_order(action: _Action) -> int:
    """The sort key of an action: its time, then its priority, as one
    int (every priority is below 3)."""

    return action[0] * 3 + action[1]


class _SimApprover:
    def __init__(self, windows: Sequence[FailureWindow]):
        self.shares: dict[str, Share] = {}
        self.windows = windows

    def respond(self, resource_id: str, now: int) -> Share | None:
        if self.windows and any(w.covers(now) for w in self.windows):
            return None
        return self.shares.get(resource_id)


# (kind, rate, values, cumulative weights, float total, last index)
_ValueTable = tuple[AttributeKind, float, list, list, float, int]


def _value_tables(profile: BehaviorProfile) -> list[_ValueTable]:
    """Per attribute kind, by name: its rate, its values, their
    cumulative weights, the weights' total as a float and the last
    index. ``values[bisect(cum, rng.random() * total, 0, hi)]`` is line
    for line what ``rng.choices(values, cum_weights=cum)[0]`` computes,
    so the RNG stream and every draw are those of ``rng.choices`` with
    the weights themselves."""

    tables = []
    for kind, prof in sorted(profile.attributes.items(),
                             key=lambda kv: kv[0].value):
        cum = list(accumulate(w for _, w in prof.values))
        tables.append((kind, prof.rate, [v for v, _ in prof.values], cum,
                       cum[-1] + 0.0, len(cum) - 1))
    return tables


def _draw_activity(
    rng: random.Random,
    device_id: str,
    tables: Sequence[_ValueTable],
    request_rate: float,
    start: int,
    window: int,
    resource_ids: Sequence[str],
) -> list[_Action]:
    """A device's emissions and requests over [start, start + window),
    for a profile's ``_value_tables`` and request rate.

    The draw order (per attribute kind by name: time, value, target;
    then requests: time, target) is what lets a seed fix the schedule.
    A time is ``rng.randrange(window)`` and a target
    ``rng.choice(resource_ids)``, drawn inline as CPython (3.10 and
    later) draws both: ``getrandbits(n.bit_length())`` until the result
    is below ``n``, then that offset or index. The RNG stream is theirs.
    """

    actions = []
    append = actions.append
    getrandbits, random_ = rng.getrandbits, rng.random
    time_bits = window.bit_length()
    targets = len(resource_ids)
    target_bits = targets.bit_length()
    # Emissions per kind, then requests, which draw no value.
    streams = [(_PRIORITY_EMIT, *table) for table in tables]
    streams.append((_PRIORITY_REQUEST, None, request_rate, None, None, None,
                    None))
    for priority, kind, rate, values, cum, total, hi in streams:
        value = None
        for _ in range(round(rate * window)):
            t = getrandbits(time_bits)
            while t >= window:
                t = getrandbits(time_bits)
            if values is not None:
                value = values[bisect(cum, random_() * total, 0, hi)]
            target = ""
            if targets:
                i = getrandbits(target_bits)
                while i >= targets:
                    i = getrandbits(target_bits)
                target = resource_ids[i]
            append((start + t, priority, device_id, kind, value, target))
    return actions


def _audit_row(
    config: ScenarioConfig, devices: frozenset[str], line: str
) -> _AuditRow:
    """One audit line as a row, for a scenario with device ids
    ``devices``. A malformed line, one naming a device or resource
    outside the scenario, or one whose theta is not the policy's
    threshold for its resource raises a ValueError that replay prefixes
    with the line number."""

    obj = parse_audit_line(line)
    device_id = obj["triplet"][1]
    if not isinstance(device_id, str) or device_id not in devices:
        raise ReplayError(f"unknown device {device_id!r}")
    resource_id = obj["triplet"][2]
    if (not isinstance(resource_id, str)
            or resource_id not in config.policy.resources):
        raise ReplayError(f"unknown resource {resource_id!r}")
    if obj["theta"] != config.policy.threshold_for(resource_id):
        raise ReplayError(
            f"theta {obj['theta']!r} is not the policy threshold for "
            f"resource {resource_id!r}"
        )
    return _AuditRow(obj["ts"], device_id, obj["verdict"] == "grant")


def _scan_audit_rows(
    config: ScenarioConfig, devices: frozenset[str], chunk: list[bytes]
) -> list[_AuditRow] | None:
    """The rows of a chunk of audit lines, when ``scan_audit_lines``
    reads them all and ``_audit_row`` would accept each; None otherwise,
    so that replay parses the chunk line by line and names the fault."""

    records = scan_audit_lines(chunk)
    if records is None:
        return None
    resources = config.policy.resources
    rows = []
    for ts, (_, device_id, resource_id), verdict, _, _, theta in records:
        spec = resources.get(resource_id)
        if (device_id not in devices or spec is None
                or theta != spec.threshold):
            return None
        rows.append(_AuditRow(ts, device_id, verdict == "grant"))
    return rows


def _deal_tokens(
    config: ScenarioConfig, rng: random.Random
) -> tuple[QuorumClient, dict]:
    """Deal each high-sensitivity resource's unlock token to the
    approvers; return the quorum client and the ``access.json`` object:
    principals, resource registry with token digests and share holders,
    and the attribute schema."""

    holders = config.approver_ids()
    approvers = {
        aid: _SimApprover([w for w in config.failures if w.node == aid])
        for aid in holders
    }
    field_params = FieldParams()
    digests: dict[str, str] = {}
    scheme_ids: dict[str, str] = {}
    for rid in sorted(config.policy.resources):
        if config.policy.sensitivity_for(rid) != SENSITIVITY_HIGH:
            continue
        token = rng.randrange(field_params.prime)
        shares = split(token, config.policy.quorum, field_params, rng)
        for share, aid in zip(shares, holders):
            approvers[aid].shares[rid] = share
        digests[rid] = token_digest(shares[0].scheme_id, token)
        scheme_ids[rid] = shares[0].scheme_id
    access = {
        "version": 1,
        "users": sorted({d.user_id for d in config.devices}),
        "devices": sorted(d.device_id for d in config.devices),
        "attributes": sorted(k.value for k in AttributeKind),
        "quorum_n": len(holders) if digests else None,
        "resources": {
            rid: {
                "threshold": spec.threshold,
                "sensitivity": spec.sensitivity,
                "token_digest": digests.get(rid),
                "share_holders": list(holders) if rid in digests else [],
            }
            for rid, spec in config.policy.resources.items()
        },
    }
    client = QuorumClient(
        approvers=approvers, digests=digests, scheme_ids=scheme_ids
    )
    return client, access


def _schedule(config: ScenarioConfig, rng: random.Random) -> list[_Action]:
    """Pre-draw the whole run so replaying a config is exact. The sort
    is stable, so equal (time, priority) keep their draw order."""

    resource_ids = sorted(config.policy.resources)
    actions = [
        (t, _PRIORITY_SWEEP, "", None, None, "")
        for t in range(0, config.duration, config.refresh_interval)
    ]
    benign = _value_tables(config.benign)
    for device in config.devices:
        actions += _draw_activity(rng, device.device_id, benign,
                                  config.benign.request_rate, 0,
                                  config.duration, resource_ids)
    for plan in config.compromises:
        actions += _draw_activity(rng, plan.device_id,
                                  _value_tables(plan.profile),
                                  plan.profile.request_rate, plan.start_time,
                                  config.duration - plan.start_time,
                                  resource_ids)
    actions.sort(key=_action_order)
    return actions


class _Loop:
    """The engine wired for one run; ``_simulate`` steps it through its
    schedule.

    Only a device's first critical alert is kept: alerts stay in force
    until the end of the run, and ``decide`` reads nothing else.
    """

    def __init__(self, config: ScenarioConfig, quorum_client: QuorumClient):
        device_ids = [d.device_id for d in config.devices]
        self.config = config
        self.quorum_client = quorum_client
        self.users = {d.device_id: d.user_id for d in config.devices}
        self.triplets: dict[tuple[str, str], Triplet] = {}
        self.down: dict[str, list[FailureWindow]] = {}
        for window in config.failures:
            self.down.setdefault(window.node, []).append(window)
        self.host_of = {
            rid: device_ids[i % len(device_ids)] if device_ids else ""
            for i, rid in enumerate(sorted(config.policy.resources))
        }
        # Critical rules by the kind they read, in config.alert_rules order.
        self.critical_rules: dict[AttributeKind, list[AlertRule]] = {}
        for rule in config.alert_rules:
            if rule.severity is Severity.CRITICAL:
                self.critical_rules.setdefault(rule.attribute, []).append(rule)
        self.hot = HotStore(None)
        self.cache = TrustScoreCache(
            CacheConfig(capacity=config.cache_capacity,
                        max_refresh=config.refresh_interval),
            ScoreStore(),
        )
        self.ledger = (
            InteractionLedger(peers=tuple(sorted(device_ids)))
            if len(device_ids) >= 2 else None
        )
        self.reputation_rel: dict[str, float] = {}
        self.vector: GlobalTrustVector | None = None
        self.sweeps = 0
        self.last_event: dict[str, EdrEvent] = {}
        self.critical: dict[str, ActiveAlert] = {}
        self.audit_lines: list[str] = []
        self.rows: list[_AuditRow] = []
        self.compromise_starts = _compromise_starts(config)

    def recompute(self, triplet: Triplet, now: int) -> TrustRecord:
        window = self.hot.query_window(triplet, now,
                                       self.config.attribute_window)
        b = behavioral_score(window, self.config.policy)
        g = self.reputation_rel.get(triplet.device_id, 1.0)
        return make_record(triplet, b, g, self.config.policy.alpha, now)

    def score(self, triplet: Triplet, now: int) -> TrustRecord:
        record, _ = self.cache.get_score(triplet, now, self.recompute)
        return record

    def sweep(self, now: int) -> None:
        if self.ledger is not None:
            self.vector = global_trust(
                normalize(self.ledger),
                pretrusted=self.config.pretrusted,
                a=self.config.damping,
                epsilon=self.config.epsilon,
            )
            self.sweeps += 1
            best = max(self.vector.scores.values())
            for peer, score in self.vector.scores.items():
                self.reputation_rel[peer] = score / best if best > 0 else 1.0
        self.cache.refresh_sweep(now, self.recompute)

    def _triplet(self, device_id: str, resource_id: str) -> Triplet:
        """The one Triplet of a (device, resource)."""

        key = (device_id, resource_id)
        triplet = self.triplets.get(key)
        if triplet is None:
            triplet = self.triplets[key] = Triplet(
                user_id=self.users[device_id],
                device_id=device_id,
                resource_id=resource_id or "none",
            )
        return triplet

    def emit(self, t: int, device_id: str, attribute: AttributeKind,
             value: int | str, resource_id: str) -> None:
        parent = self.last_event.get(device_id)
        event = EdrEvent(
            len(self.hot), self._triplet(device_id, resource_id), attribute,
            value, t,
            (parent.event_id,)
            if parent is not None and parent.timestamp < t else (),
        )
        self.hot.append_events((event,))
        self.last_event[device_id] = event
        if device_id in self.critical:
            return
        for rule in self.critical_rules.get(attribute, ()):
            if rule.matches(event):
                alert = Alert(alert_id=len(self.critical),
                              event_id=event.event_id,
                              severity=rule.severity,
                              rule_name=rule.rule_name)
                self.critical[device_id] = ActiveAlert(
                    alert=alert, device_id=device_id)
                return

    def request(self, t: int, device_id: str, resource_id: str) -> None:
        triplet = self._triplet(device_id, resource_id)
        alert = self.critical.get(device_id)
        decision = decide(
            triplet, self.config.policy, self.score,
            () if alert is None else (alert,),
            self.quorum_client, now=t,
        )
        self.audit_lines.append(audit_line(t, triplet, decision))
        granted = decision.granted
        self.rows.append(_AuditRow(t, device_id, granted))
        host = self.host_of.get(resource_id, "")
        if not granted or self.ledger is None or not host or host == device_id:
            return
        if t >= self.compromise_starts.get(device_id, math.inf):
            self.ledger.record_unsat(host, device_id)
        else:
            self.ledger.record_sat(host, device_id)

    def convergence(self) -> dict[str, object]:
        v = self.vector
        return {
            "iterations_used": None if v is None else v.iterations_used,
            "residual": None if v is None else v.residual,
            "converged": None if v is None else v.converged,
            "sweeps": self.sweeps,
        }


def _reduction(
    events: Sequence[EdrEvent], rules: Sequence[AlertRule]
) -> dict[str, object]:
    """End-of-run archival statistics over the full event log."""

    batch = archive_batch(events, rules)
    avg_len = batch.avg_code_length
    return {
        **batch.summary(),
        "avg_code_length": None if avg_len is None else float(avg_len),
        "avg_code_length_exact": None if avg_len is None else str(avg_len),
    }


def _simulate(config: ScenarioConfig) -> tuple[_Loop, dict]:
    """Step a fresh loop through the scenario's whole schedule; return
    it with the ``access.json`` object."""

    rng = random.Random(config.seed)
    quorum_client, access = _deal_tokens(config, rng)
    loop = _Loop(config, quorum_client)
    sweep, emit, request, down = loop.sweep, loop.emit, loop.request, loop.down
    for t, priority, device_id, attribute, value, resource_id in _schedule(
            config, rng):
        if priority == _PRIORITY_SWEEP:
            sweep(t)
        elif (windows := down.get(device_id)) and any(
                w.covers(t) for w in windows):
            continue  # the device is down: it neither emits nor requests
        elif priority == _PRIORITY_EMIT:
            emit(t, device_id, attribute, value, resource_id)
        else:
            request(t, device_id, resource_id)
    return loop, access


def run(config: ScenarioConfig, out_dir: str | Path | None = None) -> SimReport:
    """Execute a scenario; optionally write the artifact directory.

    Artifacts: ``config.json`` (canonical form), ``events.jsonl``,
    ``audit.jsonl``, ``access.json``, ``report.json``. Identical
    configurations produce byte-identical artifacts.
    """

    loop, access = _simulate(config)
    events = loop.hot.events
    report = SimReport(
        total_events=len(events),
        cache_metrics=loop.cache.metrics.to_obj(),
        max_served_age=loop.cache.metrics.max_served_age,
        reduction=_reduction(events, config.alert_rules),
        reputation_convergence=loop.convergence(),
        **_decision_summary(config, loop.rows),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, obj in (("config.json", config_to_obj(config)),
                          ("report.json", report.to_obj()),
                          ("access.json", access)):
            (out / name).write_text(format_json(obj), encoding="utf-8")
        write_events(out / "events.jsonl", events)
        with open(out / "audit.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in loop.audit_lines)
    return report


def replay(out_dir: str | Path) -> SimReport:
    """Recompute the decision-derived report fields from the audit log.

    Raises ReplayError when the log is malformed or disagrees with the
    stored report; otherwise returns a report equal to the stored one.
    """

    out = Path(out_dir)
    try:
        config = load_config(out / "config.json")
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        raise ReplayError(f"cannot load scenario: {exc}") from None
    try:
        stored = load_json(out / "report.json", "report.json", ReplayError)
    except (OSError, ValueError) as exc:
        raise ReplayError(f"cannot load report: {exc}") from None
    if not isinstance(stored, dict):
        raise ReplayError("report must be a JSON object")
    expected = {f.name for f in fields(SimReport)}
    if set(stored) != expected:
        raise ReplayError(
            f"report fields differ: missing {sorted(expected - set(stored))}, "
            f"extra {sorted(set(stored) - expected)}"
        )
    devices = frozenset(d.device_id for d in config.devices)
    try:
        with open(out / "audit.jsonl", "rb") as fh:
            rows = scan_lines(fh, partial(_scan_audit_rows, config, devices),
                              partial(_audit_row, config, devices),
                              ReplayError, "audit line")
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
