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
from array import array
from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .model import (
    WRITE_BLOCK_LINES,
    Alert,
    AttributeKind,
    EdrEvent,
    ModelError,
    Severity,
    Triplet,
    check_id,
    check_u64,
    check_value,
    event_line,
    format_json,
    identity_text,
    is_int,
    is_number,
    load_json,
    pair_text,
    scan_lines,
    write_block,
    write_lines,
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
    check_parameters,
    global_trust,
    normalize,
)
from .secretshare import FieldParams, Share, ThresholdPolicy, split
from .engine import (
    DEFAULT_QUORUM,
    SENSITIVITY_HIGH,
    SENSITIVITY_STANDARD,
    ActiveAlert,
    PolicyError,
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
# The schedule is drawn in full before the run, so a scenario's action
# count is bounded: about 8x the 13 million of 100k reference devices.
# It holds one int per action in its time slot's list, about 48 bytes an
# action at 1000 reference devices (74 at 200, whose lists are shorter).
MAX_SCHEDULED_ACTIONS = 10**8


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
            if not is_int(weight) or weight <= 0:
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
            for i, (value, _) in enumerate(profile.values):
                try:
                    check_value(kind, value)
                except ModelError as exc:
                    raise ScenarioError(
                        f"attributes.{kind.value}.values[{i}]: {exc}") from None


@dataclass(frozen=True)
class DeviceSpec:
    device_id: str
    user_id: str

    def __post_init__(self) -> None:
        check_id(self.device_id, "device_id", ScenarioError)
        check_id(self.user_id, "user_id", ScenarioError)


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
        check_parameters(self.damping, self.epsilon, ScenarioError)
        # Every time a run draws is below its duration, so a duration
        # held to the event rule gives every event a time it can carry.
        check_u64(self.duration, "duration", ScenarioError)
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
            raise ScenarioError(
                f"policy.quorum.n must be at most {MAX_APPROVERS}, "
                f"got {self.policy.quorum.n}")
        approver_ids = set(self.approver_ids())
        for i, window in enumerate(self.failures):
            if not isinstance(window.node, str) or (
                    window.node not in known and window.node not in approver_ids):
                raise ScenarioError(f"unknown failure node {window.node}")
            down = [window.start, window.end]
            if not all(map(is_int, down)):
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
        actions = (
            -(-self.duration // self.refresh_interval)  # sweeps
            + len(self.devices) * _draw_count(self.benign, self.duration)
            + sum(_draw_count(p.profile, self.duration - p.start_time)
                  for p in self.compromises)
        )
        if actions > MAX_SCHEDULED_ACTIONS:
            raise ScenarioError(
                f"scenario schedules {actions} actions, more than "
                f"{MAX_SCHEDULED_ACTIONS}")

    def approver_ids(self) -> tuple[str, ...]:
        return tuple(f"approver-{i}" for i in range(1, self.policy.quorum.n + 1))

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

    if not is_int(value):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _check_rate(value: object, where: str) -> float:
    """Return ``value`` as a float if it is a finite non-negative number;
    otherwise raise ScenarioError naming ``where``. A rate times a window
    is a count of draws, so infinity, NaN and ints past the float range
    are refused (NaN fails both comparisons)."""

    if not is_number(value):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    if not 0 <= value <= _FLOAT_MAX:
        raise ScenarioError(
            f"{where} must be a finite non-negative number, got {value!r}")
    return float(value)


def _check_draws(rate: float, duration: int, where: str) -> None:
    """Raise ScenarioError naming ``where`` unless ``rate * duration``, the
    most draws a profile can ask of one device, is a finite float."""

    if not math.isfinite(rate * duration):
        raise ScenarioError(
            f"{where} times duration must be finite, got {rate!r} x {duration}")


def _draw_count(profile: BehaviorProfile, window: int) -> int:
    """The actions ``_draw_activity`` draws for one device over
    ``window`` seconds of ``profile``."""

    return round(profile.request_rate * window) + sum(
        round(attribute.rate * window)
        for attribute in profile.attributes.values())


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
    request_rate = _check_rate(obj.get("request_rate", 0.0),
                               f"{where}.request_rate")
    try:
        return BehaviorProfile(attributes=attributes, request_rate=request_rate)
    except ScenarioError as exc:  # a value, named by its path in the profile
        raise ScenarioError(f"{where}.{exc}") from None


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

    The ``"policy"`` block is a whole policy document, the format
    ``load_policy`` reads: it holds the resource registry (each
    resource's threshold and sensitivity) and the approver quorum. A
    scenario without one gets ``default_policy()``, which registers no
    resource.
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
        "seed", "duration", "devices", "benign_profile", "compromises",
        "failures", "pretrusted", "policy", "alert_rules", *_TUNABLES,
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
    policy_obj = obj.get("policy")
    try:
        policy = (policy_from_obj(policy_obj) if policy_obj is not None
                  else default_policy())
    except PolicyError as exc:
        # A fault policy_from_obj wraps is its cause, named unprefixed.
        raise ScenarioError(f"policy: {exc.__cause__ or exc}") from None
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
        """The report as a JSON object. Its values are the report's own,
        not copies, except ``flags``, which becomes a list."""

        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["flags"] = list(self.flags)
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "SimReport":
        return cls(**{**obj, "flags": tuple(obj["flags"])})


class _AuditRow(NamedTuple):
    ts: int
    device_id: str
    granted: bool


def _compromise_starts(config: ScenarioConfig) -> dict[str, int]:
    """Each compromised device's earliest compromise start: the run's
    ground truth. A request by ``d`` at ``t`` is malicious iff
    ``t >= starts.get(d, inf)``, that is, at or after any of its
    device's compromise starts."""

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

class _SimApprover:
    def __init__(self, windows: Sequence[FailureWindow]):
        self.shares: dict[str, Share] = {}
        self.windows = windows

    def respond(self, resource_id: str, now: int) -> Share | None:
        if self.windows and any(w.covers(now) for w in self.windows):
            return None
        return self.shares.get(resource_id)


def _pair_table(
    config: ScenarioConfig
) -> list[tuple[AttributeKind, int | str]]:
    """Every (kind, value) a profile of the scenario lists, once each, in
    the order the benign profile and then each compromise profile list
    them. An emission's code names its pair by index into this list."""

    pairs: dict[tuple[AttributeKind, int | str], None] = {}
    for profile in (config.benign, *(p.profile for p in config.compromises)):
        for kind, spec in profile.attributes.items():
            for value, _ in spec.values:
                pairs[(kind, value)] = None
    return list(pairs)


# (rate, pair indices, cumulative weights, float total, last index)
_ValueTable = tuple[float, list[int], list[int], float, int]


def _value_tables(
    profile: BehaviorProfile, pair_ids: Mapping[tuple, int]
) -> list[_ValueTable]:
    """Per attribute kind, by name: its rate, the ``pair_ids`` index of
    each of its (kind, value) pairs, their cumulative weights, the
    weights' total as a float and the last index.
    ``ids[bisect(cum, rng.random() * total, 0, hi)]`` is line for line
    what ``rng.choices(ids, cum_weights=cum)[0]`` computes, so the RNG
    stream and every draw are those of ``rng.choices`` with the weights
    themselves."""

    tables = []
    for kind, prof in sorted(profile.attributes.items(),
                             key=lambda kv: kv[0].value):
        cum = list(accumulate(w for _, w in prof.values))
        ids = [pair_ids[(kind, v)] for v, _ in prof.values]
        tables.append((prof.rate, ids, cum, cum[-1] + 0.0, len(cum) - 1))
    return tables


def _draw_activity(
    rng: random.Random,
    buckets: defaultdict[int, list[int]],
    device: int,
    targets: int,
    pairs: int,
    tables: Sequence[_ValueTable],
    request_rate: float,
    start: int,
    window: int,
) -> None:
    """Append the emissions and requests of the ``device``-th device over
    [start, start + window), for a profile's ``_value_tables`` and
    request rate, to ``buckets``: each action's code goes to the list at
    ``3 * time + priority``. With ``row = device * max(targets, 1)``, a
    request's code is ``row + target`` (its triplet index) and an
    emission's is ``(row + target) * pairs + pair``.

    The draw order (per attribute kind by name: time, value, target;
    then requests: time, target) is what lets a seed fix the schedule.
    A time is ``rng.randrange(window)`` and a target
    ``rng.choice(range(targets))``, drawn inline as CPython (3.10 and
    later) draws both: ``getrandbits(n.bit_length())`` until the result
    is below ``n``, then that offset or index. The RNG stream is theirs.
    """

    getrandbits, random_ = rng.getrandbits, rng.random
    time_bits = window.bit_length()
    target_bits = targets.bit_length()
    row = device * max(targets, 1)
    # Emissions per kind, then requests, which draw no pair.
    streams = [(3 * start + _PRIORITY_EMIT, pairs, *table) for table in tables]
    streams.append((3 * start + _PRIORITY_REQUEST, 1, request_rate, None,
                    None, None, None))
    for base, scale, rate, pair_ids, cum, total, hi in streams:
        pair = 0
        for _ in range(round(rate * window)):
            t = getrandbits(time_bits)
            while t >= window:
                t = getrandbits(time_bits)
            if pair_ids is not None:
                pair = pair_ids[bisect(cum, random_() * total, 0, hi)]
            target = 0
            if targets:
                target = getrandbits(target_bits)
                while target >= targets:
                    target = getrandbits(target_bits)
            buckets[base + 3 * t].append((row + target) * scale + pair)


def _audit_row(
    config: ScenarioConfig, devices: frozenset[str], line: str
) -> _AuditRow:
    """One audit line as a row, for a scenario with device ids
    ``devices``. A malformed line, one timed outside the run or naming a
    device or resource outside the scenario, or one whose theta is not
    the policy's threshold for its resource raises a ValueError that
    replay prefixes with the line number."""

    obj = parse_audit_line(line)
    # Every request is drawn in [0, duration).
    if obj["ts"] >= config.duration:
        raise ReplayError(
            f"ts {obj['ts']} outside the run [0, {config.duration})")
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
    duration = config.duration
    rows = []
    for ts, (_, device_id, resource_id), verdict, _, _, theta in records:
        spec = resources.get(resource_id)
        if (ts >= duration or device_id not in devices or spec is None
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


def _schedule(
    config: ScenarioConfig, rng: random.Random
) -> dict[int, Sequence[int]]:
    """Pre-draw the whole run so replaying a config is exact.

    The schedule maps each key ``3 * time + priority`` to its actions'
    codes (see ``_draw_activity``) in draw order; a sweep's key maps to
    an empty tuple. Stepping through the keys in ascending order and
    each list in order visits the actions as a stable sort of the draws
    on (time, priority) would: sweeps, then each device's draws in
    config order, then each compromise plan's."""

    targets = len(config.policy.resources)
    pair_ids = {pair: i for i, pair in enumerate(_pair_table(config))}
    pairs = len(pair_ids)
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for t in range(0, config.duration, config.refresh_interval):
        buckets[3 * t + _PRIORITY_SWEEP] = ()
    benign = _value_tables(config.benign, pair_ids)
    for device in range(len(config.devices)):
        _draw_activity(rng, buckets, device, targets, pairs, benign,
                       config.benign.request_rate, 0, config.duration)
    index = {d.device_id: i for i, d in enumerate(config.devices)}
    for plan in config.compromises:
        _draw_activity(rng, buckets, index[plan.device_id], targets, pairs,
                       _value_tables(plan.profile, pair_ids),
                       plan.profile.request_rate, plan.start_time,
                       config.duration - plan.start_time)
    return buckets


class _Loop:
    """The engine wired for one run; ``_simulate`` steps it through its
    schedule.

    The event log is four columns with one row per event: its
    timestamp, its triplet and pair indices as the schedule numbers
    them, and its parent row (-1 for none); no event is an object. An
    event's id is its row, and its parent is its device's previous
    event when that is strictly earlier. ``hot`` indexes the same
    events by triplet for the window queries.

    Only a device's first critical alert is kept: alerts stay in force
    until the end of the run, and ``decide`` reads nothing else. With an
    ``audit`` file, each decision's audit line is written to it in
    blocks as it is decided; without one, no line is formatted.
    """

    def __init__(self, config: ScenarioConfig, quorum_client: QuorumClient,
                 audit: TextIO | None = None):
        device_ids = [d.device_id for d in config.devices]
        resource_ids = sorted(config.policy.resources)
        self.config = config
        self.quorum_client = quorum_client
        # A schedule code names its (device, resource) by triplet index:
        # device index * slots + resource index (0 with no resources).
        self.resource_ids = resource_ids or [""]
        self.slots = len(self.resource_ids)
        self.triplets: dict[int, Triplet] = {}
        self.pairs = _pair_table(config)
        # Device failure windows by device index.
        index = {device_id: i for i, device_id in enumerate(device_ids)}
        self.down: dict[int, list[FailureWindow]] = {}
        for window in config.failures:
            if window.node in index:
                self.down.setdefault(index[window.node], []).append(window)
        self.host_of = {
            rid: device_ids[i % len(device_ids)] if device_ids else ""
            for i, rid in enumerate(resource_ids)
        }
        # By pair index, the first critical rule in config.alert_rules
        # order that the pair matches, or None.
        self.critical_rule = [
            next((rule for rule in config.alert_rules
                  if rule.severity is Severity.CRITICAL
                  and rule.admits(*pair)), None)
            for pair in self.pairs
        ]
        self.hot = HotStore(None)
        self.times = array("Q")
        self.triplet_of = array("Q")
        self.pair_of = array("I")
        self.parents = array("q")
        # Each device's last event row and its time, by device index.
        self.last_row = [-1] * len(device_ids)
        self.last_time = [-1] * len(device_ids)
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
        self.critical: dict[str, ActiveAlert] = {}
        self.audit = audit
        self.audit_block: list[str] = []
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

    def triplet(self, index: int) -> Triplet:
        """Intern the one Triplet of triplet index ``index``. Callers
        look it up in ``triplets`` first and call this only on a miss."""

        device, resource = divmod(index, self.slots)
        spec = self.config.devices[device]
        triplet = self.triplets[index] = Triplet(
            user_id=spec.user_id,
            device_id=spec.device_id,
            resource_id=self.resource_ids[resource] or "none",
        )
        return triplet

    def is_down(self, index: int, t: int) -> bool:
        """Whether the device of triplet index ``index`` is down at
        ``t``; a down device neither emits nor requests."""

        windows = self.down.get(index // self.slots)
        return windows is not None and any(w.covers(t) for w in windows)

    def emit(self, t: int, index: int, pair: int) -> None:
        """Append the event of triplet index ``index`` and pair index
        ``pair`` at ``t``, and raise its device's critical alert if this
        is the device's first event a critical rule matches."""

        row = len(self.times)
        device = index // self.slots
        self.times.append(t)
        self.triplet_of.append(index)
        self.pair_of.append(pair)
        self.parents.append(
            self.last_row[device] if self.last_time[device] < t else -1)
        self.last_row[device], self.last_time[device] = row, t
        self.hot.append(row, self.triplets.get(index) or self.triplet(index),
                        self.pairs[pair], t)
        rule = self.critical_rule[pair]
        if rule is None:
            return
        device_id = self.config.devices[device].device_id
        if device_id not in self.critical:
            alert = Alert(alert_id=len(self.critical), event_id=row,
                          severity=rule.severity, rule_name=rule.rule_name)
            self.critical[device_id] = ActiveAlert(alert=alert,
                                                   device_id=device_id)

    def request(self, t: int, triplet: Triplet) -> None:
        device_id = triplet.device_id
        alert = self.critical.get(device_id)
        decision = decide(
            triplet, self.config.policy, self.score,
            () if alert is None else (alert,),
            self.quorum_client, now=t,
        )
        if self.audit is not None:
            self.audit_block.append(audit_line(t, triplet, decision))
            if len(self.audit_block) == WRITE_BLOCK_LINES:
                self.flush_audit()
        granted = decision.granted
        self.rows.append(_AuditRow(t, device_id, granted))
        host = self.host_of.get(triplet.resource_id, "")
        if not granted or self.ledger is None or not host or host == device_id:
            return
        if t >= self.compromise_starts.get(device_id, math.inf):
            self.ledger.record_unsat(host, device_id)
        else:
            self.ledger.record_sat(host, device_id)

    def flush_audit(self) -> None:
        if self.audit_block:
            write_block(self.audit, self.audit_block)
            self.audit_block.clear()

    def convergence(self) -> dict[str, object]:
        v = self.vector
        return {
            "iterations_used": None if v is None else v.iterations_used,
            "residual": None if v is None else v.residual,
            "converged": None if v is None else v.converged,
            "sweeps": self.sweeps,
        }


def _log_events(loop: _Loop, rows: Iterable[int]) -> list[EdrEvent]:
    """The events at ``rows`` of the loop's log, built from its columns."""

    triplets, pairs, parents = loop.triplets, loop.pairs, loop.parents
    return [
        EdrEvent(row, triplets[loop.triplet_of[row]],
                 *pairs[loop.pair_of[row]], loop.times[row],
                 () if parents[row] < 0 else (parents[row],))
        for row in rows
    ]


def _alert_chains(loop: _Loop, rules: Sequence[AlertRule]) -> list[EdrEvent]:
    """The events, in id order, of every device on which some rule fires.

    An event's only parent is its device's previous event, and only
    when that is strictly earlier (``_Loop.emit``), so every alert's
    ancestry lies on its own device's chain, and these events hold all
    of it. They are the only events built as objects.
    """

    fires = np.array([any(rule.admits(*pair) for rule in rules)
                      for pair in loop.pairs], dtype=bool)
    devices = np.frombuffer(loop.triplet_of, dtype=np.uint64) // loop.slots
    alerting = devices[fires[np.frombuffer(loop.pair_of, dtype=np.uint32)]]
    return _log_events(loop, np.flatnonzero(
        np.isin(devices, alerting)).tolist())


def _reduction(loop: _Loop, rules: Sequence[AlertRule]) -> dict[str, object]:
    """End-of-run archival statistics over the whole event log, built
    from the alert devices' chains; ``nodes_before`` counts every event."""

    batch = archive_batch(_alert_chains(loop, rules), rules)
    avg_len = batch.avg_code_length
    return {
        **batch.summary(nodes_before=len(loop.times)),
        "avg_code_length": None if avg_len is None else float(avg_len),
        "avg_code_length_exact": None if avg_len is None else str(avg_len),
    }


def _log_lines(loop: _Loop) -> Iterator[str]:
    """Each event of the loop's log as ``write_events`` formats it,
    formatting each triplet's and pair's text once."""

    identities = {index: identity_text(triplet)
                  for index, triplet in loop.triplets.items()}
    pairs = [pair_text(*pair) for pair in loop.pairs]
    for row, (t, triplet, pair, parent) in enumerate(
            zip(loop.times, loop.triplet_of, loop.pair_of, loop.parents)):
        yield event_line(row, identities[triplet], pairs[pair], t,
                         "" if parent < 0 else str(parent))


def _simulate(config: ScenarioConfig,
              audit: TextIO | None = None) -> tuple[_Loop, dict]:
    """Step a fresh loop through the scenario's whole schedule; return
    it with the ``access.json`` object. Audit lines go to ``audit``,
    when given.

    The schedule's keys ``3 * time + priority`` are stepped in ascending
    order. Each key's bucket is popped when its turn comes, and its
    codes are decoded and dispatched in draw order: a sweep, or each
    action to ``emit`` or ``request``, unless its device is down at that
    time."""

    rng = random.Random(config.seed)
    quorum_client, access = _deal_tokens(config, rng)
    loop = _Loop(config, quorum_client, audit)
    buckets = _schedule(config, rng)
    sweep, emit, request = loop.sweep, loop.emit, loop.request
    triplets, intern, is_down = loop.triplets, loop.triplet, loop.is_down
    width, down = len(loop.pairs), loop.down
    for key in sorted(buckets):
        t, priority = divmod(key, 3)
        codes = buckets.pop(key)
        if priority == _PRIORITY_SWEEP:
            sweep(t)
        elif priority == _PRIORITY_EMIT:
            for code in codes:
                index, pair = divmod(code, width)
                if down and is_down(index, t):
                    continue
                emit(t, index, pair)
        else:
            for index in codes:
                if down and is_down(index, t):
                    continue
                request(t, triplets.get(index) or intern(index))
    if audit is not None:
        loop.flush_audit()
    return loop, access


def run(config: ScenarioConfig, out_dir: str | Path | None = None) -> SimReport:
    """Execute a scenario; optionally write the artifact directory.

    Artifacts: ``config.json`` (canonical form), ``events.jsonl``,
    ``audit.jsonl``, ``access.json``, ``report.json``. Identical
    configurations produce byte-identical artifacts. ``audit.jsonl`` is
    written as the run decides.
    """

    if out_dir is None:
        loop, access = _simulate(config)
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "audit.jsonl", "w", encoding="utf-8") as audit:
            loop, access = _simulate(config, audit)
    report = SimReport(
        total_events=len(loop.times),
        cache_metrics=loop.cache.metrics.to_obj(),
        max_served_age=loop.cache.metrics.max_served_age,
        reduction=_reduction(loop, config.alert_rules),
        reputation_convergence=loop.convergence(),
        **_decision_summary(config, loop.rows),
    )
    if out_dir is not None:
        for name, obj in (("config.json", config_to_obj(config)),
                          ("report.json", report.to_obj()),
                          ("access.json", access)):
            (out / name).write_text(format_json(obj), encoding="utf-8")
        write_lines(out / "events.jsonl", _log_lines(loop))
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
