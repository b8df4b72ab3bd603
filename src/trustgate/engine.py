"""Per-request trust scoring and grant/deny decisions.

A request is scored by blending two signals: a behavioral score built
from the requester's recent attribute window under policy weights, and
the device's global peer reputation. The decision layer is fail
closed. A missing score denies, a critical alert on the device denies,
a score under the resource threshold denies, and high-sensitivity
resources additionally demand that a quorum of approvers rebuild the
resource's unlock token from their key shares.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .model import Alert, AttributeKind, Severity, Triplet
from .secretshare import Share, ShareError, ThresholdPolicy, reconstruct

SENSITIVITY_STANDARD = "standard"
SENSITIVITY_HIGH = "high"
SENSITIVITY_LEVELS = (SENSITIVITY_STANDARD, SENSITIVITY_HIGH)

DEFAULT_ALPHA = 0.5
DEFAULT_THRESHOLD_STANDARD = 0.5
DEFAULT_THRESHOLD_HIGH = 0.75

REASON_CRITICAL_ALERT = "critical_alert"
REASON_LOW_TRUST = "low_trust"
REASON_QUORUM_FAILED = "quorum_failed"
REASON_SCORE_UNAVAILABLE = "score_unavailable"


class PolicyError(ValueError):
    """Raised when a policy document fails validation at load time."""


class EngineError(ValueError):
    """Raised for invalid scoring inputs."""


def parse_rational(value: object) -> Fraction:
    """Exact rational from an int, a "p/q" or decimal string, or a float
    interpreted through its shortest decimal form."""

    if isinstance(value, bool):
        raise PolicyError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise PolicyError(f"not a rational: {value!r}") from None
    raise PolicyError(f"not a rational: {value!r}")


@dataclass(frozen=True)
class PiecewiseNormalizer:
    """Monotone piecewise-linear map from raw attribute values to [0, 1].

    Inputs below the first breakpoint clamp to its output; likewise
    above the last. ``default`` is the score contributed when the
    attribute is absent from the window.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    default: Fraction

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise PolicyError("normalizer needs at least one breakpoint")
        xs = [x for x, _ in self.breakpoints]
        ys = [y for _, y in self.breakpoints]
        if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise PolicyError("normalizer breakpoints must strictly increase")
        for y in [*ys, self.default]:
            if not 0 <= y <= 1:
                raise PolicyError("normalizer outputs must lie in [0, 1]")
        rising = all(y1 >= y0 for y0, y1 in zip(ys, ys[1:]))
        falling = all(y1 <= y0 for y0, y1 in zip(ys, ys[1:]))
        if not (rising or falling):
            raise PolicyError("normalizer must be monotone")

    def __call__(self, value: int | Fraction) -> Fraction:
        v = Fraction(value)
        points = self.breakpoints
        if v <= points[0][0]:
            return points[0][1]
        if v >= points[-1][0]:
            return points[-1][1]
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if x0 <= v <= x1:
                return y0 + (y1 - y0) * (v - x0) / (x1 - x0)
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class TrustPolicy:
    """Weights, normalizers, blend, thresholds, and quorum shape."""

    weights: Mapping[AttributeKind, Fraction]
    normalizers: Mapping[AttributeKind, PiecewiseNormalizer]
    alpha: float = DEFAULT_ALPHA
    resource_thresholds: Mapping[str, float] = field(default_factory=dict)
    sensitivity: Mapping[str, str] = field(default_factory=dict)
    quorum: ThresholdPolicy = field(
        default_factory=lambda: ThresholdPolicy(n=5, z=3)
    )

    def __post_init__(self) -> None:
        if not self.weights:
            raise PolicyError("policy needs at least one weighted attribute")
        for kind, weight in self.weights.items():
            if not isinstance(kind, AttributeKind):
                raise PolicyError("weights must be keyed by AttributeKind")
            if not kind.numeric:
                raise PolicyError(
                    f"weighted attribute {kind.value} must be numeric"
                )
            if weight < 0:
                raise PolicyError("weights must be non-negative")
            if kind not in self.normalizers:
                raise PolicyError(f"no normalizer for {kind.value}")
        if sum(self.weights.values(), start=Fraction(0)) != 1:
            raise PolicyError("weights must sum to 1 exactly")
        if not 0.0 <= self.alpha <= 1.0:
            raise PolicyError("alpha must lie in [0, 1]")
        for rid, theta in self.resource_thresholds.items():
            if not 0.0 <= theta <= 1.0:
                raise PolicyError(f"threshold for {rid} must lie in [0, 1]")
        for rid, level in self.sensitivity.items():
            if level not in SENSITIVITY_LEVELS:
                raise PolicyError(f"unknown sensitivity {level!r} for {rid}")

    def sensitivity_for(self, resource_id: str) -> str:
        return self.sensitivity.get(resource_id, SENSITIVITY_STANDARD)

    def threshold_for(self, resource_id: str) -> float:
        theta = self.resource_thresholds.get(resource_id)
        if theta is not None:
            return theta
        if self.sensitivity_for(resource_id) == SENSITIVITY_HIGH:
            return DEFAULT_THRESHOLD_HIGH
        return DEFAULT_THRESHOLD_STANDARD


def behavioral_score(
    window: Mapping[AttributeKind, int | str], policy: TrustPolicy
) -> float:
    """Weighted sum of normalized attribute values.

    Accumulated in exact rational arithmetic and emitted as a double.
    Attributes missing from the window contribute their normalizer's
    default.
    """

    total = Fraction(0)
    for kind in sorted(policy.weights, key=lambda k: k.value):
        weight = policy.weights[kind]
        normalizer = policy.normalizers[kind]
        if kind in window:
            value = window[kind]
            if isinstance(value, bool) or not isinstance(value, int):
                raise EngineError(
                    f"window value for {kind.value} must be an integer"
                )
            score = normalizer(value)
        else:
            score = normalizer.default
        total += weight * score
    return float(total)


def combined_score(behavioral: float, reputation: float, alpha: float) -> float:
    """Blend: alpha * behavioral + (1 - alpha) * reputation, in doubles."""

    for name, value in (("behavioral", behavioral), ("reputation", reputation),
                        ("alpha", alpha)):
        if not 0.0 <= value <= 1.0:
            raise EngineError(f"{name} must lie in [0, 1], got {value}")
    return alpha * behavioral + (1.0 - alpha) * reputation


@dataclass(frozen=True)
class TrustRecord:
    """A scored triplet at a point in simulated time."""

    triplet: Triplet
    behavioral: float
    reputation: float
    combined: float
    computed_at: int


def make_record(
    triplet: Triplet,
    behavioral: float,
    reputation: float,
    alpha: float,
    computed_at: int,
) -> TrustRecord:
    return TrustRecord(
        triplet=triplet,
        behavioral=behavioral,
        reputation=reputation,
        combined=combined_score(behavioral, reputation, alpha),
        computed_at=computed_at,
    )


# --- quorum -----------------------------------------------------------------

class Approver(Protocol):
    """A share-holding approver that answers within the simulated
    timeout or not at all."""

    def respond(self, resource_id: str, now: int) -> Share | None: ...


def token_digest(scheme_id: str, token: int) -> str:
    return hashlib.sha256(f"{scheme_id}:{token}".encode("ascii")).hexdigest()


@dataclass(frozen=True)
class QuorumClient:
    """Approvers keyed by id, plus expected token digests per resource."""

    approvers: Mapping[str, Approver]
    digests: Mapping[str, str]
    scheme_ids: Mapping[str, str]


@dataclass(frozen=True)
class QuorumOutcome:
    approver_id: str
    responded: bool


@dataclass(frozen=True)
class QuorumResult:
    token: int | None
    trace: tuple[QuorumOutcome, ...]
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.token is not None


def quorum_approve(
    resource_id: str,
    client: QuorumClient,
    policy: ThresholdPolicy,
    now: int = 0,
) -> QuorumResult:
    """Collect shares, rebuild the token, and verify its digest.

    Approvers are polled in id order; the first ``z`` collected shares
    are interpolated. Anything short of ``z`` responses, or a rebuilt
    token whose digest disagrees with the registry, fails the quorum.
    """

    expected = client.digests.get(resource_id)
    scheme_id = client.scheme_ids.get(resource_id)
    if expected is None or scheme_id is None:
        return QuorumResult(
            token=None, trace=(), failure=f"no token registered for {resource_id}"
        )
    trace: list[QuorumOutcome] = []
    shares: list[Share] = []
    for approver_id in sorted(client.approvers):
        share = client.approvers[approver_id].respond(resource_id, now)
        trace.append(
            QuorumOutcome(approver_id=approver_id, responded=share is not None)
        )
        if share is not None:
            shares.append(share)
    if len(shares) < policy.z:
        return QuorumResult(
            token=None,
            trace=tuple(trace),
            failure=f"quorum short: {len(shares)} of {policy.z} shares",
        )
    try:
        token = reconstruct(shares[: policy.z])
    except ShareError as exc:
        return QuorumResult(token=None, trace=tuple(trace), failure=str(exc))
    if token_digest(scheme_id, token) != expected:
        return QuorumResult(
            token=None, trace=tuple(trace), failure="corrupt share quorum"
        )
    return QuorumResult(token=token, trace=tuple(trace))


# --- decisions --------------------------------------------------------------

@dataclass(frozen=True)
class ActiveAlert:
    """An alert currently in force, tagged with the device it fired on."""

    alert: Alert
    device_id: str


@dataclass(frozen=True)
class Decision:
    verdict: str  # "grant" or "deny"
    reasons: tuple[str, ...]
    quorum_trace: tuple[QuorumOutcome, ...] = ()
    combined: float | None = None
    threshold: float | None = None

    @property
    def granted(self) -> bool:
        return self.verdict == "grant"


ScoreSource = Callable[[Triplet, int], TrustRecord]


def decide(
    triplet: Triplet,
    policy: TrustPolicy,
    score_source: ScoreSource,
    active_alerts: Iterable[ActiveAlert],
    quorum_client: QuorumClient | None,
    now: int = 0,
) -> Decision:
    """Grant only when every applicable gate passes.

    Denial reasons are reported in a fixed order: critical_alert,
    low_trust, quorum_failed. A score source failure short-circuits to
    a fail-closed deny with reason score_unavailable.
    """

    theta = policy.threshold_for(triplet.resource_id)
    try:
        record = score_source(triplet, now)
    except Exception:
        return Decision(
            verdict="deny",
            reasons=(REASON_SCORE_UNAVAILABLE,),
            threshold=theta,
        )
    reasons: list[str] = []
    if any(
        a.device_id == triplet.device_id
        and a.alert.severity is Severity.CRITICAL
        for a in active_alerts
    ):
        reasons.append(REASON_CRITICAL_ALERT)
    if record.combined < theta:
        reasons.append(REASON_LOW_TRUST)
    quorum_trace: tuple[QuorumOutcome, ...] = ()
    if policy.sensitivity_for(triplet.resource_id) == SENSITIVITY_HIGH:
        if quorum_client is None:
            reasons.append(REASON_QUORUM_FAILED)
        else:
            result = quorum_approve(
                triplet.resource_id, quorum_client, policy.quorum, now
            )
            quorum_trace = result.trace
            if not result:
                reasons.append(REASON_QUORUM_FAILED)
    verdict = "deny" if reasons else "grant"
    return Decision(
        verdict=verdict,
        reasons=tuple(reasons),
        quorum_trace=quorum_trace,
        combined=record.combined,
        threshold=theta,
    )


# --- audit log --------------------------------------------------------------

def audit_line(ts: int, triplet: Triplet, decision: Decision) -> str:
    """One audit record: {ts, triplet, verdict, reasons, T, theta}."""

    return json.dumps({
        "ts": ts,
        "triplet": list(triplet.as_tuple()),
        "verdict": decision.verdict,
        "reasons": list(decision.reasons),
        "T": decision.combined,
        "theta": decision.threshold,
    })


def parse_audit_line(line: str) -> dict:
    obj = json.loads(line)
    required = {"ts", "triplet", "verdict", "reasons", "T", "theta"}
    if not isinstance(obj, dict) or set(obj) != required:
        raise EngineError("malformed audit record")
    if obj["verdict"] not in ("grant", "deny"):
        raise EngineError(f"malformed audit verdict {obj['verdict']!r}")
    if not isinstance(obj["triplet"], list) or len(obj["triplet"]) != 3:
        raise EngineError("malformed audit triplet")
    return obj


# --- policy documents -------------------------------------------------------

def policy_from_obj(obj: object) -> TrustPolicy:
    if not isinstance(obj, dict):
        raise PolicyError("policy must be a JSON object")
    allowed = {"weights", "normalizers", "alpha", "thresholds",
               "sensitivity", "quorum"}
    unknown = set(obj) - allowed
    if unknown:
        raise PolicyError(f"unknown policy fields: {sorted(unknown)}")
    try:
        weights = {
            AttributeKind(name): parse_rational(value)
            for name, value in obj.get("weights", {}).items()
        }
    except ValueError as exc:
        raise PolicyError(f"bad weights: {exc}") from None
    normalizers = {}
    for name, spec in obj.get("normalizers", {}).items():
        try:
            kind = AttributeKind(name)
        except ValueError:
            raise PolicyError(f"unknown attribute kind: {name!r}") from None
        if not isinstance(spec, dict) or "breakpoints" not in spec:
            raise PolicyError(f"normalizer for {name} needs breakpoints")
        extra = set(spec) - {"breakpoints", "default"}
        if extra:
            raise PolicyError(f"unknown normalizer fields: {sorted(extra)}")
        points = tuple(
            (parse_rational(x), parse_rational(y))
            for x, y in spec["breakpoints"]
        )
        default = parse_rational(spec.get("default", points[0][1] if points else 0))
        normalizers[kind] = PiecewiseNormalizer(
            breakpoints=points, default=default
        )
    quorum_spec = obj.get("quorum", {"n": 5, "z": 3})
    if not isinstance(quorum_spec, dict) or set(quorum_spec) != {"n", "z"}:
        raise PolicyError("quorum must be an object with fields n and z")
    try:
        quorum = ThresholdPolicy(n=quorum_spec["n"], z=quorum_spec["z"])
    except ShareError as exc:
        raise PolicyError(str(exc)) from None
    return TrustPolicy(
        weights=weights,
        normalizers=normalizers,
        alpha=float(obj.get("alpha", DEFAULT_ALPHA)),
        resource_thresholds={
            rid: float(theta)
            for rid, theta in obj.get("thresholds", {}).items()
        },
        sensitivity=dict(obj.get("sensitivity", {})),
        quorum=quorum,
    )


def load_policy(path: str | Path) -> TrustPolicy:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PolicyError(f"policy is not valid JSON: {exc}") from None
    return policy_from_obj(data)


def policy_to_obj(policy: TrustPolicy) -> dict:
    return {
        "weights": {
            kind.value: str(weight) for kind, weight in
            sorted(policy.weights.items(), key=lambda kv: kv[0].value)
        },
        "normalizers": {
            kind.value: {
                "breakpoints": [[str(x), str(y)] for x, y in norm.breakpoints],
                "default": str(norm.default),
            }
            for kind, norm in sorted(
                policy.normalizers.items(), key=lambda kv: kv[0].value
            )
        },
        "alpha": policy.alpha,
        "thresholds": dict(sorted(policy.resource_thresholds.items())),
        "sensitivity": dict(sorted(policy.sensitivity.items())),
        "quorum": {"n": policy.quorum.n, "z": policy.quorum.z},
    }
