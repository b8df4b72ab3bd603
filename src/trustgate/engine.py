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
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol

from .model import (
    MAX_NUMERIC_VALUE,
    Alert,
    AttributeKind,
    Severity,
    Triplet,
    check_id,
    check_u64,
    is_int,
    load_json,
)
from .secretshare import Share, ShareError, ThresholdPolicy, reconstruct

SENSITIVITY_STANDARD = "standard"
SENSITIVITY_HIGH = "high"
SENSITIVITY_LEVELS = (SENSITIVITY_STANDARD, SENSITIVITY_HIGH)

DEFAULT_ALPHA = 0.5
DEFAULT_THRESHOLD_STANDARD = 0.5
DEFAULT_THRESHOLD_HIGH = 0.75
DEFAULT_QUORUM = ThresholdPolicy(n=5, z=3)

REASON_CRITICAL_ALERT = "critical_alert"
REASON_LOW_TRUST = "low_trust"
REASON_QUORUM_FAILED = "quorum_failed"
REASON_SCORE_UNAVAILABLE = "score_unavailable"
REASONS = (REASON_CRITICAL_ALERT, REASON_LOW_TRUST, REASON_QUORUM_FAILED,
           REASON_SCORE_UNAVAILABLE)


class PolicyError(ValueError):
    """Raised when a policy document fails validation at load time."""


class EngineError(ValueError):
    """Raised for invalid scoring inputs."""


def parse_rational(value: object) -> Fraction:
    """Exact rational from an int, a "p/q" or decimal string, or a float
    interpreted through its shortest decimal form."""

    if is_int(value):
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
    attribute is absent from the window. Calling it is the definition;
    scoring uses the same map as exact lines (``segments``).
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

    def segments(
        self, weight: Fraction
    ) -> tuple[tuple[int, ...], tuple[tuple[Fraction, Fraction], ...]]:
        """``weight * self(v)`` as exact lines ``A + B*v``, one per segment.

        Segment 0 is the clamp below the first breakpoint, the last one
        the clamp above the last breakpoint (both with ``B = 0``), and
        segment ``k`` in between runs from breakpoint ``k-1`` to ``k``.
        An integer ``v`` lies on segment ``bisect_left(cuts, v)``: the
        number of breakpoints below it, counted on their floors.
        """

        points = self.breakpoints
        lines = [(weight * points[0][1], Fraction(0))]
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            slope = weight * (y1 - y0) / (x1 - x0)
            lines.append((weight * y0 - slope * x0, slope))
        lines.append((weight * points[-1][1], Fraction(0)))
        return tuple(math.floor(x) for x, _ in points), tuple(lines)


@dataclass(frozen=True)
class ResourceSpec:
    """A registered resource: its trust bar and sensitivity level."""

    resource_id: str
    threshold: float
    sensitivity: str = SENSITIVITY_STANDARD

    def __post_init__(self) -> None:
        check_id(self.resource_id, "resource_id", PolicyError)
        if not 0.0 <= self.threshold <= 1.0:
            raise PolicyError(
                f"threshold for {self.resource_id} must lie in [0, 1]"
            )
        if self.sensitivity not in SENSITIVITY_LEVELS:
            raise PolicyError(
                f"unknown sensitivity {self.sensitivity!r} "
                f"for {self.resource_id}"
            )


# One weighted attribute of a compiled policy: its kind, the floored
# breakpoints, the (A*D, B*D) line per segment, and default*weight*D.
_ScoreTerm = tuple[
    AttributeKind, tuple[int, ...], tuple[tuple[int, int], ...], int
]


@dataclass(frozen=True)
class TrustPolicy:
    """Weights, normalizers, blend, resource registry, and quorum shape.

    ``resources`` may be given as any iterable of ``ResourceSpec``; it
    is stored as a dict keyed by resource id, in the order given.
    """

    weights: Mapping[AttributeKind, Fraction]
    normalizers: Mapping[AttributeKind, PiecewiseNormalizer]
    alpha: float = DEFAULT_ALPHA
    resources: Mapping[str, ResourceSpec] = field(default_factory=dict)
    quorum: ThresholdPolicy = DEFAULT_QUORUM

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
        specs = (
            self.resources.values() if isinstance(self.resources, Mapping)
            else tuple(self.resources)
        )
        registry = {spec.resource_id: spec for spec in specs}
        if len(registry) != len(specs):
            raise PolicyError("duplicate resource ids")
        object.__setattr__(self, "resources", registry)

    @cached_property
    def _score_table(self) -> tuple[int, tuple[_ScoreTerm, ...]]:
        """The weighted normalizers over one common denominator ``D``.

        Every segment line and every default becomes an integer
        numerator over ``D``, so ``behavioral_score`` sums ints. Built
        on first use rather than with the policy, which most policy
        objects (parsed, validated, serialised) never need.
        """

        parts = []
        for kind in sorted(self.weights, key=lambda k: k.value):
            weight = self.weights[kind]
            normalizer = self.normalizers[kind]
            cuts, lines = normalizer.segments(weight)
            parts.append((kind, cuts, lines, weight * normalizer.default))
        denominator = math.lcm(*(
            q.denominator
            for _, _, lines, default in parts
            for q in (default, *(c for line in lines for c in line))
        ))
        return denominator, tuple(
            (kind, cuts,
             tuple((int(a * denominator), int(b * denominator))
                   for a, b in lines),
             int(default * denominator))
            for kind, cuts, lines, default in parts
        )

    def sensitivity_for(self, resource_id: str) -> str:
        spec = self.resources.get(resource_id)
        return SENSITIVITY_STANDARD if spec is None else spec.sensitivity

    def threshold_for(self, resource_id: str) -> float:
        spec = self.resources.get(resource_id)
        return DEFAULT_THRESHOLD_STANDARD if spec is None else spec.threshold


_MISSING = object()


def behavioral_score(
    window: Mapping[AttributeKind, int | str], policy: TrustPolicy
) -> float:
    """Weighted sum of normalized attribute values.

    Accumulated exactly, as integer numerators over the policy's
    common denominator (``TrustPolicy._score_table``), and emitted as
    the correctly rounded double, as ``float`` of the rational sum
    would be. Attributes missing from the window contribute their
    normalizer's default.
    """

    denominator, terms = policy._score_table
    total = 0
    for kind, cuts, lines, default in terms:
        value = window.get(kind, _MISSING)
        if value is _MISSING:
            total += default
            continue
        if type(value) is not int and not is_int(value):
            raise EngineError(
                f"window value for {kind.value} must be an integer"
            )
        a, b = lines[bisect_left(cuts, value)]
        total += a + b * value
    return total / denominator


def combined_score(behavioral: float, reputation: float, alpha: float) -> float:
    """Blend: alpha * behavioral + (1 - alpha) * reputation, in doubles."""

    for name, value in (("behavioral", behavioral), ("reputation", reputation),
                        ("alpha", alpha)):
        if not 0.0 <= value <= 1.0:
            raise EngineError(f"{name} must lie in [0, 1], got {value}")
    return alpha * behavioral + (1.0 - alpha) * reputation


class TrustRecord(NamedTuple):
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
    """A record blending the scores as ``combined_score`` does."""

    # One chain: behavioral, reputation and alpha each lie in [0, 1].
    if not 0.0 <= behavioral <= 1.0 >= reputation >= 0.0 <= alpha <= 1.0:
        combined_score(behavioral, reputation, alpha)  # raises its error
    return TrustRecord(triplet, behavioral, reputation,
                       alpha * behavioral + (1.0 - alpha) * reputation,
                       computed_at)


# --- quorum -----------------------------------------------------------------

class Approver(Protocol):
    """A share-holding approver that answers within the simulated
    timeout or not at all."""

    def respond(self, resource_id: str, now: int) -> Share | None: ...


def token_digest(scheme_id: str, token: int) -> str:
    return hashlib.sha256(f"{scheme_id}:{token}".encode("ascii")).hexdigest()


# Verified share sets a QuorumClient remembers; the memo is emptied
# when it holds this many.
QUORUM_MEMO_SIZE = 256


@dataclass(frozen=True)
class QuorumClient:
    """Approvers keyed by id, plus expected token digests per resource.
    The set of approvers is fixed once the client is built."""

    approvers: Mapping[str, Approver]
    digests: Mapping[str, str]
    scheme_ids: Mapping[str, str]

    @cached_property
    def polling_order(self) -> tuple[Approver, ...]:
        """The approvers in id order."""

        return tuple(self.approvers[aid] for aid in sorted(self.approvers))

    @cached_property
    def verified(self) -> dict[tuple, QuorumResult]:
        """The outcome of each share set ``quorum_approve`` has
        interpolated, keyed by resource id, expected digest, scheme id
        and the shares themselves, so a share whose value changes is
        verified again. At most ``QUORUM_MEMO_SIZE`` entries."""

        return {}


@dataclass(frozen=True)
class QuorumResult:
    token: int | None
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

    Approvers are polled in id order, on every call; the first ``z``
    collected shares are interpolated. Anything short of ``z``
    responses, or a rebuilt token whose digest disagrees with the
    registry, fails the quorum. The client remembers the outcome of
    each share set it has verified (``QuorumClient.verified``), so the
    same shares are interpolated and hashed once.
    """

    expected = client.digests.get(resource_id)
    scheme_id = client.scheme_ids.get(resource_id)
    if expected is None or scheme_id is None:
        return QuorumResult(
            token=None, failure=f"no token registered for {resource_id}"
        )
    shares: list[Share] = []
    for approver in client.polling_order:
        share = approver.respond(resource_id, now)
        if share is not None:
            shares.append(share)
    if len(shares) < policy.z:
        return QuorumResult(
            token=None,
            failure=f"quorum short: {len(shares)} of {policy.z} shares",
        )
    chosen = shares[: policy.z]
    key = (resource_id, expected, scheme_id, *chosen)
    memo = client.verified
    result = memo.get(key)
    if result is None:
        try:
            token = reconstruct(chosen)
        except ShareError as exc:
            result = QuorumResult(token=None, failure=str(exc))
        else:
            result = (QuorumResult(token=token)
                      if token_digest(scheme_id, token) == expected
                      else QuorumResult(token=None,
                                        failure="corrupt share quorum"))
        if len(memo) >= QUORUM_MEMO_SIZE:
            memo.clear()
        memo[key] = result
    return result


# --- decisions --------------------------------------------------------------

@dataclass(frozen=True)
class ActiveAlert:
    """An alert currently in force, tagged with the device it fired on."""

    alert: Alert
    device_id: str


class Decision(NamedTuple):
    """A verdict, its denial reasons, and the score and threshold it
    compared."""

    verdict: str  # "grant" or "deny"
    reasons: tuple[str, ...]
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

    # threshold_for and sensitivity_for, from one registry lookup.
    spec = policy.resources.get(triplet.resource_id)
    if spec is None:
        theta, high = DEFAULT_THRESHOLD_STANDARD, False
    else:
        theta, high = spec.threshold, spec.sensitivity == SENSITIVITY_HIGH
    try:
        record = score_source(triplet, now)
    except Exception:
        return Decision("deny", (REASON_SCORE_UNAVAILABLE,), None, theta)
    reasons: list[str] = []
    device_id = triplet.device_id
    for a in active_alerts:
        if a.device_id == device_id and a.alert.severity is Severity.CRITICAL:
            reasons.append(REASON_CRITICAL_ALERT)
            break
    combined = record.combined
    if combined < theta:
        reasons.append(REASON_LOW_TRUST)
    if high and (quorum_client is None or not quorum_approve(
            triplet.resource_id, quorum_client, policy.quorum, now)):
        reasons.append(REASON_QUORUM_FAILED)
    if reasons:
        return Decision("deny", tuple(reasons), combined, theta)
    return Decision("grant", (), combined, theta)


# --- audit log --------------------------------------------------------------

_int_repr = int.__repr__
_float_repr = float.__repr__
_INF = math.inf


def _json_number(value: float | None) -> str:
    """``json.dumps`` of a score: ``null``, ``float.__repr__`` for a
    finite float (as the encoder formats float subclasses too), and
    ``json.dumps`` itself for anything else."""

    if value is None:
        return "null"
    if isinstance(value, float) and -math.inf < value < math.inf:
        return _float_repr(value)
    return json.dumps(value)


def audit_line(ts: int, triplet: Triplet, decision: Decision) -> str:
    """One audit record: {ts, triplet, verdict, reasons, T, theta}, byte
    for byte ``json.dumps`` of that dict."""

    quoted = encode_basestring_ascii
    # _json_number, inline for the finite floats a decision's score and
    # threshold are.
    score, theta = decision.combined, decision.threshold
    score = (_float_repr(score) if type(score) is float
             and -_INF < score < _INF else _json_number(score))
    theta = (_float_repr(theta) if type(theta) is float
             and -_INF < theta < _INF else _json_number(theta))
    return (
        f'{{"ts": {_int_repr(ts)}, '
        f'"triplet": [{", ".join(map(quoted, triplet))}], '
        f'"verdict": {quoted(decision.verdict)}, '
        f'"reasons": [{", ".join(map(quoted, decision.reasons))}], '
        f'"T": {score}, "theta": {theta}}}'
    )


def _is_number(value: object) -> bool:
    return is_int(value) or isinstance(value, float)


_AUDIT_FIELDS = frozenset(("ts", "triplet", "verdict", "reasons", "T", "theta"))


def _audit_fault(verdict: str, reasons: list[str] | tuple[str, ...],
                 score: object, theta: object) -> str | None:
    """Why an audit record's verdict does not follow from its known
    ``reasons``, or its reasons from ``T`` and ``theta``, as ``decide``
    derives them; None when they agree. A float, the common case, is
    taken for a number without a call."""

    if (verdict == "grant") == bool(reasons):
        return f"audit verdict {verdict} disagrees with reasons {reasons!r}"
    if type(theta) is not float and not _is_number(theta):
        return f"malformed audit theta {theta!r}"
    unavailable = len(reasons) == 1 and reasons[0] == REASON_SCORE_UNAVAILABLE
    if (score is None) != unavailable:
        return f"audit T {score!r} disagrees with reasons {reasons!r}"
    if score is not None:
        if type(score) is not float and not _is_number(score):
            return f"malformed audit T {score!r}"
        if (REASON_LOW_TRUST in reasons) != (score < theta):
            return (f"audit T {score!r} against theta {theta!r} disagrees "
                    f"with reasons {reasons!r}")
    return None


def parse_audit_line(line: str) -> dict:
    """Parse one audit record and check that its verdict follows from
    its reasons, and its reasons from ``T`` and ``theta``, as ``decide``
    derives them."""

    obj = json.loads(line)
    if not isinstance(obj, dict) or obj.keys() != _AUDIT_FIELDS:
        raise EngineError("malformed audit record")
    check_u64(obj["ts"], "ts", EngineError)
    if obj["verdict"] not in ("grant", "deny"):
        raise EngineError(f"malformed audit verdict {obj['verdict']!r}")
    if not isinstance(obj["triplet"], list) or len(obj["triplet"]) != 3:
        raise EngineError("malformed audit triplet")
    reasons = obj["reasons"]
    if not isinstance(reasons, list) or any(r not in REASONS for r in reasons):
        raise EngineError(f"malformed audit reasons {reasons!r}")
    fault = _audit_fault(obj["verdict"], reasons, obj["T"], obj["theta"])
    if fault is not None:
        raise EngineError(fault)
    return obj


# The layout audit_line writes, as a whole line of ASCII text: strings
# with no quote, escape or control character, a ts of at most 20 digits
# with no sign or leading zero, a known verdict and known reasons, and T
# (or null) and theta as JSON numbers with a fraction or an exponent,
# which json.loads reads as floats. The groups are ts, the triplet's
# three strings, the verdict-and-reasons run, T and theta. A match spans
# one line from its start to its end, so a chunk with as many matches
# as lines has every line in this layout.
_AUDIT_STR = r'"([^"\\\x00-\x1f]*)"'
_AUDIT_FLOAT = (r"-?(?:0|[1-9][0-9]*)"
                r"(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")
_AUDIT_REASON = '"(?:' + "|".join(REASONS) + ')"'
_AUDIT_LINE = re.compile(
    r'(?m)^\{"ts": (0|[1-9][0-9]{0,19}), '
    r'"triplet": \[' + _AUDIT_STR + ", " + _AUDIT_STR + ", " + _AUDIT_STR
    + r'\], ("verdict": "(?:grant|deny)", "reasons": \[(?:'
    + _AUDIT_REASON + "(?:, " + _AUDIT_REASON + r')*)?\]), '
    r'"T": (null|' + _AUDIT_FLOAT + r'), "theta": (' + _AUDIT_FLOAT + r')\}'
    r"(?:\r?\n|\r?\Z)"
)

# One scanned audit record: ts, the triplet's (user, device, resource),
# verdict, reasons, T and theta, in the order audit_line writes them.
AuditRecord = tuple[int, tuple[str, str, str], str, tuple[str, ...],
                    float | None, float]


def scan_audit_lines(lines: list[bytes]) -> list[AuditRecord] | None:
    """The records of a chunk of audit lines, read by one regular
    expression scan, when every line is in ``audit_line``'s layout and
    passes ``parse_audit_line``'s checks; None otherwise.

    It never raises: a chunk it refuses is left to ``parse_audit_line``,
    whose message names the fault. Each record reads as the values
    ``parse_audit_line`` gives for that line.
    """

    try:
        text = b"".join(lines).decode("ascii")
    except UnicodeDecodeError:
        return None
    found = _AUDIT_LINE.findall(text)
    if len(found) != len(lines):
        return None
    decisions: dict[str, tuple[str, tuple[str, ...]]] = {}
    records = []
    append = records.append
    for ts, user, device, resource, run, score, theta in found:
        decision = decisions.get(run)
        if decision is None:
            # In '"verdict": "deny", "reasons": ["a", "b"]' the verdict
            # is the 4th quote-separated part and the reasons every
            # other part from the 8th.
            parts = run.split('"')
            decision = decisions[run] = (parts[3], tuple(parts[7::2]))
        verdict, reasons = decision
        score = None if score == "null" else float(score)
        theta = float(theta)
        ts = int(ts)
        if (ts > MAX_NUMERIC_VALUE
                or _audit_fault(verdict, reasons, score, theta) is not None):
            return None
        append((ts, (user, device, resource), verdict, reasons, score, theta))
    return records


# --- policy documents -------------------------------------------------------

def policy_from_obj(obj: object) -> TrustPolicy:
    """Parse a policy document; any malformed part raises PolicyError."""

    try:
        return _policy_from_obj(obj)
    except PolicyError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
        raise PolicyError(f"malformed policy: {exc}") from None


def _policy_from_obj(obj: object) -> TrustPolicy:
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
        default = (
            parse_rational(spec["default"]) if "default" in spec
            else points[0][1] if points else Fraction(0)
        )
        normalizers[kind] = PiecewiseNormalizer(
            breakpoints=points, default=default
        )
    quorum = DEFAULT_QUORUM
    if "quorum" in obj:
        spec = obj["quorum"]
        if not isinstance(spec, dict) or set(spec) != {"n", "z"}:
            raise PolicyError("quorum must be an object with fields n and z")
        quorum = ThresholdPolicy(n=spec["n"], z=spec["z"])
    thresholds = obj.get("thresholds", {})
    sensitivity = obj.get("sensitivity", {})
    if not isinstance(thresholds, dict) or not isinstance(sensitivity, dict):
        raise PolicyError("thresholds and sensitivity must be JSON objects")
    resources = []
    for rid in {**thresholds, **sensitivity}:
        level = sensitivity.get(rid, SENSITIVITY_STANDARD)
        default = (DEFAULT_THRESHOLD_HIGH if level == SENSITIVITY_HIGH
                   else DEFAULT_THRESHOLD_STANDARD)
        resources.append(
            ResourceSpec(rid, float(thresholds.get(rid, default)), level)
        )
    return TrustPolicy(
        weights=weights,
        normalizers=normalizers,
        alpha=float(obj.get("alpha", DEFAULT_ALPHA)),
        resources=resources,
        quorum=quorum,
    )


def load_policy(path: str | Path) -> TrustPolicy:
    return policy_from_obj(load_json(path, "policy", PolicyError))


def policy_to_obj(policy: TrustPolicy) -> dict:
    resources = [policy.resources[rid] for rid in sorted(policy.resources)]
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
        "thresholds": {r.resource_id: r.threshold for r in resources},
        "sensitivity": {
            r.resource_id: r.sensitivity for r in resources
            if r.sensitivity != SENSITIVITY_STANDARD
        },
        "quorum": {"n": policy.quorum.n, "z": policy.quorum.z},
    }
