"""Scoring exactness, quorum unlocking, and fail-closed decisions."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from trustgate.engine import (
    DEFAULT_QUORUM,
    QUORUM_MEMO_SIZE,
    ActiveAlert,
    Decision,
    EngineError,
    PiecewiseNormalizer,
    PolicyError,
    QuorumClient,
    ResourceSpec,
    TrustPolicy,
    audit_line,
    behavioral_score,
    combined_score,
    decide,
    make_record,
    parse_audit_line,
    parse_rational,
    policy_from_obj,
    policy_to_obj,
    scan_audit_lines,
    quorum_approve,
    token_digest,
)
from trustgate.model import (
    MAX_NUMERIC_VALUE,
    Alert,
    AttributeKind,
    Severity,
    Triplet,
)
from trustgate.simnet import default_policy, reference_scenario
from trustgate.secretshare import (
    FieldParams,
    Share,
    ThresholdPolicy,
    reconstruct,
    split,
)

from test_simnet import FUZZ_VALUES, json_leaves

TRIPLET = Triplet("user-1", "dev-1", "res-std")
HIGH_TRIPLET = Triplet("user-1", "dev-1", "res-high")


def fr(text: str) -> Fraction:
    return Fraction(text)


def simple_policy(**overrides) -> TrustPolicy:
    io = AttributeKind.IO_OPERATION_COUNT
    sys_ = AttributeKind.SYSTEM_CALL_COUNT
    defaults = dict(
        weights={io: fr("3/10"), sys_: fr("7/10")},
        normalizers={
            io: PiecewiseNormalizer(
                breakpoints=((Fraction(0), Fraction(1)),
                             (Fraction(10), Fraction(0))),
                default=Fraction(1),
            ),
            sys_: PiecewiseNormalizer(
                breakpoints=((Fraction(0), Fraction(1)),
                             (Fraction(100), Fraction(0))),
                default=Fraction(1),
            ),
        },
        resources=(ResourceSpec("res-high", 0.75, "high"),),
        quorum=ThresholdPolicy(n=5, z=3),
    )
    defaults.update(overrides)
    return TrustPolicy(**defaults)


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational(1) == 1
        assert parse_rational("3/10") == Fraction(3, 10)
        assert parse_rational("0.3") == Fraction(3, 10)
        assert parse_rational(0.5) == Fraction(1, 2)
        # Floats go through their shortest decimal form, so 0.3 is
        # exactly 3/10 rather than its binary approximation.
        assert parse_rational(0.3) == Fraction(3, 10)

    def test_rejected_forms(self):
        for bad in (True, None, "abc", "1/0", [1]):
            with pytest.raises(PolicyError):
                parse_rational(bad)


class TestPiecewiseNormalizer:
    def test_interpolates_exactly(self):
        norm = PiecewiseNormalizer(
            breakpoints=((Fraction(0), Fraction(1)),
                         (Fraction(10), Fraction(0))),
            default=Fraction(1),
        )
        assert norm(5) == Fraction(1, 2)
        assert norm(3) == Fraction(7, 10)
        assert norm(7) == Fraction(3, 10)

    def test_clamps_outside_range(self):
        norm = PiecewiseNormalizer(
            breakpoints=((Fraction(2), Fraction(9, 10)),
                         (Fraction(4), Fraction(1, 10))),
            default=Fraction(1),
        )
        assert norm(0) == Fraction(9, 10)
        assert norm(100) == Fraction(1, 10)

    def test_rising_direction_allowed(self):
        norm = PiecewiseNormalizer(
            breakpoints=((Fraction(0), Fraction(0)),
                         (Fraction(10), Fraction(1))),
            default=Fraction(0),
        )
        assert norm(5) == Fraction(1, 2)

    def test_non_monotone_rejected(self):
        with pytest.raises(PolicyError):
            PiecewiseNormalizer(
                breakpoints=((Fraction(0), Fraction(0)),
                             (Fraction(5), Fraction(1)),
                             (Fraction(10), Fraction(0))),
                default=Fraction(0),
            )

    def test_non_increasing_xs_rejected(self):
        with pytest.raises(PolicyError):
            PiecewiseNormalizer(
                breakpoints=((Fraction(5), Fraction(0)),
                             (Fraction(5), Fraction(1))),
                default=Fraction(0),
            )

    def test_outputs_outside_unit_interval_rejected(self):
        with pytest.raises(PolicyError):
            PiecewiseNormalizer(
                breakpoints=((Fraction(0), Fraction(2)),),
                default=Fraction(0),
            )


class TestBehavioralScore:
    def test_exact_hand_computed_value(self):
        policy = simple_policy()
        window = {
            AttributeKind.IO_OPERATION_COUNT: 5,     # -> 1/2
            AttributeKind.SYSTEM_CALL_COUNT: 25,     # -> 3/4
        }
        # 3/10 * 1/2 + 7/10 * 3/4 = 3/20 + 21/40 = 27/40
        assert behavioral_score(window, policy) == float(Fraction(27, 40))

    def test_missing_attribute_uses_default(self):
        policy = simple_policy()
        window = {AttributeKind.IO_OPERATION_COUNT: 10}   # -> 0
        # 3/10 * 0 + 7/10 * 1 (default) = 7/10
        assert behavioral_score(window, policy) == float(Fraction(7, 10))

    def test_bit_for_bit_reproducible(self):
        policy = simple_policy()
        rng = random.Random(3)
        for _ in range(200):
            window = {
                AttributeKind.IO_OPERATION_COUNT: rng.randrange(0, 20),
                AttributeKind.SYSTEM_CALL_COUNT: rng.randrange(0, 200),
            }
            a = behavioral_score(window, policy)
            b = behavioral_score(dict(reversed(window.items())), policy)
            assert a == b       # dict order cannot matter

    def test_result_in_unit_interval(self):
        policy = simple_policy()
        rng = random.Random(4)
        for _ in range(200):
            window = {
                AttributeKind.IO_OPERATION_COUNT: rng.randrange(0, 1000),
            }
            assert 0.0 <= behavioral_score(window, policy) <= 1.0

    def test_non_integer_window_value_rejected(self):
        with pytest.raises(EngineError):
            behavioral_score(
                {AttributeKind.IO_OPERATION_COUNT: True}, simple_policy()
            )


def exact_score(window, policy: TrustPolicy) -> float:
    """The score straight from the definition, in Fractions."""

    total = Fraction(0)
    for kind, weight in policy.weights.items():
        normalizer = policy.normalizers[kind]
        total += weight * (
            normalizer(window[kind]) if kind in window else normalizer.default
        )
    return float(total)


def fractional_policy() -> TrustPolicy:
    """Weights and breakpoints whose common denominator is not a power
    of ten, with breakpoints between integers and two sharing a floor."""

    return policy_from_obj({
        "weights": {
            "io_operation_count": "1/3",
            "system_call_count": "1/7",
            "privilege_escalation_attempts": "11/21",
        },
        "normalizers": {
            "io_operation_count": {
                "breakpoints": [[-3, 1], ["5/2", "2/3"], [7, "1/9"],
                                ["31/3", 0]],
                "default": "5/7",
            },
            "system_call_count": {
                "breakpoints": [[0, "1/11"], ["7/3", "3/13"], [40, 1]],
                "default": "1/2",
            },
            "privilege_escalation_attempts": {
                "breakpoints": [["1/2", 1], ["3/4", "1/3"], ["5/4", "1/7"]],
                "default": "2/5",
            },
        },
    })


def probe_values(policy: TrustPolicy, kind: AttributeKind) -> list[int]:
    """Integers on, next to, below and above every breakpoint."""

    xs = [x for x, _ in policy.normalizers[kind].breakpoints]
    values = {-1, -7, 0, math.floor(xs[0]) - 100, math.ceil(xs[-1]) + 100,
              2**64 - 1}
    for x in xs:
        values.update(range(math.floor(x) - 1, math.ceil(x) + 2))
    return sorted(values)


@pytest.mark.parametrize("make_policy", [default_policy, fractional_policy])
class TestBehavioralScoreExactness:
    def test_every_probe_value_alone(self, make_policy):
        policy = make_policy()
        for kind in policy.weights:
            for value in probe_values(policy, kind):
                window = {kind: value}
                assert behavioral_score(window, policy) == exact_score(
                    window, policy
                ), (kind, value)

    def test_randomized_windows(self, make_policy):
        policy = make_policy()
        kinds = sorted(policy.weights, key=lambda k: k.value)
        rng = random.Random(17)
        for _ in range(3000):
            window = {
                AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID: "net-1",
                AttributeKind.FUNCTION_CALL_COUNT: rng.randrange(-5, 50),
            }
            for kind in kinds:
                roll = rng.random()
                if roll < 0.2:
                    continue        # missing: the default applies
                probes = probe_values(policy, kind)
                window[kind] = (
                    rng.choice(probes) if roll < 0.6
                    else rng.randrange(probes[1] - 20, probes[-2] + 20)
                )
            assert behavioral_score(window, policy) == exact_score(
                window, policy
            ), window

    def test_empty_window_scores_the_defaults(self, make_policy):
        policy = make_policy()
        assert behavioral_score({}, policy) == exact_score({}, policy)

    @pytest.mark.parametrize("bad", [True, False, "7", None, 2.0])
    def test_non_integer_values_rejected(self, make_policy, bad):
        policy = make_policy()
        for kind in policy.weights:
            with pytest.raises(EngineError, match=kind.value):
                behavioral_score({kind: bad}, policy)

    def test_table_is_built_on_first_score_only(self, make_policy):
        policy = make_policy()
        assert "_score_table" not in vars(policy)
        behavioral_score({}, policy)
        assert "_score_table" in vars(policy)


class TestCombinedScore:
    def test_blend(self):
        assert combined_score(1.0, 0.0, 0.5) == 0.5
        assert combined_score(0.8, 0.4, 1.0) == 0.8
        assert combined_score(0.8, 0.4, 0.0) == 0.4

    def test_range_validation(self):
        with pytest.raises(EngineError):
            combined_score(1.5, 0.5, 0.5)
        with pytest.raises(EngineError):
            combined_score(0.5, -0.1, 0.5)
        with pytest.raises(EngineError):
            combined_score(0.5, 0.5, 2.0)


class TestPolicyValidation:
    def test_weights_must_sum_to_one_exactly(self):
        io = AttributeKind.IO_OPERATION_COUNT
        sys_ = AttributeKind.SYSTEM_CALL_COUNT
        with pytest.raises(PolicyError, match="sum to 1"):
            simple_policy(weights={io: fr("0.3"), sys_: fr("0.6")})

    def test_float_summation_trap_is_caught(self):
        # 0.1 + 0.2 + 0.7 in doubles is not 1.0, but in rationals it is:
        # the exact representation must accept it.
        io = AttributeKind.IO_OPERATION_COUNT
        sys_ = AttributeKind.SYSTEM_CALL_COUNT
        fn = AttributeKind.FUNCTION_CALL_COUNT
        norm = PiecewiseNormalizer(
            breakpoints=((Fraction(0), Fraction(1)),), default=Fraction(1)
        )
        policy = TrustPolicy(
            weights={io: fr("0.1"), sys_: fr("0.2"), fn: fr("0.7")},
            normalizers={io: norm, sys_: norm, fn: norm},
        )
        assert sum(policy.weights.values()) == 1

    def test_weighted_attribute_needs_normalizer(self):
        io = AttributeKind.IO_OPERATION_COUNT
        with pytest.raises(PolicyError, match="normalizer"):
            TrustPolicy(weights={io: Fraction(1)}, normalizers={})

    def test_categorical_weight_rejected(self):
        cat = AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID
        norm = PiecewiseNormalizer(
            breakpoints=((Fraction(0), Fraction(1)),), default=Fraction(1)
        )
        with pytest.raises(PolicyError, match="numeric"):
            TrustPolicy(weights={cat: Fraction(1)}, normalizers={cat: norm})

    def test_threshold_defaults(self):
        policy = simple_policy()
        assert policy.threshold_for("res-std") == 0.5
        assert policy.threshold_for("res-high") == 0.75
        explicit = simple_policy(resources=(ResourceSpec("res-std", 0.9),))
        assert explicit.threshold_for("res-std") == 0.9


def make_quorum(n: int = 5, z: int = 3, down: frozenset[str] = frozenset(),
                tamper: frozenset[str] = frozenset()):
    """A quorum client over one resource with controllable approvers."""

    field = FieldParams()
    rng = random.Random(1000 + n * 10 + z)
    token = rng.randrange(field.prime)
    shares = split(token, ThresholdPolicy(n=n, z=z), field, rng)
    scheme_id = shares[0].scheme_id

    class FakeApprover:
        def __init__(self, approver_id: str, share: Share):
            self.approver_id = approver_id
            self.share = share

        def respond(self, resource_id: str, now: int):
            if self.approver_id in down:
                return None
            if self.approver_id in tamper:
                return Share(
                    x=self.share.x, y=(self.share.y + 1) % self.share.prime,
                    scheme_id=self.share.scheme_id, prime=self.share.prime,
                    n=self.share.n, z=self.share.z,
                )
            return self.share

    approvers = {
        f"approver-{i}": FakeApprover(f"approver-{i}", share)
        for i, share in enumerate(shares, start=1)
    }
    client = QuorumClient(
        approvers=approvers,
        digests={"res-high": token_digest(scheme_id, token)},
        scheme_ids={"res-high": scheme_id},
    )
    return client, token


class TestQuorum:
    def test_all_up_reconstructs_token(self):
        client, token = make_quorum()
        result = quorum_approve("res-high", client, ThresholdPolicy(5, 3))
        assert result
        assert result.token == token
        assert result.failure is None

    def test_every_failure_subset_up_to_n(self):
        # Exhaustive: the quorum succeeds exactly when at least z
        # approvers respond.
        ids = [f"approver-{i}" for i in range(1, 6)]
        for r in range(6):
            for downset in itertools.combinations(ids, r):
                client, token = make_quorum(down=frozenset(downset))
                result = quorum_approve(
                    "res-high", client, ThresholdPolicy(5, 3)
                )
                expected_up = 5 - r
                if expected_up >= 3:
                    assert result, downset
                    assert result.token == token
                else:
                    assert not result, downset
                    assert "quorum short" in result.failure

    def test_tampered_share_in_first_z_fails_closed(self):
        client, _ = make_quorum(tamper=frozenset({"approver-1"}))
        result = quorum_approve("res-high", client, ThresholdPolicy(5, 3))
        assert not result
        assert result.failure == "corrupt share quorum"

    def test_tampered_share_outside_first_z_is_unused(self):
        client, token = make_quorum(tamper=frozenset({"approver-5"}))
        result = quorum_approve("res-high", client, ThresholdPolicy(5, 3))
        assert result
        assert result.token == token

    def test_unregistered_resource_fails(self):
        client, _ = make_quorum()
        result = quorum_approve("res-other", client, ThresholdPolicy(5, 3))
        assert not result
        assert "no token registered" in result.failure

    def test_composite_prime_shares_fail_without_raising(self):
        # (1, 7) and (4, 13) lie on 5 + 2x mod 15; 4 - 1 = 3 divides 15.
        class Fixed:
            def __init__(self, share: Share):
                self.share = share

            def respond(self, resource_id: str, now: int):
                return self.share

        client = QuorumClient(
            approvers={
                f"approver-{x}": Fixed(
                    Share(x=x, y=y, scheme_id="c0ffee", prime=15, n=2, z=2)
                )
                for x, y in ((1, 7), (4, 13))
            },
            digests={"res-high": token_digest("c0ffee", 5)},
            scheme_ids={"res-high": "c0ffee"},
        )
        result = quorum_approve("res-high", client, ThresholdPolicy(2, 2))
        assert not result
        assert result.token is None
        assert result.failure == "15 is not prime"


class ScriptedApprover:
    """An approver whose answer a test sets before each call: its share,
    a tampered share (``y`` shifted by ``offset``), or nothing. It counts
    its polls."""

    def __init__(self, share: Share):
        self.share = share
        self.mode = "honest"
        self.offset = 1
        self.polls = 0

    def respond(self, resource_id: str, now: int):
        self.polls += 1
        if self.mode == "down":
            return None
        if self.mode == "tamper":
            return Share(x=self.share.x,
                         y=(self.share.y + self.offset) % self.share.prime,
                         scheme_id=self.share.scheme_id,
                         prime=self.share.prime, n=self.share.n,
                         z=self.share.z)
        return self.share


def scripted_quorum(n: int, z: int, seed: int):
    """Scripted approvers over one dealt token, the client's registry
    maps, and the token."""

    field = FieldParams()
    rng = random.Random(seed)
    token = rng.randrange(field.prime)
    shares = split(token, ThresholdPolicy(n=n, z=z), field, rng)
    scheme_id = shares[0].scheme_id
    approvers = {f"approver-{i}": ScriptedApprover(share)
                 for i, share in enumerate(shares, start=1)}
    return (approvers, {"res-high": token_digest(scheme_id, token)},
            {"res-high": scheme_id}, token)


class TestQuorumMemo:
    @pytest.mark.parametrize("n, z, seed", [(5, 3, 1), (4, 2, 2), (7, 4, 3),
                                            (3, 3, 4)])
    def test_memo_matches_a_fresh_client(self, n, z, seed):
        # One client answers every call; a client built afresh, with an
        # empty memo, answers the same polls. approver-1 alternates
        # between its share and a tampered one; the others are drawn up,
        # down or tampered at random.
        approvers, digests, scheme_ids, token = scripted_quorum(n, z, seed)
        client = QuorumClient(approvers, digests, scheme_ids)
        policy = ThresholdPolicy(n, z)
        rng = random.Random(seed)
        outcomes = set()
        for call in range(400):
            for approver in approvers.values():
                approver.mode = rng.choices(
                    ("honest", "down", "tamper"), (6, 2, 1))[0]
                approver.offset = rng.randrange(1, 3)
            approvers["approver-1"].mode = ("honest", "tamper")[call % 2]
            memo = quorum_approve("res-high", client, policy, call)
            fresh = quorum_approve(
                "res-high", QuorumClient(approvers, digests, scheme_ids),
                policy, call)
            assert memo == fresh
            assert memo.token in (None, token)
            outcomes.add(memo.failure if memo.failure is None
                         else memo.failure.split(":")[0])
        assert outcomes == {None, "corrupt share quorum", "quorum short"}

    def test_every_approver_polled_and_each_share_set_verified_once(
            self, monkeypatch):
        approvers, digests, scheme_ids, token = scripted_quorum(5, 3, 7)
        client = QuorumClient(approvers, digests, scheme_ids)
        interpolations = []

        def counting(shares):
            interpolations.append(tuple(shares))
            return reconstruct(shares)

        monkeypatch.setattr("trustgate.engine.reconstruct", counting)
        for call in range(1, 31):
            # Calls 11-20 interpolate approvers 1, 3 and 4.
            down = 10 < call <= 20
            approvers["approver-2"].mode = "down" if down else "honest"
            result = quorum_approve("res-high", client, ThresholdPolicy(5, 3))
            assert result.token == token
            assert [a.polls for a in approvers.values()] == [call] * 5
        assert len(interpolations) == 2
        assert len(client.verified) == 2

    def test_memo_stays_bounded(self):
        approvers, digests, scheme_ids, _ = scripted_quorum(5, 3, 9)
        client = QuorumClient(approvers, digests, scheme_ids)
        approvers["approver-1"].mode = "tamper"
        sizes = []
        for offset in range(1, 2 * QUORUM_MEMO_SIZE + 10):
            approvers["approver-1"].offset = offset
            result = quorum_approve("res-high", client, ThresholdPolicy(5, 3))
            assert result.failure == "corrupt share quorum"
            sizes.append(len(client.verified))
        assert max(sizes) == QUORUM_MEMO_SIZE
        assert sizes[-1] < QUORUM_MEMO_SIZE


def passing_source(triplet: Triplet, now: int):
    return make_record(triplet, 1.0, 1.0, 0.5, now)


def failing_source(triplet: Triplet, now: int):
    return make_record(triplet, 0.2, 0.2, 0.5, now)


class TestDecide:
    def test_grant_path(self):
        policy = simple_policy()
        decision = decide(TRIPLET, policy, passing_source, [], None)
        assert decision.granted
        assert decision.reasons == ()
        assert decision.combined == 1.0

    def test_low_trust_denies(self):
        policy = simple_policy()
        decision = decide(TRIPLET, policy, failing_source, [], None)
        assert not decision.granted
        assert decision.reasons == ("low_trust",)

    def test_score_equal_to_threshold_grants(self):
        policy = simple_policy(resources=(ResourceSpec("res-std", 0.5),))

        def exactly_half(triplet, now):
            return make_record(triplet, 0.5, 0.5, 0.5, now)

        decision = decide(TRIPLET, policy, exactly_half, [], None)
        assert decision.granted

    def test_critical_alert_on_device_denies(self):
        policy = simple_policy()
        alert = ActiveAlert(
            alert=Alert(alert_id=0, event_id=0, severity=Severity.CRITICAL,
                        rule_name="r"),
            device_id=TRIPLET.device_id,
        )
        decision = decide(TRIPLET, policy, passing_source, [alert], None)
        assert decision.reasons == ("critical_alert",)

    def test_critical_alert_on_other_device_ignored(self):
        policy = simple_policy()
        alert = ActiveAlert(
            alert=Alert(alert_id=0, event_id=0, severity=Severity.CRITICAL,
                        rule_name="r"),
            device_id="some-other-device",
        )
        decision = decide(TRIPLET, policy, passing_source, [alert], None)
        assert decision.granted

    def test_non_critical_alert_does_not_deny(self):
        policy = simple_policy()
        alert = ActiveAlert(
            alert=Alert(alert_id=0, event_id=0, severity=Severity.HIGH,
                        rule_name="r"),
            device_id=TRIPLET.device_id,
        )
        decision = decide(TRIPLET, policy, passing_source, [alert], None)
        assert decision.granted

    def test_score_source_failure_fails_closed(self):
        policy = simple_policy()

        def broken(triplet, now):
            raise RuntimeError("backend down")

        decision = decide(TRIPLET, policy, broken, [], None)
        assert not decision.granted
        assert decision.reasons == ("score_unavailable",)
        assert decision.combined is None

    def test_high_sensitivity_without_quorum_client_denies(self):
        policy = simple_policy()
        decision = decide(HIGH_TRIPLET, policy, passing_source, [], None)
        assert not decision.granted
        assert decision.reasons == ("quorum_failed",)

    def test_high_sensitivity_with_quorum_grants(self):
        policy = simple_policy()
        client, _ = make_quorum()
        decision = decide(HIGH_TRIPLET, policy, passing_source, [], client)
        assert decision.granted
        assert decision.reasons == ()
        client, _ = make_quorum(down=frozenset({"approver-1", "approver-2",
                                                "approver-3"}))
        decision = decide(HIGH_TRIPLET, policy, passing_source, [], client)
        assert not decision.granted
        assert decision.reasons == ("quorum_failed",)

    def test_standard_resource_never_consults_quorum(self):
        policy = simple_policy()
        client, _ = make_quorum(down=frozenset(
            {f"approver-{i}" for i in range(1, 6)}
        ))
        decision = decide(TRIPLET, policy, passing_source, [], client)
        assert decision.granted
        assert decision.reasons == ()

    def test_reason_order_is_fixed(self):
        policy = simple_policy()
        alert = ActiveAlert(
            alert=Alert(alert_id=0, event_id=0, severity=Severity.CRITICAL,
                        rule_name="r"),
            device_id=HIGH_TRIPLET.device_id,
        )
        decision = decide(HIGH_TRIPLET, policy, failing_source, [alert], None)
        assert decision.reasons == (
            "critical_alert", "low_trust", "quorum_failed",
        )

    def test_one_shot_alert_stream_gives_one_critical_reason(self):
        policy = simple_policy()

        def alert(severity: Severity, device_id: str) -> ActiveAlert:
            return ActiveAlert(
                alert=Alert(alert_id=0, event_id=0, severity=severity,
                            rule_name="r"),
                device_id=device_id,
            )

        alerts = (a for a in (
            alert(Severity.HIGH, HIGH_TRIPLET.device_id),
            alert(Severity.CRITICAL, "some-other-device"),
            alert(Severity.CRITICAL, HIGH_TRIPLET.device_id),
            alert(Severity.CRITICAL, HIGH_TRIPLET.device_id),
        ))
        decision = decide(HIGH_TRIPLET, policy, failing_source, alerts, None)
        assert decision.reasons == (
            "critical_alert", "low_trust", "quorum_failed",
        )


def dict_audit_line(ts, triplet, decision) -> str:
    """The audit line as json.dumps of its dict, the format's definition."""

    return json.dumps({
        "ts": ts,
        "triplet": list(triplet),
        "verdict": decision.verdict,
        "reasons": list(decision.reasons),
        "T": decision.combined,
        "theta": decision.threshold,
    })


AUDIT_LINE_CASES = [
    ("score_unavailable", 7, TRIPLET,
     Decision("deny", ("score_unavailable",), None, 0.5)),
    ("grant", 99, TRIPLET, Decision("grant", (), 0.8374999999999999, 0.5)),
    ("multi_reason_deny", 3600, HIGH_TRIPLET,
     Decision("deny", ("critical_alert", "low_trust", "quorum_failed"),
              0.123456789, 0.75)),
    ("escaped_ids", 0, Triplet('us"er', "dev\\1", "r\u00e9s-\u2603"),
     Decision("grant", (), 1.0, 0.5)),
    ("theta_zero", 1, TRIPLET, Decision("grant", (), 0.0, 0.0)),
    ("theta_one", 2, TRIPLET, Decision("deny", ("low_trust",), 1e-17, 1.0)),
    ("int_threshold", 3, TRIPLET, Decision("grant", (), 1.0, 1)),
    ("non_finite", 4, TRIPLET,
     Decision("deny", ("low_trust",), float("nan"), float("inf"))),
]


class TestAuditLog:
    @pytest.mark.parametrize(
        "ts, triplet, decision", [case[1:] for case in AUDIT_LINE_CASES],
        ids=[case[0] for case in AUDIT_LINE_CASES])
    def test_matches_json_dumps_of_the_dict(self, ts, triplet, decision):
        assert audit_line(ts, triplet, decision) == dict_audit_line(
            ts, triplet, decision)

    def test_round_trip(self):
        policy = simple_policy()
        decision = decide(TRIPLET, policy, passing_source, [], None, now=99)
        line = audit_line(99, TRIPLET, decision)
        obj = parse_audit_line(line)
        assert obj["ts"] == 99
        assert obj["triplet"] == ["user-1", "dev-1", "res-std"]
        assert obj["verdict"] == "grant"
        assert obj["T"] == 1.0
        assert obj["theta"] == 0.5

    def test_extra_field_rejected(self):
        obj = json.loads(audit_line(
            0, TRIPLET, decide(TRIPLET, simple_policy(), passing_source,
                               [], None)
        ))
        obj["note"] = "x"
        with pytest.raises(EngineError):
            parse_audit_line(json.dumps(obj))

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(note="x"),
        lambda obj: obj.pop("theta"),
        lambda obj: obj.update(note=obj.pop("theta")),
        lambda obj: obj.clear(),
    ], ids=["extra", "missing", "renamed", "empty"])
    def test_field_set_checked(self, edit):
        obj = json.loads(audit_line(
            0, TRIPLET, decide(TRIPLET, simple_policy(), passing_source,
                               [], None)
        ))
        edit(obj)
        for text in (json.dumps(obj), json.dumps([obj]), "null"):
            with pytest.raises(EngineError, match="^malformed audit record$"):
                parse_audit_line(text)

    def test_bad_verdict_rejected(self):
        obj = json.loads(audit_line(
            0, TRIPLET, decide(TRIPLET, simple_policy(), passing_source,
                               [], None)
        ))
        obj["verdict"] = "maybe"
        with pytest.raises(EngineError):
            parse_audit_line(json.dumps(obj))

    @pytest.mark.parametrize("ts", [
        MAX_NUMERIC_VALUE, MAX_NUMERIC_VALUE + 1, 10**20 - 1,
    ], ids=["u64_max", "u64_max_plus_one", "twenty_digits"])
    def test_ts_is_a_u64_on_both_paths(self, ts):
        # The scan's layout admits up to 20 digits, more than a u64.
        line = audit_line(0, TRIPLET, decide(
            TRIPLET, simple_policy(), passing_source, [], None)).replace(
            '"ts": 0,', f'"ts": {ts},')
        scanned = scan_audit_lines([line.encode() + b"\n"])
        if ts <= MAX_NUMERIC_VALUE:
            assert parse_audit_line(line)["ts"] == scanned[0][0] == ts
            return
        with pytest.raises(EngineError) as info:
            parse_audit_line(line)
        assert str(info.value) == f"ts {ts} outside the unsigned 64-bit range"
        assert scanned is None


class TestPolicyDocuments:
    def doc(self) -> dict:
        return {
            "weights": {
                "io_operation_count": "0.3",
                "system_call_count": "0.7",
            },
            "normalizers": {
                "io_operation_count": {
                    "breakpoints": [[0, 1], [10, 0]], "default": 1,
                },
                "system_call_count": {
                    "breakpoints": [[0, 1], [100, 0]], "default": 1,
                },
            },
            "alpha": 0.5,
            "thresholds": {"res-std": 0.5},
            "sensitivity": {"res-high": "high"},
            "quorum": {"n": 5, "z": 3},
        }

    def test_load(self):
        policy = policy_from_obj(self.doc())
        assert policy.weights[AttributeKind.IO_OPERATION_COUNT] == fr("3/10")
        assert policy.alpha == 0.5
        assert policy.quorum.n == 5

    def test_unknown_field_rejected(self):
        with pytest.raises(PolicyError):
            policy_from_obj({**self.doc(), "surprise": 1})

    def test_round_trip_through_obj(self):
        policy = policy_from_obj(self.doc())
        again = policy_from_obj(policy_to_obj(policy))
        assert again == policy

    def test_thresholds_and_sensitivity_build_the_registry(self):
        policy = policy_from_obj(self.doc())
        assert policy.resources == {
            "res-std": ResourceSpec("res-std", 0.5),
            "res-high": ResourceSpec("res-high", 0.75, "high"),
        }
        obj = policy_to_obj(policy)
        assert obj["thresholds"] == {"res-high": 0.75, "res-std": 0.5}
        assert obj["sensitivity"] == {"res-high": "high"}

    def test_bad_registry_entries_rejected(self):
        with pytest.raises(PolicyError, match="threshold"):
            policy_from_obj({**self.doc(), "thresholds": {"res-std": 2}})
        with pytest.raises(PolicyError, match="sensitivity"):
            policy_from_obj({**self.doc(), "sensitivity": {"res-x": "top"}})
        with pytest.raises(PolicyError, match="JSON objects"):
            policy_from_obj({**self.doc(), "thresholds": ["res-std"]})
        with pytest.raises(PolicyError, match="duplicate"):
            simple_policy(resources=(ResourceSpec("res-a", 0.5),
                                     ResourceSpec("res-a", 0.6)))

    def test_normalizer_default_falls_back_to_first_breakpoint(self):
        doc = self.doc()
        doc["normalizers"]["io_operation_count"] = {
            "breakpoints": [[0, "0.8"], [10, 0]],
        }
        policy = policy_from_obj(doc)
        normalizer = policy.normalizers[AttributeKind.IO_OPERATION_COUNT]
        assert normalizer.default == fr("0.8")

    def test_missing_quorum_is_the_default(self):
        doc = self.doc()
        del doc["quorum"]
        assert policy_from_obj(doc).quorum == DEFAULT_QUORUM

    def test_weights_as_decimal_strings_exact(self):
        policy = policy_from_obj(self.doc())
        total = sum(policy.weights.values(), start=Fraction(0))
        assert total == 1

    def test_every_leaf_edit_loads_or_raises_policy_error(self):
        # Each scalar of the reference policy document (the default
        # policy over four resources), in turn, set to each junk value of
        # the scenario fuzz and to an integer past the float range.
        doc = policy_to_obj(reference_scenario().policy)
        escaped = []
        for path in list(json_leaves(doc)):
            holder = doc
            for key in path[:-1]:
                holder = holder[key]
            original = holder[path[-1]]
            for value in (*FUZZ_VALUES, 10**400):
                holder[path[-1]] = json.loads(json.dumps(value))
                try:
                    policy_from_obj(doc)
                except PolicyError:
                    pass
                except Exception as exc:
                    escaped.append((path, value, repr(exc)))
            holder[path[-1]] = original
        assert escaped == []
