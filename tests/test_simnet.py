"""Network simulator: scenario validation, deterministic artifacts,
audit replay verification, and containment behavior."""

from __future__ import annotations

import json
import math
import random
from bisect import bisect
from dataclasses import replace
from operator import itemgetter

import pytest

from trustgate.engine import PolicyError, parse_audit_line
from trustgate.model import (
    AttributeKind,
    Severity,
    Triplet,
    format_json,
    read_events,
)
from trustgate.provenance import AlertRule, build_graph
from trustgate.secretshare import ThresholdPolicy
from trustgate.simnet import (
    MAX_APPROVERS,
    AttributeProfile,
    BehaviorProfile,
    CompromisePlan,
    DeviceSpec,
    FailureWindow,
    ReplayError,
    ResourceSpec,
    ScenarioConfig,
    ScenarioError,
    SimReport,
    benign_profile,
    config_digest,
    config_from_obj,
    config_to_obj,
    default_policy,
    default_rules,
    load_config,
    malicious_profile,
    reference_scenario,
    replay,
    run,
    _PRIORITY_EMIT,
    _PRIORITY_REQUEST,
    _action_order,
    _audit_row,
    _compromise_starts,
    _decision_summary,
    _draw_activity,
    _schedule,
    _simulate,
    _value_tables,
)

RESOURCES = (
    ResourceSpec("res-open", 0.5, "standard"),
    ResourceSpec("res-safe", 0.75, "high"),
)


def small_scenario(
    seed: int = 7,
    duration: int = 900,
    compromises: tuple | None = None,
    failures: tuple = (),
    pretrusted: tuple | None = None,
) -> ScenarioConfig:
    devices = tuple(
        DeviceSpec(f"dev-{i:02d}", f"user-{i:02d}") for i in range(1, 5)
    )
    if compromises is None:
        compromises = (CompromisePlan("dev-03", 300, malicious_profile()),)
    return ScenarioConfig(
        seed=seed,
        duration=duration,
        devices=devices,
        benign=benign_profile(),
        policy=default_policy(resources=RESOURCES),
        alert_rules=default_rules(),
        compromises=compromises,
        failures=failures,
        pretrusted=(
            tuple(d.device_id for d in devices)
            if pretrusted is None else pretrusted
        ),
    )


def failure_scenario() -> ScenarioConfig:
    """A compromise at 300 plus one device and two approvers down."""

    return small_scenario(failures=(
        FailureWindow("dev-02", 100, 400),
        FailureWindow("approver-1", 0, 900),
        FailureWindow("approver-2", 200, 600),
    ))


SCALAR_TYPE_CASES = [
    ("seed", True, "integer"),
    ("seed", 1.5, "integer"),
    ("duration", 3600.5, "integer"),
    ("duration", "x", "integer"),
    ("attribute_window", 1.5, "integer"),
    ("refresh_interval", 1.5, "integer"),
    ("cache_capacity", True, "integer"),
    ("cache_capacity", None, "integer"),
    ("damping", False, "number"),
    ("damping", "0.1", "number"),
    ("epsilon", "x", "number"),
    ("epsilon", True, "number"),
]


# (id, edit of failure_scenario()'s object, the exact ScenarioError message)
NESTED_TYPE_CASES = [
    ("start_time_float",
     lambda o: o["compromises"][0].update(start_time=300.5),
     "compromises[0].start_time must be an integer, got 300.5"),
    ("start_time_bool",
     lambda o: o["compromises"][0].update(start_time=True),
     "compromises[0].start_time must be an integer, got True"),
    ("down_float",
     lambda o: o["failures"][0].update(down=[1.5, 3]),
     "failures[0].down must be two integers, got [1.5, 3]"),
    ("down_bool",
     lambda o: o["failures"][0].update(down=[0, True]),
     "failures[0].down must be two integers, got [0, True]"),
    ("down_three_times",
     lambda o: o["failures"][0].update(down=[1, 2, 3]),
     "failures[0].down must be two integers, got [1, 2, 3]"),
    ("request_rate_bool",
     lambda o: o["benign_profile"].update(request_rate=True),
     "benign_profile.request_rate must be a number, got True"),
    ("request_rate_string",
     lambda o: o["compromises"][0]["profile"].update(request_rate="0.1"),
     "compromises[0].profile.request_rate must be a number, got '0.1'"),
    ("attribute_rate_bool",
     lambda o: o["benign_profile"]["attributes"]["io_operation_count"]
     .update(rate=True),
     "benign_profile.attributes.io_operation_count.rate must be a number, "
     "got True"),
    ("request_rate_infinite",
     lambda o: o["benign_profile"].update(request_rate=math.inf),
     "benign_profile.request_rate must be a finite non-negative number, "
     "got inf"),
    ("attribute_rate_infinite",
     lambda o: o["compromises"][0]["profile"]["attributes"]
     ["io_operation_count"].update(rate=math.inf),
     "compromises[0].profile.attributes.io_operation_count.rate must be a "
     "finite non-negative number, got inf"),
    ("attribute_rate_nan",
     lambda o: o["benign_profile"]["attributes"]["io_operation_count"]
     .update(rate=math.nan),
     "benign_profile.attributes.io_operation_count.rate must be a finite "
     "non-negative number, got nan"),
    ("attribute_rate_past_float_range",
     lambda o: o["benign_profile"]["attributes"]["io_operation_count"]
     .update(rate=10**400),
     "benign_profile.attributes.io_operation_count.rate must be a finite "
     f"non-negative number, got {10**400}"),
    ("weights_past_float_range",
     lambda o: o["benign_profile"]["attributes"]["io_operation_count"]
     .update(values=[[3, 10**400]]),
     "benign_profile.attributes.io_operation_count: value weights must "
     "total at most 1.7976931348623157e+308"),
    ("device_count_negative",
     lambda o: o.update(devices={"count": -2}),
     "devices.count must be non-negative, got -2"),
    ("device_count_bool",
     lambda o: o.update(devices={"count": True}),
     "devices.count must be an integer, got True"),
    ("user_id_int",
     lambda o: o["devices"][1].update(user_id=5),
     "user_id must be a non-empty string, got 5"),
    ("user_id_list",
     lambda o: o["devices"][1].update(user_id=["x"]),
     "user_id must be a non-empty string, got ['x']"),
    ("resource_id_int_without_policy",
     lambda o: (o.pop("policy"), o["resources"][0].update(resource_id=7)),
     "malformed scenario: resource_id must be a non-empty string, got 7"),
    ("device_id_int_without_pretrusted",
     lambda o: (o.pop("pretrusted"), o["devices"][0].update(device_id=5)),
     "device_id must be a non-empty string, got 5"),
    ("rule_name_int",
     lambda o: o["alert_rules"][0].update(rule_name=5),
     "malformed scenario: rule_name must be a non-empty string, got 5"),
    ("attribute_rate_times_duration_overflows",
     lambda o: o["benign_profile"]["attributes"]["io_operation_count"]
     .update(rate=1e306),
     "benign_profile.attributes.io_operation_count.rate times duration "
     "must be finite, got 1e+306 x 900"),
    ("request_rate_times_duration_overflows",
     lambda o: o["compromises"][0]["profile"].update(request_rate=1e306),
     "compromises[0].profile.request_rate times duration must be finite, "
     "got 1e+306 x 900"),
    ("duration_past_float_range",
     lambda o: o.update(duration=10**400),
     "benign_profile.request_rate times duration must be finite, "
     f"got 0.008 x {10**400}"),
    ("resource_threshold_past_float_range",
     lambda o: o["resources"][0].update(threshold=10**400),
     "malformed scenario: int too large to convert to float"),
    ("epsilon_past_float_range",
     lambda o: o.update(epsilon=10**400),
     f"epsilon must be a finite positive number, got {10**400}"),
]


# (id, edit of reference_scenario(42) as built in Python, the message)
DIRECT_TYPE_CASES = [
    ("start_time_bool",
     lambda c: replace(c, compromises=(
         CompromisePlan("dev-17", True, malicious_profile()),)),
     "compromises[0].start_time must be an integer, got True"),
    ("start_time_float",
     lambda c: replace(c, compromises=(
         c.compromises[0], replace(c.compromises[1], start_time=300.5))),
     "compromises[1].start_time must be an integer, got 300.5"),
    ("down_float",
     lambda c: replace(c, failures=(FailureWindow("dev-05", 1.5, 3),)),
     "failures[0].down must be two integers, got [1.5, 3]"),
    ("failure_node_list",
     lambda c: replace(c, failures=(FailureWindow(["x"], 1, 3),)),
     "unknown failure node ['x']"),
    ("compromised_device_list",
     lambda c: replace(c, compromises=(
         CompromisePlan(["x"], 300, malicious_profile()),)),
     "unknown compromised device ['x']"),
    ("approvers_past_bound",
     lambda c: replace(c, policy=replace(
         c.policy, quorum=ThresholdPolicy(MAX_APPROVERS + 1, 3))),
     f"approvers.n must be at most {MAX_APPROVERS}, "
     f"got {MAX_APPROVERS + 1}"),
]


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "edit, message", [case[1:] for case in NESTED_TYPE_CASES],
        ids=[case[0] for case in NESTED_TYPE_CASES])
    def test_nested_types(self, edit, message):
        obj = config_to_obj(failure_scenario())
        edit(obj)
        with pytest.raises(ScenarioError) as info:
            config_from_obj(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "edit, message", [case[1:] for case in DIRECT_TYPE_CASES],
        ids=[case[0] for case in DIRECT_TYPE_CASES])
    def test_direct_construction_types(self, edit, message):
        with pytest.raises(ScenarioError) as info:
            edit(reference_scenario(42))
        assert str(info.value) == message

    def test_approvers_bound_in_document(self):
        obj = config_to_obj(reference_scenario(42))
        del obj["policy"]
        obj["approvers"] = {"n": 10**6, "z": 3}
        with pytest.raises(ScenarioError) as info:
            config_from_obj(obj)
        assert str(info.value) == "approvers.n must be at most 1000, got 1000000"
        obj["approvers"]["n"] = MAX_APPROVERS
        assert len(config_from_obj(obj).approver_ids()) == MAX_APPROVERS

    def test_whole_number_rates_accepted(self):
        obj = config_to_obj(failure_scenario())
        obj["benign_profile"]["request_rate"] = 0
        config = config_from_obj(obj)
        assert config.benign.request_rate == 0.0
        assert type(config.benign.request_rate) is float
        assert config_from_obj(config_to_obj(config)) == config

    @pytest.mark.parametrize("field,value,kind", SCALAR_TYPE_CASES)
    def test_scalar_types(self, field, value, kind):
        obj = config_to_obj(small_scenario())
        obj[field] = value
        with pytest.raises(ScenarioError, match=f"^{field} must be an? {kind}"):
            config_from_obj(obj)

    def test_whole_number_reals_accepted(self):
        obj = config_to_obj(small_scenario())
        obj.update(damping=0, epsilon=1)
        config = config_from_obj(obj)
        assert (config.damping, config.epsilon) == (0, 1)

    def test_duplicate_devices(self):
        with pytest.raises(ScenarioError, match="duplicate device"):
            small_scenario_devices = tuple(
                DeviceSpec("dev-01", f"user-{i}") for i in range(2)
            )
            ScenarioConfig(
                seed=1, duration=10, devices=small_scenario_devices,
                benign=benign_profile(),
                policy=default_policy(resources=RESOURCES),
                alert_rules=(), pretrusted=("dev-01",),
            )

    def test_unknown_compromised_device(self):
        with pytest.raises(ScenarioError, match="unknown compromised"):
            small_scenario(
                compromises=(
                    CompromisePlan("dev-99", 10, malicious_profile()),
                )
            )

    def test_compromise_must_start_inside_run(self):
        with pytest.raises(ScenarioError, match="inside the run"):
            small_scenario(
                compromises=(
                    CompromisePlan("dev-01", 900, malicious_profile()),
                )
            )

    def test_quorum_shape_must_match_policy(self):
        obj = config_to_obj(small_scenario())  # policy quorum 5/3
        obj["approvers"] = {"n": 4, "z": 2}
        with pytest.raises(ScenarioError, match="quorum"):
            config_from_obj(obj)
        del obj["approvers"]  # absent means the default 5/3
        obj["policy"]["quorum"] = {"n": 4, "z": 2}
        with pytest.raises(ScenarioError, match="quorum"):
            config_from_obj(obj)

    def test_unknown_failure_node(self):
        with pytest.raises(ScenarioError, match="unknown failure node"):
            small_scenario(failures=(FailureWindow("ghost", 0, 10),))

    def test_approver_failure_node_accepted(self):
        config = small_scenario(failures=(FailureWindow("approver-1", 0, 10),))
        assert config.failures[0].node == "approver-1"

    def test_failure_window_must_fit_run(self):
        with pytest.raises(ScenarioError, match="inside the run"):
            small_scenario(failures=(FailureWindow("dev-01", 0, 901),))

    def test_pretrusted_must_be_known(self):
        with pytest.raises(ScenarioError, match="pre-trusted"):
            small_scenario(pretrusted=("dev-42",))

    def test_pretrusted_required_for_multiple_devices(self):
        with pytest.raises(ScenarioError, match="pre-trusted"):
            small_scenario(pretrusted=())

    def test_single_device_needs_no_pretrusted(self):
        config = ScenarioConfig(
            seed=1, duration=10,
            devices=(DeviceSpec("dev-01", "user-01"),),
            benign=benign_profile(),
            policy=default_policy(resources=RESOURCES),
            alert_rules=(),
        )
        assert config.pretrusted == ()

    def test_approver_ids(self):
        config = small_scenario()
        assert config.approver_ids() == (
            "approver-1", "approver-2", "approver-3",
            "approver-4", "approver-5",
        )

    def test_compromise_time_lookup(self):
        config = small_scenario()
        assert not config.malicious("dev-03", 299)
        assert config.malicious("dev-03", 300)
        assert not config.malicious("dev-01", 300)
        assert config.first_compromise_time() == 300

    def test_compromise_starts_equal_the_malicious_predicate(self):
        # Two plans on one device, listed latest first: the earliest wins.
        config = small_scenario(compromises=(
            CompromisePlan("dev-03", 500, malicious_profile()),
            CompromisePlan("dev-02", 40, malicious_profile()),
            CompromisePlan("dev-03", 300, malicious_profile()),
        ))
        starts = _compromise_starts(config)
        assert starts == {"dev-03": 300, "dev-02": 40}
        for device in ("dev-01", "dev-02", "dev-03", "dev-04"):
            for t in (0, 39, 40, 41, 299, 300, 301, 499, 500, 899):
                assert (t >= starts.get(device, math.inf)) == (
                    config.malicious(device, t))

    def test_attribute_profile_validation(self):
        with pytest.raises(ScenarioError, match="rate"):
            AttributeProfile(rate=-0.1, values=((1, 1),))
        with pytest.raises(ScenarioError, match="at least one value"):
            AttributeProfile(rate=0.1, values=())
        with pytest.raises(ScenarioError, match="weights"):
            AttributeProfile(rate=0.1, values=((1, 0),))

    def test_resource_spec_validation(self):
        with pytest.raises(PolicyError, match="threshold"):
            ResourceSpec("res-x", 1.5)
        with pytest.raises(PolicyError, match="threshold"):
            ResourceSpec("res-x", -0.1)
        with pytest.raises(PolicyError, match="sensitivity"):
            ResourceSpec("res-x", 0.5, "nuclear")


FUZZ_VALUES = (5, ["x"], None, True, "zz", 1e306, -1, {})


def json_leaves(node, path=()):
    """Paths to every scalar in a JSON document, in document order."""

    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from json_leaves(child, path + (key,))


class TestScenarioFuzz:
    def test_every_leaf_edit_runs_or_raises_value_error(self):
        # Each scalar of the document, in turn, set to each FUZZ_VALUES
        # entry; the document is also tried without its policy and
        # pre-trusted blocks, which routes ids through other paths. A
        # config already run is not run again, since runs are
        # deterministic.
        devices = tuple(
            DeviceSpec(f"dev-{i:02d}", f"user-{i:02d}") for i in range(1, 7)
        )
        config = ScenarioConfig(
            seed=3, duration=600, devices=devices, benign=benign_profile(),
            policy=default_policy(resources=RESOURCES),
            alert_rules=default_rules(),
            compromises=(CompromisePlan("dev-03", 300, malicious_profile()),),
            failures=(FailureWindow("dev-02", 100, 400),
                      FailureWindow("approver-1", 200, 500)),
            pretrusted=tuple(d.device_id for d in devices),
        )
        full = config_to_obj(config)
        bare = config_to_obj(config)
        del bare["policy"], bare["pretrusted"]
        seen: set[str] = set()
        escaped = []
        for doc in (full, bare):
            for path in list(json_leaves(doc)):
                holder = doc
                for key in path[:-1]:
                    holder = holder[key]
                original = holder[path[-1]]
                for value in FUZZ_VALUES:
                    holder[path[-1]] = json.loads(json.dumps(value))
                    try:
                        mutated = config_from_obj(doc)
                        digest = config_digest(mutated)
                        if digest not in seen:
                            seen.add(digest)
                            run(mutated)
                    except ValueError:
                        pass
                    except Exception as exc:
                        escaped.append((path, value, repr(exc)))
                holder[path[-1]] = original
        assert escaped == []


class TestConfigSerialization:
    def test_round_trip_preserves_digest(self):
        config = small_scenario()
        restored = config_from_obj(config_to_obj(config))
        assert config_digest(restored) == config_digest(config)
        assert config_to_obj(restored) == config_to_obj(config)

    def test_round_trip_through_json_text(self):
        config = small_scenario(failures=(FailureWindow("dev-01", 5, 10),))
        text = json.dumps(config_to_obj(config))
        restored = config_from_obj(json.loads(text))
        assert config_digest(restored) == config_digest(config)

    def test_device_count_shorthand(self):
        obj = config_to_obj(small_scenario())
        obj["devices"] = {"count": 3}
        obj["pretrusted"] = ["dev-01", "dev-02", "dev-03"]
        obj["compromises"] = []
        config = config_from_obj(obj)
        assert [d.device_id for d in config.devices] == [
            "dev-01", "dev-02", "dev-03",
        ]
        assert [d.user_id for d in config.devices] == [
            "user-01", "user-02", "user-03",
        ]

    def test_load_config_from_file(self, tmp_path):
        config = small_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_obj(config)))
        assert config_digest(load_config(path)) == config_digest(config)

    def test_digest_is_sha256_hex(self):
        digest = config_digest(small_scenario())
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_digest_tracks_seed(self):
        assert config_digest(small_scenario(seed=1)) != config_digest(
            small_scenario(seed=2)
        )

    def test_policy_without_the_registry_is_rejected(self):
        obj = config_to_obj(reference_scenario(42))
        obj["policy"]["thresholds"] = {}
        obj["policy"]["sensitivity"] = {}
        with pytest.raises(ScenarioError, match="agree with the resources"):
            config_from_obj(obj)

    def test_policy_only_sensitivity_is_rejected(self):
        obj = config_to_obj(reference_scenario(42))
        obj["policy"]["sensitivity"]["res-files"] = "high"
        with pytest.raises(ScenarioError, match="agree with the resources"):
            config_from_obj(obj)

    def test_resources_keep_scenario_order(self):
        obj = config_to_obj(reference_scenario(42))
        assert [r["resource_id"] for r in obj["resources"]] == [
            "res-files", "res-mail", "res-db", "res-vault",
        ]
        assert config_to_obj(config_from_obj(obj)) == obj

    def test_policy_errors_surface_as_scenario_errors(self):
        obj = config_to_obj(small_scenario())
        obj["resources"][0]["threshold"] = 1.5
        with pytest.raises(ScenarioError, match="threshold"):
            config_from_obj(obj)
        obj = config_to_obj(small_scenario())
        obj["resources"].append(dict(obj["resources"][0]))
        with pytest.raises(ScenarioError, match="duplicate resource"):
            config_from_obj(obj)

    def test_approvers_set_the_quorum_of_the_default_policy(self, tmp_path):
        obj = config_to_obj(small_scenario())
        del obj["policy"]
        obj["approvers"] = {"n": 4, "z": 2}
        run(config_from_obj(obj), tmp_path)
        access = json.loads((tmp_path / "access.json").read_text())
        assert access["quorum_n"] == 4
        written = json.loads((tmp_path / "config.json").read_text())
        assert written["approvers"] == {"n": 4, "z": 2}
        assert written["policy"]["quorum"] == {"n": 4, "z": 2}

    def test_reference_scenario_shape(self):
        config = reference_scenario()
        assert len(config.devices) == 20
        assert len(config.policy.resources) == 4
        assert config.first_compromise_time() == 1080
        assert config.cache_capacity == 48


class TestDeterminism:
    def test_artifacts_byte_identical(self, tmp_path):
        config = small_scenario()
        first, second = tmp_path / "a", tmp_path / "b"
        report_a = run(config, first)
        report_b = run(config, second)
        assert report_a == report_b
        for name in ("config.json", "events.jsonl", "audit.jsonl",
                     "report.json", "access.json"):
            assert (first / name).read_bytes() == (
                second / name
            ).read_bytes(), f"{name} differs between identical runs"

    def test_seed_changes_outcome(self):
        report_a = run(small_scenario(seed=1))
        report_b = run(small_scenario(seed=2))
        assert report_a.config_digest != report_b.config_digest

    def test_report_round_trip(self):
        report = run(small_scenario())
        text = format_json(report.to_obj())
        restored = SimReport.from_obj(json.loads(text))
        assert format_json(restored.to_obj()) == text


class TestArtifacts:
    def test_event_log_is_valid(self, tmp_path):
        run(small_scenario(), tmp_path)
        events = read_events(tmp_path / "events.jsonl")
        assert events
        build_graph(events)

    def test_audit_lines_parse_and_match_policy(self, tmp_path):
        config = small_scenario()
        run(config, tmp_path)
        thresholds = {
            rid: r.threshold for rid, r in config.policy.resources.items()
        }
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            obj = parse_audit_line(line)
            assert obj["verdict"] in ("grant", "deny")
            resource = obj["triplet"][2]
            assert obj["theta"] == thresholds[resource]

    def test_stored_report_matches_returned(self, tmp_path):
        report = run(small_scenario(), tmp_path)
        stored = json.loads((tmp_path / "report.json").read_text())
        assert stored == report.to_obj()

    def test_access_table_written(self, tmp_path):
        run(small_scenario(), tmp_path)
        access = json.loads((tmp_path / "access.json").read_text())
        assert access["devices"] == [
            "dev-01", "dev-02", "dev-03", "dev-04",
        ]
        assert access["quorum_n"] == 5
        assert access["resources"]["res-safe"]["token_digest"]
        assert access["resources"]["res-open"]["token_digest"] is None


class TestReplay:
    def test_replay_confirms_clean_run(self, tmp_path):
        report = run(small_scenario(), tmp_path)
        replayed = replay(tmp_path)
        assert replayed.to_obj() == report.to_obj()

    def test_replay_detects_tampered_counter(self, tmp_path):
        run(small_scenario(), tmp_path)
        path = tmp_path / "report.json"
        stored = json.loads(path.read_text())
        stored["grants"] += 1
        path.write_text(json.dumps(stored, sort_keys=True, indent=2))
        with pytest.raises(ReplayError, match="mismatch on grants"):
            replay(tmp_path)

    def test_replay_detects_truncated_audit_log(self, tmp_path):
        run(small_scenario(), tmp_path)
        path = tmp_path / "audit.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ReplayError, match="mismatch"):
            replay(tmp_path)

    def test_replay_detects_corrupt_audit_line(self, tmp_path):
        run(small_scenario(), tmp_path)
        path = tmp_path / "audit.jsonl"
        text = path.read_text()
        path.write_text("not json\n" + text)
        with pytest.raises(ReplayError, match="audit line 1"):
            replay(tmp_path)

    def test_replay_names_the_line_of_invalid_utf8(self, tmp_path):
        run(small_scenario(), tmp_path)
        path = tmp_path / "audit.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ReplayError, match="^audit line 3: 'utf-8' codec"):
            replay(tmp_path)

    def test_replay_requires_config(self, tmp_path):
        run(small_scenario(), tmp_path)
        (tmp_path / "config.json").unlink()
        with pytest.raises(ReplayError, match="cannot load scenario"):
            replay(tmp_path)

    @pytest.mark.parametrize("edit", ["not_object", "missing", "extra"])
    def test_replay_rejects_malformed_report(self, tmp_path, edit):
        run(small_scenario(), tmp_path)
        path = tmp_path / "report.json"
        stored = json.loads(path.read_text())
        if edit == "not_object":
            stored = [stored]
        elif edit == "missing":
            del stored["reduction"]
        else:
            stored["surprise"] = 1
        path.write_text(json.dumps(stored))
        with pytest.raises(ReplayError, match="report"):
            replay(tmp_path)

    def test_replay_rejects_invalid_policy(self, tmp_path):
        run(small_scenario(), tmp_path)
        path = tmp_path / "config.json"
        obj = json.loads(path.read_text())
        obj["policy"]["alpha"] = 2
        path.write_text(json.dumps(obj))
        with pytest.raises(ReplayError, match="alpha"):
            replay(tmp_path)

    def test_replay_detects_flipped_verdict(self, tmp_path):
        run(small_scenario(), tmp_path)
        path = tmp_path / "audit.jsonl"
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if obj["verdict"] == "grant":
                # A reason the line's T and theta cannot contradict, so
                # only the report counts expose the flip.
                obj["verdict"] = "deny"
                obj["reasons"] = ["quorum_failed"]
                lines[i] = json.dumps(obj, sort_keys=True)
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayError, match="mismatch"):
            replay(tmp_path)


class TestContainment:
    def test_compromise_is_contained(self):
        report = run(small_scenario())
        assert report.malicious_total > 0
        assert report.time_to_containment is not None
        assert report.time_to_containment <= 900
        assert report.containment_latency == (
            report.time_to_containment - report.first_compromise_time
        )
        # After containment no malicious request is ever granted again;
        # that is what the containment time asserts.
        assert report.post_containment_granted == 0
        assert report.flags == ()

    def test_tallies_are_consistent(self):
        report = run(small_scenario())
        assert report.grants + report.denies == report.total_requests
        per_device_total = sum(
            counts[outcome]
            for phases in report.per_device.values()
            for counts in phases.values()
            for outcome in ("grants", "denies")
        )
        assert per_device_total == report.total_requests
        assert report.malicious_grant_fraction == (
            report.malicious_granted / report.malicious_total
        )

    def test_malicious_devices_lose_reputation(self):
        report = run(small_scenario())
        after = report.per_device["dev-03"]["after"]
        # The compromised device keeps asking and is mostly refused.
        assert after["denies"] > after["grants"]


class TestFailureWindows:
    def test_downed_device_goes_silent(self, tmp_path):
        config = small_scenario(
            compromises=(),
            failures=(FailureWindow("dev-02", 0, 900),),
        )
        report = run(config, tmp_path)
        row = report.per_device["dev-02"]
        assert row == {
            "before": {"grants": 0, "denies": 0},
            "after": {"grants": 0, "denies": 0},
        }
        events = read_events(tmp_path / "events.jsonl")
        assert all(e.triplet.device_id != "dev-02" for e in events)

    def test_all_approvers_down_fails_high_sensitivity_closed(self, tmp_path):
        config = small_scenario(
            compromises=(),
            failures=tuple(
                FailureWindow(f"approver-{i}", 0, 900) for i in range(1, 6)
            ),
        )
        run(config, tmp_path)
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        high = [
            obj for obj in map(parse_audit_line, lines)
            if obj["triplet"][2] == "res-safe"
        ]
        assert high, "scenario produced no high-sensitivity requests"
        for obj in high:
            assert obj["verdict"] == "deny"
            assert "quorum_failed" in obj["reasons"]

    def test_enough_approvers_still_unlock(self, tmp_path):
        # Two of five approvers down leaves z=3 reachable: the high
        # resource must still be attainable.
        config = small_scenario(
            compromises=(),
            failures=(
                FailureWindow("approver-1", 0, 900),
                FailureWindow("approver-2", 0, 900),
            ),
        )
        run(config, tmp_path)
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        high = [
            obj for obj in map(parse_audit_line, lines)
            if obj["triplet"][2] == "res-safe"
        ]
        assert any(obj["verdict"] == "grant" for obj in high)


class TestEdgeCases:
    def test_no_compromises_flagged(self):
        report = run(small_scenario(compromises=()))
        assert "no_malicious_traffic" in report.flags
        assert report.time_to_containment is None
        assert report.containment_latency is None
        assert report.first_compromise_time is None
        assert report.malicious_grant_fraction == 0.0
        assert report.post_containment_malicious == 0

    def test_no_devices(self):
        config = ScenarioConfig(
            seed=1, duration=600, devices=(), benign=benign_profile(),
            policy=default_policy(resources=RESOURCES),
            alert_rules=default_rules(),
        )
        report = run(config)
        assert "no_devices" in report.flags
        assert report.total_events == 0
        assert report.total_requests == 0

    def test_zero_duration(self):
        config = small_scenario(duration=0, compromises=())
        report = run(config)
        assert report.total_events == 0
        assert report.total_requests == 0

    def test_single_device_skips_reputation(self):
        config = ScenarioConfig(
            seed=3, duration=600,
            devices=(DeviceSpec("dev-01", "user-01"),),
            benign=benign_profile(),
            policy=default_policy(resources=RESOURCES),
            alert_rules=default_rules(),
        )
        report = run(config)
        assert report.reputation_convergence["sweeps"] == 0
        assert report.reputation_convergence["converged"] is None


@pytest.fixture(scope="module")
def report():
    return run(reference_scenario())


class TestReferenceScenario:
    """Pinned outcome of the canonical twenty-device run (seed 42).

    These exact numbers double as a regression net: any change to the
    scheduler, the trust pipeline, or the codecs that shifts behavior
    shows up here first.
    """

    def test_traffic_volume(self, report):
        assert report.total_events == 2296
        assert report.total_requests == 630
        assert report.grants == 549
        assert report.denies == 81

    def test_malicious_traffic_blocked(self, report):
        assert report.malicious_total == 83
        assert report.malicious_granted == 2
        assert report.time_to_containment == 1138
        assert report.containment_latency == 58
        assert report.post_containment_malicious == 78
        assert report.post_containment_granted == 0

    def test_reduction_and_coding(self, report):
        assert report.reduction["nodes_before"] == 2296
        assert report.reduction["nodes_after"] == 183
        assert report.reduction["ratio"] == pytest.approx(183 / 2296)
        assert report.reduction["avg_code_length_exact"] == "512/183"

    def test_reputation_converged(self, report):
        convergence = report.reputation_convergence
        assert convergence["converged"] is True
        assert convergence["iterations_used"] == 8
        assert convergence["sweeps"] == 12

    def test_cache_pressure(self, report):
        assert report.cache_metrics == {
            "cache_hits": 266,
            "store_hits": 101,
            "recomputes": 263,
            "evictions": 210,
        }
        assert report.max_served_age == 300

    def test_refresh_interval_is_the_staleness_ceiling(self):
        report = run(replace(reference_scenario(), refresh_interval=60))
        assert 0 < report.max_served_age <= 60


ONE_VALUE_PROFILE = BehaviorProfile(
    attributes={AttributeKind.SYSTEM_CALL_COUNT: AttributeProfile(
        rate=0.01, values=((7, 3),))},
    request_rate=0.002,
)


def choices_activity(rng, device_id, profile, start, window, resource_ids):
    """``_draw_activity`` written with ``rng.choices``: the draw order
    that fixes a seed's schedule."""

    actions = []
    for kind, spec in sorted(profile.attributes.items(),
                             key=lambda kv: kv[0].value):
        values = [v for v, _ in spec.values]
        cum = [sum(w for _, w in spec.values[:i + 1])
               for i in range(len(spec.values))]
        for _ in range(round(spec.rate * window)):
            t = start + rng.randrange(window)
            value = rng.choices(values, cum_weights=cum)[0]
            target = rng.choice(resource_ids) if resource_ids else ""
            actions.append((t, _PRIORITY_EMIT, device_id, kind, value, target))
    for _ in range(round(profile.request_rate * window)):
        t = start + rng.randrange(window)
        target = rng.choice(resource_ids) if resource_ids else ""
        actions.append((t, _PRIORITY_REQUEST, device_id, None, None, target))
    return actions


class TestSchedule:
    @pytest.mark.parametrize("seed", [0, 7, 42, 2**40 + 3])
    @pytest.mark.parametrize(
        "profile", [benign_profile(), malicious_profile(), ONE_VALUE_PROFILE],
        ids=["benign", "malicious", "one_value"])
    def test_bisection_draws_equal_rng_choices(self, seed, profile):
        ours, reference = random.Random(seed), random.Random(seed)
        window, resource_ids = 20_000, ["res-a", "res-b", "res-c"]
        drawn = _draw_activity(ours, "dev-01", _value_tables(profile),
                               profile.request_rate, 5, window, resource_ids)
        assert drawn == choices_activity(reference, "dev-01", profile, 5,
                                         window, resource_ids)
        assert sum(a[1] == _PRIORITY_EMIT for a in drawn) >= 20
        assert ours.getstate() == reference.getstate()

    def test_equal_time_and_priority_keep_draw_order(self):
        # Many draws over a few seconds, devices listed out of id order:
        # ties are common and a sort on more than (time, priority) would
        # reorder them by device, value or resource.
        profile = BehaviorProfile(
            attributes={AttributeKind.IO_OPERATION_COUNT: AttributeProfile(
                rate=3.0, values=((9, 1), (3, 1), (5, 1)))},
            request_rate=2.0,
        )
        devices = (DeviceSpec("dev-02", "user-02"),
                   DeviceSpec("dev-01", "user-01"))
        config = ScenarioConfig(
            seed=3, duration=4, devices=devices, benign=profile,
            policy=default_policy(resources=RESOURCES), alert_rules=(),
            pretrusted=("dev-01", "dev-02"),
        )
        rng = random.Random(3)
        drawn = [(0, 0, "", None, None, "")]
        for device in devices:
            drawn += choices_activity(rng, device.device_id, profile, 0, 4,
                                      sorted(config.policy.resources))
        schedule = _schedule(config, random.Random(3))
        assert schedule == sorted(drawn, key=lambda a: (a[0], a[1]))
        assert schedule != sorted(drawn)


def randrange_activity(rng, device_id, profile, start, window, resource_ids):
    """``_draw_activity`` as it draws through ``rng.randrange``,
    ``rng.random`` and ``rng.choice``."""

    actions = []
    for kind, rate, values, cum, total, hi in _value_tables(profile):
        for _ in range(round(rate * window)):
            t = start + rng.randrange(window)
            value = values[bisect(cum, rng.random() * total, 0, hi)]
            target = rng.choice(resource_ids) if resource_ids else ""
            actions.append((t, _PRIORITY_EMIT, device_id, kind, value, target))
    for _ in range(round(profile.request_rate * window)):
        t = start + rng.randrange(window)
        target = rng.choice(resource_ids) if resource_ids else ""
        actions.append((t, _PRIORITY_REQUEST, device_id, None, None, target))
    return actions


class TestScheduleDraws:
    """The inline draws stand for ``randrange`` and ``choice``; these pin
    that equivalence, which the golden digests show only as a changed
    hash."""

    @pytest.mark.parametrize("seed", [1, 5, 99, 2**33 + 1])
    @pytest.mark.parametrize("window", [1, 2, 3, 64, 65, 1000, 2**31 + 7])
    @pytest.mark.parametrize("targets", [0, 1, 2, 4, 5])
    def test_inline_draws_equal_randrange_and_choice(self, seed, window,
                                                     targets):
        profile = BehaviorProfile(
            attributes={
                AttributeKind.IO_OPERATION_COUNT: AttributeProfile(
                    rate=40 / window, values=((3, 5), (12, 3), (40, 2))),
                AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID: AttributeProfile(
                    rate=25 / window, values=(("net-a", 1), ("net-b", 4))),
            },
            request_rate=30 / window,
        )
        resource_ids = [f"res-{i}" for i in range(targets)]
        ours, reference = random.Random(seed), random.Random(seed)
        drawn = _draw_activity(ours, "dev-01", _value_tables(profile),
                               profile.request_rate, 11, window,
                               resource_ids)
        assert drawn == randrange_activity(reference, "dev-01", profile, 11,
                                           window, resource_ids)
        assert len(drawn) == 95
        assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_int_key_sort_equals_stable_time_priority_sort(self, seed):
        rng = random.Random(seed)
        actions = [(t, 0, "", None, None, "") for t in range(0, 50, 7)]
        for device in ("dev-02", "dev-01", "dev-03"):
            actions += _draw_activity(rng, device,
                                      _value_tables(benign_profile()), 0.3,
                                      0, 50, ["res-a", "res-b"])
        # Far-apart times: the key must not fold one time into another.
        actions += [(2**70, 2, "dev-01", None, None, "res-a"),
                    (2**70 - 1, 1, "dev-01", AttributeKind.IO_OPERATION_COUNT,
                     3, "res-a")]
        by_key = sorted(actions, key=_action_order)
        assert by_key == sorted(actions, key=itemgetter(0, 1))
        assert by_key != sorted(actions)  # ties are common


class TestReportFromDecisions:
    """``run`` builds the report from its decisions; replay parses the
    audit lines. Both must give the same summary."""

    @pytest.mark.parametrize("config", [reference_scenario(42),
                                        failure_scenario()],
                             ids=["reference-42", "failures"])
    def test_rows_equal_parsed_audit_lines(self, config):
        loop, _ = _simulate(config)
        assert len(loop.rows) == len(loop.audit_lines) > 0
        devices = frozenset(d.device_id for d in config.devices)
        parsed = [_audit_row(config, devices, line)
                  for line in loop.audit_lines]
        assert loop.rows == parsed
        assert (_decision_summary(config, loop.rows)
                == _decision_summary(config, parsed))

    def test_failure_window_drops_requests(self):
        loop, _ = _simulate(failure_scenario())
        dev_02 = [row.ts for row in loop.rows if row.device_id == "dev-02"]
        assert dev_02 and not any(100 <= ts <= 400 for ts in dev_02)
        assert any(not row.granted for row in loop.rows)


class TestCriticalRules:
    def test_first_alert_follows_the_configured_rule_order(self):
        # Two critical rules on one kind, listed out of name order, and
        # one on a kind no profile emits. A value of 4 matches both file
        # rules; the one listed first must win.
        file_kind = AttributeKind.MALICIOUS_FILE_ACCESS_COUNT
        rules = (
            AlertRule("zz-file-burst", file_kind, ">=", 4, Severity.CRITICAL),
            AlertRule("malicious-file-access", file_kind, ">=", 1,
                      Severity.HIGH),
            AlertRule("aa-file-any", file_kind, ">=", 2, Severity.CRITICAL),
            AlertRule("flash-drive-critical",
                      AttributeKind.FLASH_DRIVE_USAGE_SECONDS, ">=", 0,
                      Severity.CRITICAL),
        )
        config = replace(reference_scenario(42), alert_rules=rules)
        loop, _ = _simulate(config)
        want: dict[str, tuple[int, int, str]] = {}
        for event in loop.hot.events:
            device_id = event.triplet.device_id
            if device_id in want:
                continue
            for rule in config.alert_rules:
                if rule.severity is Severity.CRITICAL and rule.matches(event):
                    want[device_id] = (len(want), event.event_id,
                                       rule.rule_name)
                    break
        got = {device_id: (a.alert.alert_id, a.alert.event_id,
                           a.alert.rule_name)
               for device_id, a in loop.critical.items()}
        assert got == want
        assert {name for _, _, name in want.values()} == {
            "zz-file-burst", "aa-file-any"}


class TestTripletKeys:
    def test_every_store_key_is_a_triplet(self):
        loop, _ = _simulate(reference_scenario(42))
        stores = {
            "hot": loop.hot._by_triplet,
            "score store": loop.cache.store._records,
            "recency index": loop.cache._entries,
        }
        for name, keys in stores.items():
            assert keys, name
            assert {type(k) for k in keys} == {Triplet}, name

    def test_one_triplet_per_device_and_resource(self):
        loop, _ = _simulate(reference_scenario(42))
        triplets = [event.triplet for event in loop.hot.events]
        assert len({id(t) for t in triplets}) == len(set(triplets))
