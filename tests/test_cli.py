"""Command-line interface: every subcommand exercised through main(),
including exit codes for domain and usage errors."""

from __future__ import annotations

import json
import shutil

import pytest

from trustgate import cli, logcodec
from trustgate.cli import main
from trustgate.engine import policy_to_obj
from trustgate.model import write_events
from trustgate.reputation import InteractionLedger
from trustgate.engine import ResourceSpec
from trustgate.simnet import (
    _audit_row,
    config_from_obj,
    config_to_obj,
    default_policy,
    reference_scenario,
    run,
)

from conftest import ledger_to_obj, make_event
from test_simnet import NESTED_TYPE_CASES, failure_scenario, small_scenario


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"stderr: {err}"
    return json.loads(out)


@pytest.fixture
def events_path(tmp_path):
    path = tmp_path / "events.jsonl"
    write_events(path, [
        make_event(1, 100, value=200),
        make_event(2, 110, value=1, parents=(1,)),
        make_event(3, 120, value=1, parents=(2,)),
        make_event(4, 130, value=1, parents=(3,)),
        make_event(5, 140, value=300, parents=(4,)),
    ])
    return path


@pytest.fixture
def policy_path(tmp_path):
    policy = default_policy(
        resources=(ResourceSpec("res-a", 0.5, "standard"),)
    )
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy_to_obj(policy)))
    return path


@pytest.fixture
def rules_path(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{
        "rule_name": "io-burst",
        "attribute": "io_operation_count",
        "op": ">=",
        "threshold": 100,
        "severity": "high",
    }]))
    return path


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_to_obj(small_scenario())))
    return path


class TestSimulateReplay:
    def test_simulate_writes_artifacts_and_report(self, capsys, tmp_path,
                                                  scenario_path):
        out_dir = tmp_path / "run"
        report = run_json(
            capsys, "simulate",
            "--config", str(scenario_path), "--out", str(out_dir),
        )
        assert report["grants"] + report["denies"] == report["total_requests"]
        stored = json.loads((out_dir / "report.json").read_text())
        assert stored == report

    def test_replay_round_trip(self, capsys, tmp_path, scenario_path):
        out_dir = tmp_path / "run"
        report = run_json(
            capsys, "simulate",
            "--config", str(scenario_path), "--out", str(out_dir),
        )
        replayed = run_json(capsys, "replay", "--out", str(out_dir))
        assert replayed == report

    def test_replay_rejects_tampering(self, capsys, tmp_path, scenario_path):
        out_dir = tmp_path / "run"
        run_json(
            capsys, "simulate",
            "--config", str(scenario_path), "--out", str(out_dir),
        )
        stored = json.loads((out_dir / "report.json").read_text())
        stored["denies"] -= 1
        stored["grants"] += 1
        (out_dir / "report.json").write_text(json.dumps(stored))
        code, _, err = run_cli(capsys, "replay", "--out", str(out_dir))
        assert code == 1
        assert "error:" in err
        assert "mismatch" in err

    def test_seed_override_changes_digest(self, capsys, tmp_path,
                                          scenario_path):
        first = run_json(
            capsys, "simulate", "--config", str(scenario_path),
            "--seed", "1", "--out", str(tmp_path / "a"),
        )
        second = run_json(
            capsys, "simulate", "--config", str(scenario_path),
            "--seed", "2", "--out", str(tmp_path / "b"),
        )
        assert first["config_digest"] != second["config_digest"]

    def test_seed_override_equals_a_config_with_that_seed(
            self, capsys, tmp_path, scenario_path):
        run_json(capsys, "simulate", "--config", str(scenario_path),
                 "--seed", "9", "--out", str(tmp_path / "a"))
        obj = json.loads(scenario_path.read_text())
        assert obj.get("seed") != 9
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps({**obj, "seed": 9}))
        run_json(capsys, "simulate", "--config", str(seeded),
                 "--out", str(tmp_path / "b"))
        for name in ("config.json", "events.jsonl", "audit.jsonl",
                     "access.json", "report.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name


def _empty_policy_registry(obj: dict) -> None:
    obj["policy"]["thresholds"] = {}
    obj["policy"]["sensitivity"] = {}


MALFORMED_SCENARIOS = {
    "resource_without_id": lambda o: o["resources"][0].pop("resource_id"),
    "resource_without_threshold":
        lambda o: o["resources"][0].pop("threshold"),
    "resources_not_a_list": lambda o: o.update(resources={"res-open": 0.5}),
    "device_without_user": lambda o: o["devices"][0].pop("user_id"),
    "duration_not_a_number": lambda o: o.update(duration="x"),
    "duration_float": lambda o: o.update(duration=3600.5),
    "refresh_interval_float": lambda o: o.update(refresh_interval=1.5),
    "epsilon_string": lambda o: o.update(epsilon="x"),
    "epsilon_nan": lambda o: o.update(epsilon=float("nan")),
    "seed_bool": lambda o: o.update(seed=True),
    "seed_float": lambda o: o.update(seed=1.5),
    "cache_capacity_bool": lambda o: o.update(cache_capacity=True),
    "attribute_window_float": lambda o: o.update(attribute_window=1.5),
    "approvers_without_z": lambda o: o["approvers"].pop("z"),
    "approvers_disagree_with_policy_quorum":
        lambda o: o.update(approvers={"n": 4, "z": 2}),
    "profile_attributes_not_an_object":
        lambda o: o["benign_profile"].update(attributes=[]),
    "policy_disagrees_with_resources": _empty_policy_registry,
}


class TestMalformedScenario:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
    def test_exits_1_with_one_line(self, capsys, tmp_path, case):
        obj = config_to_obj(small_scenario())
        MALFORMED_SCENARIOS[case](obj)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--out", str(tmp_path / "run"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, message", [case[1:] for case in NESTED_TYPE_CASES],
        ids=[case[0] for case in NESTED_TYPE_CASES])
    def test_nested_field_type_is_named(self, capsys, tmp_path, edit,
                                        message):
        obj = config_to_obj(failure_scenario())
        edit(obj)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--out", str(tmp_path / "run"))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "run").exists()

    def test_reference_policy_drift_is_rejected(self, capsys, tmp_path):
        obj = config_to_obj(reference_scenario(42))
        _empty_policy_registry(obj)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "simulate", "--config", str(path),
                               "--out", str(tmp_path / "run"))
        assert code == 1
        assert "agree with the resources" in err


MALFORMED_AUDIT_LINES = {
    "ts_not_an_integer": lambda o: o.update(ts="x"),
    "ts_bool": lambda o: o.update(ts=True),
    "unknown_device": lambda o: o["triplet"].__setitem__(1, "dev-99"),
    "device_not_a_string": lambda o: o["triplet"].__setitem__(1, [1]),
    # The first line is a grant with T 0.98 against theta 0.5.
    "grant_with_reasons": lambda o: o.update(reasons=["quorum_failed"]),
    "deny_without_reasons": lambda o: o.update(verdict="deny"),
    "unknown_reason": lambda o: o.update(verdict="deny", reasons=["odd"]),
    "reasons_not_a_list": lambda o: o.update(verdict="deny",
                                             reasons="low_trust"),
    "low_trust_above_theta": lambda o: o.update(verdict="deny",
                                                reasons=["low_trust"]),
    "no_low_trust_below_theta": lambda o: o.update(T=0.1),
    "T_null_granted": lambda o: o.update(T=None),
    "T_null_other_reason": lambda o: o.update(verdict="deny",
                                              reasons=["critical_alert"],
                                              T=None),
    "T_not_a_number": lambda o: o.update(T="0.98"),
    "theta_not_a_number": lambda o: o.update(theta=None),
    "score_unavailable_with_T": lambda o: o.update(
        verdict="deny", reasons=["score_unavailable"]),
    "theta_not_policy_threshold": lambda o: o.update(theta=0.25),
    "resource_not_a_string": lambda o: o["triplet"].__setitem__(2, [1]),
    # theta 0.5 is what the policy gives a resource it does not list.
    "unknown_resource": lambda o: o["triplet"].__setitem__(2, "res-nope"),
}


class TestMalformedAuditLine:
    @pytest.mark.parametrize("case", sorted(MALFORMED_AUDIT_LINES))
    def test_replay_exits_1_with_one_line(self, capsys, tmp_path, case):
        out_dir = tmp_path / "run"
        run(small_scenario(), out_dir)
        audit = out_dir / "audit.jsonl"
        first, *rest = audit.read_text().splitlines()
        obj = json.loads(first)
        MALFORMED_AUDIT_LINES[case](obj)
        audit.write_text("\n".join([json.dumps(obj), *rest]) + "\n")
        code, out, err = run_cli(capsys, "replay", "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("error: audit line 1: ")
        assert err.count("\n") == 1

    def test_invalid_utf8_names_its_line(self, capsys, tmp_path):
        run(small_scenario(), tmp_path)
        audit = tmp_path / "audit.jsonl"
        lines = audit.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:10] + b"\xff" + lines[2][11:]
        audit.write_bytes(b"".join(lines))
        code, out, err = run_cli(capsys, "replay", "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == ("error: audit line 3: 'utf-8' codec can't decode "
                       "byte 0xff in position 10: invalid start byte\n")


def fleet_scenario():
    """The reference scenario at 200 devices, dev-001 to dev-200, all
    pre-trusted: an audit log of several 64 KiB chunks."""

    obj = config_to_obj(reference_scenario(1))
    obj["devices"] = {"count": 200}
    del obj["pretrusted"]
    for plan in obj["compromises"]:
        plan["device_id"] = plan["device_id"].replace("dev-", "dev-0")
    return config_from_obj(obj)


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fleet")
    run(fleet_scenario(), out_dir)
    return out_dir


def copy_replay_inputs(src, dst):
    dst.mkdir()
    for name in ("config.json", "report.json", "audit.jsonl"):
        shutil.copyfile(src / name, dst / name)
    return dst / "audit.jsonl"


def late_grant(lines: list[bytes]) -> int:
    """The index of the first grant at theta 0.5 that starts past the
    first 64 KiB of the log."""

    offset = 0
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if (offset > 1 << 16 and obj["verdict"] == "grant"
                and obj["theta"] == 0.5):
            return i
        offset += len(line)
    raise AssertionError("no late grant")


class TestReplayParity:
    """Replay scans audit chunks with a regular expression and parses a
    chunk it cannot vouch for line by line. The scan must change neither
    a message nor a line number, nor refuse a valid line."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_AUDIT_LINES))
    def test_late_malformed_line_gets_the_json_message(self, capsys,
                                                       tmp_path, fleet_run,
                                                       case):
        audit = copy_replay_inputs(fleet_run, tmp_path / "run")
        lines = audit.read_bytes().splitlines(keepends=True)
        index = late_grant(lines)
        obj = json.loads(lines[index])
        MALFORMED_AUDIT_LINES[case](obj)
        bad = json.dumps(obj)
        lines[index] = bad.encode() + b"\n"
        audit.write_bytes(b"".join(lines))
        config = fleet_scenario()
        devices = frozenset(d.device_id for d in config.devices)
        with pytest.raises(ValueError) as refused:
            _audit_row(config, devices, bad)
        code, out, err = run_cli(capsys, "replay", "--out", str(audit.parent))
        assert (code, out) == (1, "")
        assert err == f"error: audit line {index + 1}: {refused.value}\n"

    @pytest.mark.parametrize("layout", ["compact", "crlf", "blank_line"])
    def test_valid_non_canonical_log_replays_clean(self, capsys, tmp_path,
                                                   fleet_run, layout):
        audit = copy_replay_inputs(fleet_run, tmp_path / "run")
        lines = audit.read_bytes().splitlines(keepends=True)
        index = late_grant(lines)
        if layout == "compact":
            obj = json.loads(lines[index])
            lines[index] = json.dumps(obj, separators=(",", ":")).encode() + (
                b"\n")
        elif layout == "crlf":
            lines = [line.replace(b"\n", b"\r\n") for line in lines]
        else:
            lines.insert(index, b"\n")
        audit.write_bytes(b"".join(lines))
        replayed = run_json(capsys, "replay", "--out", str(audit.parent))
        assert replayed == json.loads((fleet_run / "report.json").read_text())


MALFORMED_POLICIES = {
    "weights_not_an_object": lambda o: o.update(weights=[]),
    "normalizers_not_an_object": lambda o: o.update(normalizers=[]),
    "breakpoints_not_a_list":
        lambda o: o["normalizers"]["io_operation_count"].update(breakpoints=5),
    "threshold_null": lambda o: o.update(thresholds={"r": None}),
}


class TestMalformedPolicy:
    @pytest.mark.parametrize("case", sorted(MALFORMED_POLICIES))
    def test_exits_1_with_one_line(self, capsys, tmp_path, events_path, case):
        obj = policy_to_obj(default_policy())
        MALFORMED_POLICIES[case](obj)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "score", "--events", str(events_path),
                                 "--policy", str(path),
                                 "--triplet", "user-a,dev-a,res-a")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestScore:
    def test_score_reports_window_and_verdict_inputs(self, capsys,
                                                     events_path,
                                                     policy_path):
        result = run_json(
            capsys, "score",
            "--events", str(events_path), "--policy", str(policy_path),
            "--triplet", "user-a,dev-a,res-a",
        )
        assert result["triplet"] == ["user-a", "dev-a", "res-a"]
        assert result["now"] == 140                      # max timestamp
        assert result["window_attributes"] == {"io_operation_count": 300}
        assert 0.0 <= result["behavioral"] <= 1.0
        assert result["threshold"] == 0.5
        assert result["sensitivity"] == "standard"
        # alpha = 0.5, reputation defaults to 1.0
        assert result["combined"] == pytest.approx(
            0.5 * result["behavioral"] + 0.5
        )

    def test_score_respects_window_bound(self, capsys, events_path,
                                         policy_path):
        result = run_json(
            capsys, "score",
            "--events", str(events_path), "--policy", str(policy_path),
            "--triplet", "user-a,dev-a,res-a",
            "--now", "120", "--window", "15",
        )
        # (105, 120] contains events at 110 and 120; the later one wins.
        assert result["window_attributes"] == {"io_operation_count": 1}

    def test_malformed_triplet_is_domain_error(self, capsys, events_path,
                                               policy_path):
        code, _, err = run_cli(
            capsys, "score",
            "--events", str(events_path), "--policy", str(policy_path),
            "--triplet", "only-two,parts",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("events, message", [
        ((make_event(1, 100), make_event(1, 110)),
         "duplicate event ids in log"),
        ((make_event(1, 100), make_event(2, 110, parents=(9,))),
         "dangling parent: event 2 references 9"),
        ((make_event(1, 100), make_event(2, 100, parents=(1,))),
         "causality: event 2 is not later than its parent 1"),
    ], ids=["duplicate_id", "dangling_parent", "non_causal_parent"])
    def test_log_is_checked_as_skeleton_checks_it(self, capsys, tmp_path,
                                                  policy_path, events,
                                                  message):
        path = tmp_path / "bad.jsonl"
        write_events(path, events)
        code, out, err = run_cli(
            capsys, "score", "--events", str(path),
            "--policy", str(policy_path), "--triplet", "user-a,dev-a,res-a",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_events_file(self, capsys, policy_path, tmp_path):
        code, _, err = run_cli(
            capsys, "score",
            "--events", str(tmp_path / "nope.jsonl"),
            "--policy", str(policy_path),
            "--triplet", "u,d,r",
        )
        assert code == 1
        assert "error:" in err


class TestCompressionCommands:
    def test_compress_decompress_round_trip(self, capsys, events_path,
                                            tmp_path):
        archive_path = tmp_path / "log.ztlc"
        stats = run_json(
            capsys, "compress",
            "--in", str(events_path), "--out", str(archive_path),
        )
        assert stats["records"] == 5
        assert archive_path.exists()

        out_path = tmp_path / "records.jsonl"
        summary = run_json(
            capsys, "decompress",
            "--in", str(archive_path), "--out", str(out_path),
        )
        assert summary["records"] == 5
        lines = out_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0] == {"io_operation_count": 200}
        assert records[4] == {"io_operation_count": 300}

    def test_decompress_to_stdout(self, capsys, events_path, tmp_path):
        archive_path = tmp_path / "log.ztlc"
        run_json(capsys, "compress",
                 "--in", str(events_path), "--out", str(archive_path))
        code, out, _ = run_cli(capsys, "decompress",
                               "--in", str(archive_path))
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_compress_names_the_line_with_invalid_utf8(self, capsys,
                                                       events_path, tmp_path):
        lines = events_path.read_bytes().splitlines(keepends=True)
        events_path.write_bytes(lines[0] + b'{"event_id": \xff}\n')
        code, out, err = run_cli(capsys, "compress", "--in", str(events_path),
                                 "--out", str(tmp_path / "log.ztlc"))
        assert (code, out) == (1, "")
        assert err == ("error: line 2: 'utf-8' codec can't decode byte 0xff "
                       "in position 13: invalid start byte\n")

    @pytest.mark.parametrize("command", ["decompress", "verify-archive"])
    def test_archive_is_decoded_once(self, capsys, events_path, tmp_path,
                                     monkeypatch, command):
        archive_path = tmp_path / "log.ztlc"
        run_json(capsys, "compress",
                 "--in", str(events_path), "--out", str(archive_path))
        decoded = []
        decode = logcodec.decode

        def counting(archive):
            decoded.append(archive)
            return decode(archive)

        # The command module is patched too, should it import decode.
        monkeypatch.setattr(logcodec, "decode", counting)
        monkeypatch.setattr(cli, "decode", counting, raising=False)
        code, _, _ = run_cli(capsys, command, "--in", str(archive_path))
        assert code == 0
        assert len(decoded) == 1

    def test_verify_accepts_clean_archive(self, capsys, events_path,
                                          tmp_path):
        archive_path = tmp_path / "log.ztlc"
        run_json(capsys, "compress",
                 "--in", str(events_path), "--out", str(archive_path))
        result = run_json(capsys, "verify-archive", "--in",
                          str(archive_path))
        assert result["records"] == 5

    def test_verify_rejects_corrupt_archive(self, capsys, events_path,
                                            tmp_path):
        archive_path = tmp_path / "log.ztlc"
        run_json(capsys, "compress",
                 "--in", str(events_path), "--out", str(archive_path))
        data = bytearray(archive_path.read_bytes())
        data[0] ^= 0xFF                       # break the magic
        archive_path.write_bytes(bytes(data))
        code, _, err = run_cli(capsys, "verify-archive",
                               "--in", str(archive_path))
        assert code == 1
        assert "error:" in err

    def test_verify_rejects_truncation(self, capsys, events_path, tmp_path):
        archive_path = tmp_path / "log.ztlc"
        run_json(capsys, "compress",
                 "--in", str(events_path), "--out", str(archive_path))
        data = archive_path.read_bytes()
        archive_path.write_bytes(data[:-1])
        code, _, err = run_cli(capsys, "verify-archive",
                               "--in", str(archive_path))
        assert code == 1
        assert "error:" in err


class TestSkeleton:
    def test_inline_skeleton(self, capsys, events_path, rules_path):
        result = run_json(
            capsys, "skeleton",
            "--in", str(events_path), "--rules", str(rules_path),
        )
        assert result["nodes_before"] == 5
        assert result["nodes_after"] == 2
        assert result["alerts"] == 2
        assert result["summary_edges"] == 1
        ids = [n["event_id"] for n in result["skeleton"]["nodes"]]
        assert ids == [1, 5]

    def test_skeleton_to_file(self, capsys, events_path, rules_path,
                              tmp_path):
        out_path = tmp_path / "skeleton.json"
        result = run_json(
            capsys, "skeleton",
            "--in", str(events_path), "--rules", str(rules_path),
            "--out", str(out_path),
        )
        assert "skeleton" not in result
        stored = json.loads(out_path.read_text())
        assert [n["event_id"] for n in stored["nodes"]] == [1, 5]
        assert stored["summary_edges"] == [[1, 5, 3]]

    def test_cyclic_log_exits_1_with_one_line(self, capsys, tmp_path,
                                              rules_path):
        path = tmp_path / "cyclic.jsonl"
        write_events(path, [make_event(0, 5, parents=(1,)),
                            make_event(1, 6, parents=(0,))])
        code, out, err = run_cli(capsys, "skeleton", "--in", str(path),
                                 "--rules", str(rules_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: causality")
        assert err.count("\n") == 1

    def test_list_valued_user_exits_1_with_one_line(self, capsys, tmp_path,
                                                    events_path, rules_path):
        first, second, *_ = events_path.read_text().splitlines()
        obj = json.loads(second)
        obj["user"] = [obj["user"]]
        path = tmp_path / "bad-user.jsonl"
        path.write_text(first + "\n" + json.dumps(obj) + "\n")
        code, out, err = run_cli(capsys, "skeleton", "--in", str(path),
                                 "--rules", str(rules_path))
        assert code == 1
        assert out == ""
        assert err == "error: line 2: user_id must be a non-empty string\n"

    def test_non_string_rule_name_exits_1_with_one_line(
            self, capsys, tmp_path, events_path, rules_path):
        rules = json.loads(rules_path.read_text())
        rules.append({**rules[0], "rule_name": 5})
        path = tmp_path / "rules-int-name.json"
        path.write_text(json.dumps(rules))
        code, out, err = run_cli(capsys, "skeleton", "--in", str(events_path),
                                 "--rules", str(path))
        assert (code, out, err) == (
            1, "", "error: rule_name must be a non-empty string, got 5\n")


class TestReputation:
    def test_symmetric_triangle(self, capsys, tmp_path):
        ledger = InteractionLedger(peers=("p1", "p2", "p3"))
        for a in ("p1", "p2", "p3"):
            for b in ("p1", "p2", "p3"):
                if a != b:
                    ledger.record_sat(a, b)
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(ledger_to_obj(ledger)), encoding="utf-8")
        result = run_json(
            capsys, "reputation",
            "--ledger", str(path), "--pretrusted", "p1,p2,p3",
            "--a", "0.0",
        )
        for peer in ("p1", "p2", "p3"):
            assert result["scores"][peer] == pytest.approx(1 / 3)
        assert result["converged"] is True
        assert result["zero_rows"] == []

    def test_silent_peer_listed_in_zero_rows(self, capsys, tmp_path):
        ledger = InteractionLedger(peers=("p1", "p2", "p3"))
        ledger.record_sat("p1", "p2")
        ledger.record_sat("p2", "p1")
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(ledger_to_obj(ledger)), encoding="utf-8")
        result = run_json(
            capsys, "reputation",
            "--ledger", str(path), "--pretrusted", "p1",
        )
        assert result["zero_rows"] == ["p3"]

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_bad_epsilon_exits_1(self, capsys, tmp_path, eps):
        ledger = InteractionLedger(peers=("p1", "p2"))
        ledger.record_sat("p1", "p2")
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(ledger_to_obj(ledger)), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "reputation",
            "--ledger", str(path), "--pretrusted", "p1", "--eps", eps,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: epsilon must be ")
        assert err.count("\n") == 1


DEEP_JSON = "[" * 200_000
RECURSION = ("maximum recursion depth exceeded while decoding a JSON array "
             "from a unicode string")


class TestDeeplyNestedJson:
    """Nesting deeper than the JSON parser follows is a malformed input
    like any other: exit 1 with one line, never a RecursionError."""

    def deep(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(DEEP_JSON, encoding="utf-8")
        return path

    def assert_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_ledger(self, capsys, tmp_path):
        path = self.deep(tmp_path, "ledger.json")
        self.assert_one_line(
            capsys, ("reputation", "--ledger", str(path), "--pretrusted", "p1"),
            f"ledger is not valid JSON: {RECURSION}")

    def test_event_line(self, capsys, tmp_path, rules_path):
        path = self.deep(tmp_path, "events.jsonl")
        self.assert_one_line(
            capsys, ("skeleton", "--in", str(path), "--rules", str(rules_path)),
            f"line 1: {RECURSION}")

    def test_rules(self, capsys, tmp_path, events_path):
        path = self.deep(tmp_path, "rules.json")
        self.assert_one_line(
            capsys, ("skeleton", "--in", str(events_path), "--rules", str(path)),
            f"rules file is not valid JSON: {RECURSION}")

    def test_policy(self, capsys, tmp_path, events_path):
        path = self.deep(tmp_path, "policy.json")
        self.assert_one_line(
            capsys, ("score", "--events", str(events_path), "--policy",
                     str(path), "--triplet", "user-a,dev-a,res-a"),
            f"policy is not valid JSON: {RECURSION}")

    def test_share_file(self, capsys, tmp_path):
        path = self.deep(tmp_path, "share.json")
        self.assert_one_line(
            capsys, ("share-join", "--shares", str(path)),
            f"share file {path} is not valid JSON: {RECURSION}")

    def test_scenario(self, capsys, tmp_path):
        path = self.deep(tmp_path, "scenario.json")
        self.assert_one_line(
            capsys, ("simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")),
            f"scenario is not valid JSON: {RECURSION}")

    def test_cache_trace_line(self, capsys, tmp_path):
        path = self.deep(tmp_path, "trace.jsonl")
        self.assert_one_line(
            capsys, ("cache-bench", "--trace", str(path)),
            f"trace line 1: {RECURSION}")

    @pytest.mark.parametrize("artifact, message", [
        ("config.json",
         f"cannot load scenario: scenario is not valid JSON: {RECURSION}"),
        ("report.json",
         f"cannot load report: report.json is not valid JSON: {RECURSION}"),
        ("audit.jsonl", f"audit line 1: {RECURSION}"),
    ])
    def test_replay_artifact(self, capsys, tmp_path, artifact, message):
        run(small_scenario(), tmp_path)
        self.deep(tmp_path, artifact)
        self.assert_one_line(capsys, ("replay", "--out", str(tmp_path)),
                             message)


# loader id -> (the bad document's file name, and, given the file's path,
# the test's directory and the events fixture, the command's argv and
# the stderr prefix that names the document)
DOCUMENT_LOADERS = {
    "scenario": ("scenario.json", lambda path, tmp, events: (
        ("simulate", "--config", str(path), "--out", str(tmp / "out")),
        "scenario is not valid JSON: ")),
    "policy": ("policy.json", lambda path, tmp, events: (
        ("score", "--events", str(events), "--policy", str(path),
         "--triplet", "user-a,dev-a,res-a"),
        "policy is not valid JSON: ")),
    "rules": ("rules.json", lambda path, tmp, events: (
        ("skeleton", "--in", str(events), "--rules", str(path)),
        "rules file is not valid JSON: ")),
    "ledger": ("ledger.json", lambda path, tmp, events: (
        ("reputation", "--ledger", str(path), "--pretrusted", "p1"),
        "ledger is not valid JSON: ")),
    "share": ("share.json", lambda path, tmp, events: (
        ("share-join", "--shares", str(path)),
        f"share file {path} is not valid JSON: ")),
    "replay_config": ("config.json", lambda path, tmp, events: (
        ("replay", "--out", str(tmp)),
        "cannot load scenario: scenario is not valid JSON: ")),
    "replay_report": ("report.json", lambda path, tmp, events: (
        ("replay", "--out", str(tmp)),
        "cannot load report: report.json is not valid JSON: ")),
}

BAD_DOCUMENTS = {
    "truncated": b'{"seed": ',
    "5000_digit_integer": b"1" * 5000,
    "invalid_utf8": b'{"seed": "\xff"}',
}


class TestMalformedDocument:
    """Every JSON document a command reads fails to parse the same way:
    exit 1, nothing on stdout, one stderr line naming the document."""

    @pytest.mark.parametrize("content", sorted(BAD_DOCUMENTS))
    @pytest.mark.parametrize("loader", sorted(DOCUMENT_LOADERS))
    def test_exits_1_naming_the_document(self, capsys, tmp_path, events_path,
                                         loader, content):
        name, command = DOCUMENT_LOADERS[loader]
        if loader.startswith("replay_"):
            run(small_scenario(), tmp_path)
        path = tmp_path / name
        path.write_bytes(BAD_DOCUMENTS[content])
        argv, prefix = command(path, tmp_path, events_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {prefix}")
        assert err.count("\n") == 1


class TestShareCommands:
    def test_split_join_round_trip(self, capsys, tmp_path):
        share_dir = tmp_path / "shares"
        listing = run_json(
            capsys, "share-split",
            "--secret", "123456789", "--n", "5", "--z", "3",
            "--seed", "11", "--out", str(share_dir),
        )
        assert len(listing["files"]) == 5
        assert listing["chunks"] == 1
        rebuilt = run_json(
            capsys, "share-join", "--shares", *listing["files"][:3],
        )
        assert rebuilt == {"secret": 123456789}

    def test_any_three_of_five_work(self, capsys, tmp_path):
        share_dir = tmp_path / "shares"
        listing = run_json(
            capsys, "share-split",
            "--secret", "42", "--n", "5", "--z", "3",
            "--seed", "12", "--out", str(share_dir),
        )
        picks = [listing["files"][i] for i in (1, 3, 4)]
        rebuilt = run_json(capsys, "share-join", "--shares", *picks)
        assert rebuilt == {"secret": 42}

    def test_split_inline_output(self, capsys):
        shares = run_json(
            capsys, "share-split",
            "--secret", "7", "--n", "4", "--z", "2", "--seed", "1",
        )
        assert len(shares) == 4
        assert all(len(chunks) == 1 for chunks in shares)

    def test_mixed_schemes_fail_join(self, capsys, tmp_path):
        first = run_json(
            capsys, "share-split",
            "--secret", "1", "--n", "3", "--z", "2",
            "--seed", "1", "--out", str(tmp_path / "a"),
        )
        second = run_json(
            capsys, "share-split",
            "--secret", "2", "--n", "3", "--z", "2",
            "--seed", "2", "--out", str(tmp_path / "b"),
        )
        code, _, err = run_cli(
            capsys, "share-join",
            "--shares", first["files"][0], second["files"][1],
        )
        assert code == 1
        assert "error:" in err

    def test_join_refuses_z_1_share_file(self, capsys, tmp_path):
        listing = run_json(
            capsys, "share-split",
            "--secret", "7", "--n", "3", "--z", "2",
            "--seed", "1", "--out", str(tmp_path / "s"),
        )
        path = listing["files"][0]
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**obj, "z": 1}, fh)
        code, out, err = run_cli(capsys, "share-join", "--shares", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_join_refuses_composite_prime_share_files(self, capsys, tmp_path):
        # (1, 7) and (4, 13) lie on 5 + 2x mod 15.
        paths = []
        for x, y in ((1, 7), (4, 13)):
            path = tmp_path / f"share-{x}.json"
            path.write_text(json.dumps({
                "scheme_id": "c0ffee", "prime": 15, "n": 2, "z": 2,
                "x": x, "y": y,
            }), encoding="utf-8")
            paths.append(str(path))
        code, out, err = run_cli(capsys, "share-join", "--shares", *paths)
        assert code == 1
        assert out == ""
        assert err == "error: 15 is not prime\n"

    @pytest.mark.parametrize("y", ['"7"', "7.5"])
    def test_join_refuses_non_integer_share_value(self, capsys, tmp_path, y):
        paths = []
        for x, value in ((1, y), (2, "9")):
            path = tmp_path / f"share-{x}.json"
            path.write_text(
                '{"scheme_id": "a", "prime": 257, "n": 2, "z": 2, '
                f'"x": {x}, "y": {value}}}',
                encoding="utf-8",
            )
            paths.append(str(path))
        code, out, err = run_cli(capsys, "share-join", "--shares", *paths)
        assert code == 1
        assert out == ""
        assert err == "error: share y must be an integer\n"

    def test_large_secret_spans_chunks(self, capsys, tmp_path):
        secret = str(2**200 + 12345)
        listing = run_json(
            capsys, "share-split",
            "--secret", secret, "--n", "5", "--z", "3",
            "--seed", "3", "--out", str(tmp_path / "s"),
        )
        assert listing["chunks"] == 4
        rebuilt = run_json(
            capsys, "share-join", "--shares", *listing["files"][2:],
        )
        assert rebuilt == {"secret": int(secret)}


MALFORMED_TRACE_LINES = {
    "now_string": '{"triplet": ["u", "d", "r"], "now": "x"}',
    "now_null": '{"triplet": ["u", "d", "r"], "now": null}',
    "now_bool": '{"triplet": ["u", "d", "r"], "now": true}',
    "now_float": '{"triplet": ["u", "d", "r"], "now": 1.5}',
    "triplet_string": '{"triplet": "udr", "now": 0}',
    "triplet_two_ids": '{"triplet": ["u", "d"], "now": 0}',
    "triplet_four_ids": '{"triplet": ["u", "d", "r", "x"], "now": 0}',
    "triplet_id_not_a_string": '{"triplet": ["u", 1, "r"], "now": 0}',
    "triplet_id_empty": '{"triplet": ["u", "", "r"], "now": 0}',
    "triplet_object": '{"triplet": {"u": "d"}, "now": 0}',
    "extra_key": '{"triplet": ["u", "d", "r"], "now": 0, "x": 1}',
    "not_an_object": '[["u", "d", "r"], 0]',
    "not_json": '{"triplet": ',
    "invalid_utf8": b'{"triplet": \xff}',
}


TRACE_ROW = b'{"triplet": ["u", "d", "r"], "now": 0}'


class TestCacheBench:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACE_LINES))
    def test_malformed_trace_line_exits_1(self, capsys, tmp_path, case):
        line = MALFORMED_TRACE_LINES[case]
        if isinstance(line, str):
            line = line.encode()
        trace = tmp_path / "trace.jsonl"
        trace.write_bytes(TRACE_ROW + b"\n" + line + b"\n")
        code, out, err = run_cli(
            capsys, "cache-bench", "--trace", str(trace),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: trace line 2: ")
        assert err.count("\n") == 1

    def test_trace_tiers(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rows = [
            {"triplet": ["u", "d", "r"], "now": 0},
            {"triplet": ["u", "d", "r"], "now": 10},
            {"triplet": ["u", "d", "r"], "now": 20},
            {"triplet": ["u2", "d2", "r2"], "now": 20},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        result = run_json(
            capsys, "cache-bench",
            "--trace", str(trace), "--capacity", "4",
        )
        assert result["operations"] == 4
        assert result["tiers"] == {
            "cache_hit": 2, "store_hit": 0, "recomputed": 2,
        }
        assert result["max_served_age"] == 20

    def test_bad_trace_line(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"triplet": ["u","d","r"]}\n')   # missing now
        code, _, err = run_cli(
            capsys, "cache-bench", "--trace", str(trace),
        )
        assert code == 1
        assert "trace line 1" in err

    # Lines are numbered as text mode splits them: at "\n", "\r\n" and
    # a lone "\r".
    @pytest.mark.parametrize("trace, message", [
        (TRACE_ROW + b"\r" + TRACE_ROW + b"\r\n\r" + b'{"triplet": \xff}',
         "trace line 4: 'utf-8' codec can't decode byte 0xff in position "
         "12: invalid start byte"),
        (TRACE_ROW + b"\r" + TRACE_ROW + b"\r\n\r" + b'{"triplet": \n',
         "trace line 4: Expecting value: line 1 column 12 (char 11)"),
    ], ids=["invalid_utf8", "not_json"])
    def test_lone_cr_splits_lines(self, capsys, tmp_path, trace, message):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(trace)
        code, out, err = run_cli(capsys, "cache-bench", "--trace", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])                 # --out is required
        assert exc.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
