"""Golden digests: the five artifacts of five pinned scenarios, the
reference skeleton as `trustgate skeleton` prints it, and the archive
bytes of the reference log and of its skeleton, byte for byte.

Determinism elsewhere is checked as "a rerun equals the run", which a
refactor that changes the output on every run would still pass. These
sha256 values pin the bytes themselves. A change that alters a digest on
purpose must say why and show that the grant/deny verdicts still hold.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from trustgate import simnet
from trustgate.cli import main
from trustgate.logcodec import (
    archive_to_bytes,
    build_codebook,
    collect_patterns,
    encode,
    records_from_events,
)
from trustgate.model import read_events
from trustgate.provenance import rule_to_obj
from trustgate.store import archive_batch

ARTIFACTS = ("config.json", "events.jsonl", "audit.jsonl", "access.json",
             "report.json")


def reference_fleet(count: int, seed: int) -> simnet.ScenarioConfig:
    """The reference scenario at ``count`` devices, with the compromised
    devices renamed to the fleet's id format and no explicit pre-trusted
    list (every device is pre-trusted by default)."""

    obj = simnet.config_to_obj(simnet.reference_scenario(seed))
    obj["devices"] = {"count": count}
    del obj["pretrusted"]
    width = max(2, len(str(count)))
    for plan in obj["compromises"]:
        number = int(plan["device_id"].split("-")[1])
        plan["device_id"] = f"dev-{number:0{width}d}"
    return simnet.config_from_obj(obj)


def fleet_200(seed: int) -> simnet.ScenarioConfig:
    return reference_fleet(200, seed)


def quorum_4_with_outages(seed: int) -> simnet.ScenarioConfig:
    """The reference scenario with an n=4, z=2 approver quorum, one device
    down for a while, and two approvers down over overlapping windows,
    so the failure lookup and a non-default quorum shape are pinned."""

    obj = simnet.config_to_obj(simnet.reference_scenario(seed))
    obj["policy"]["quorum"] = {"n": 4, "z": 2}
    obj["failures"] = [
        {"node": "dev-05", "down": [600, 1500]},
        {"node": "approver-1", "down": [0, 1800]},
        {"node": "approver-2", "down": [1200, 2400]},
    ]
    return simnet.config_from_obj(obj)


GOLDEN = {
    "reference-42": {
        "config.json": "1741a659ac3c344776c482830e87e6d181cbf9c7aa6e6674a6c76fff4e106363",
        "events.jsonl": "a43e2317471a86ef60e6ae151efceef7a2699840a99d165eb5f0394d37325f73",
        "audit.jsonl": "dc136267aaaa336ec9234bd44c971e7c18dcc480dd2a5d1cca0ef2e96acd103b",
        "access.json": "02d75cc597cff0e645075f5137e1e47f5b454a7befd5920493e0328e3fe052fa",
        "report.json": "6713bf576fcbdb59ef36f25387f9a42ba8a406857a7de216d87505afadb180c7",
    },
    "fleet-200-42": {
        "config.json": "fddd83cf80a5c0b491f5956c018fff9bea904c1ebe3b6349847200dc1420560f",
        "events.jsonl": "8ce1076b71ad6a907c4b34805db5cef62f57ae919c96ef1fe8aa03dfaa82b769",
        "audit.jsonl": "4c423eab70ea9c78481f512ac7c35c93c635658fda8d927355eff82d0f7e4fce",
        "access.json": "a713eb87361628dd8590812551207173d2936c19db1f8a7952e5e4f7b70ef86e",
        "report.json": "d0d3794c8ca5ccb0e2ab3b36f4a0ad01cd515a2b58a175d70b8754045d20fef8",
    },
    # Recorded before the event log became columns, so that the change
    # is judged on two more seeds of the 200-device fleet.
    "fleet-200-7": {
        "config.json": "8bfa129bef989de1453532c9f50fff23a0658c023e20ab54f2df3bbf30d0df3c",
        "events.jsonl": "db445c5f776b03e5ddc4304516a398bff2dba8ec5cdeab1067f9726bfa1773f2",
        "audit.jsonl": "2eca016b6e584ee0f47b688b38ae0d1c334ffe0999433c374133c47b4876cb6f",
        "access.json": "c1b23489e33352d4d3c8478b16f24d7c265bde4e507995a7cd91da3f8e0e06b8",
        "report.json": "730e5ae7752c3cbdd0a8b6a681445153fa9e14b1dc5ecb95bc66cadc9528e0ff",
    },
    "fleet-200-11": {
        "config.json": "6c547607034324eefb54dea3628a57802fa4ac23a008624177f800fbf3207da3",
        "events.jsonl": "17f673e4a30dec5c67c2b5b7b9de5dc0eb69dcf8517e76cb28dc4cc81459de76",
        "audit.jsonl": "325d336509c4bcb096fec9b0c4f11c702a85a919b11d5be227384a7a2ada5e1f",
        "access.json": "66585d593e56a5591a2b37e6ab9e573aa9d1074a060c0a458f42667d79a8eb3d",
        "report.json": "a3c52ba38d784db137a1a011a2111bb27be3b694104784f171cf7d67cf24ab5b",
    },
    "quorum-4-outages-42": {
        "config.json": "72ab74d5b9d5fc4c9ebeeae3a1a2a25b8dc7475fab1082f608263a4223b2fe82",
        "events.jsonl": "6b139eb8ed432fcd8368318a96351799cb6cda0ded0732ab25a08ef0b02590a6",
        "audit.jsonl": "e495a59c3d5ce5134c89d3f36746f4fadff3486d8ed4b6b667dfe8840e726d2f",
        "access.json": "73b85f2173e1000298a7b1254a7f318583af7ffd50bddb2f65c8e7327d684f95",
        "report.json": "da42ef5caf5f5fe3efc3c067210df560664c30b58332471307e0b4fc38cfe9f3",
    },
}

SKELETON_42 = "65ddcfb41ebdc2943a77f8d97134e57547fcea37cb546a4e254cde7c9298d6fb"

# The wire format: keys, codebook, codewords and payload of both archives.
ARCHIVES_42 = {
    "full-log": "0c0e868c3aa558727687e0e8600dbfc43e35189b008e8aefcbf9b30362f4056b",
    "skeleton": "d937b938e9b40e0e7b283afaeacef0015aeb0ca4b4beca77ca412b84e1df6315",
}

SCENARIOS = {
    "reference-42": lambda: simnet.reference_scenario(42),
    "fleet-200-42": lambda: fleet_200(42),
    "fleet-200-7": lambda: fleet_200(7),
    "fleet-200-11": lambda: fleet_200(11),
    "quorum-4-outages-42": lambda: quorum_4_with_outages(42),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digests(name, tmp_path):
    simnet.run(SCENARIOS[name](), tmp_path)
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in ARTIFACTS
    }
    assert digests == GOLDEN[name]


def test_reference_skeleton_digest(tmp_path, capsys):
    # The reference-42 log as `trustgate skeleton` prints it with the
    # default rules: 183 nodes, 73 edges and 90 summary edges.
    simnet.run(simnet.reference_scenario(42), tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(
        [rule_to_obj(r) for r in simnet.default_rules()]))
    code = main(["skeleton", "--in", str(tmp_path / "events.jsonl"),
                 "--rules", str(rules)])
    out = capsys.readouterr().out
    assert code == 0
    skeleton = json.loads(out)["skeleton"]
    counts = tuple(len(skeleton[k]) for k in ("nodes", "edges",
                                              "summary_edges"))
    assert counts == (183, 73, 90)
    assert hashlib.sha256(out.encode()).hexdigest() == SKELETON_42


def test_reference_archive_digests(tmp_path):
    simnet.run(simnet.reference_scenario(42), tmp_path)
    events = read_events(tmp_path / "events.jsonl")
    records = records_from_events(events)
    table = build_codebook(collect_patterns(records))
    batch = archive_batch(events, simnet.default_rules())
    blobs = {
        "full-log": archive_to_bytes(encode(records, table)),
        "skeleton": archive_to_bytes(encode(batch.records, batch.table)),
    }
    digests = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in blobs.items()}
    assert digests == ARCHIVES_42
