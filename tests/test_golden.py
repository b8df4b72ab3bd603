"""Golden digests: the five artifacts of two pinned scenarios, byte for byte.

Determinism elsewhere is checked as "a rerun equals the run", which a
refactor that changes the output on every run would still pass. These
sha256 values pin the bytes themselves. A change that alters a digest on
purpose must say why and show that the grant/deny verdicts still hold.
"""

from __future__ import annotations

import hashlib

import pytest

from trustgate import simnet

ARTIFACTS = ("config.json", "events.jsonl", "audit.jsonl", "access.json",
             "report.json")


def fleet_200(seed: int) -> simnet.ScenarioConfig:
    """The reference scenario at 200 devices, with the compromised
    devices renamed to the three-digit id format and no explicit
    pre-trusted list (every device is pre-trusted by default)."""

    obj = simnet.config_to_obj(simnet.reference_scenario(seed))
    obj["devices"] = {"count": 200}
    del obj["pretrusted"]
    for plan in obj["compromises"]:
        number = int(plan["device_id"].split("-")[1])
        plan["device_id"] = f"dev-{number:03d}"
    return simnet.config_from_obj(obj)


GOLDEN = {
    "reference-42": {
        "config.json": "a35898ab6e2e1a736187b1d99256b8d3b9044c9cc5a275a2d76ee7f66fd2eb85",
        "events.jsonl": "a43e2317471a86ef60e6ae151efceef7a2699840a99d165eb5f0394d37325f73",
        "audit.jsonl": "f66c87ee25856b88657e1a8975b1f8eba6a99c2c00b4afa48830cc8d5e2c3aa0",
        "access.json": "02d75cc597cff0e645075f5137e1e47f5b454a7befd5920493e0328e3fe052fa",
        "report.json": "eb1f79d7ec04a1376e23e36186fadfb8bbbba94bb997d85efff709d9c461fe01",
    },
    "fleet-200-42": {
        "config.json": "6b948de298c92485e3990c45411a7d19b1e685f44ce5c36cd7b471233c7814f3",
        "events.jsonl": "8ce1076b71ad6a907c4b34805db5cef62f57ae919c96ef1fe8aa03dfaa82b769",
        "audit.jsonl": "80088d53970687765d715dfa56a549bc105d2f793937299b365633ea8501c142",
        "access.json": "a713eb87361628dd8590812551207173d2936c19db1f8a7952e5e4f7b70ef86e",
        "report.json": "0ab6f9ce2cf86f318e0b287ee9ecfca06f8e833de1cfc9c26a838393861022a2",
    },
}

SCENARIOS = {
    "reference-42": lambda: simnet.reference_scenario(42),
    "fleet-200-42": lambda: fleet_200(42),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digests(name, tmp_path):
    simnet.run(SCENARIOS[name](), tmp_path)
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in ARTIFACTS
    }
    assert digests == GOLDEN[name]
