#!/usr/bin/env python3
"""Simulate a monitored network end to end, then audit the run.

Executes the built-in reference scenario -- twenty devices, two of
them compromised mid-run -- writes the artifact set, replays the audit
log to re-derive the report, and finally tampers with one audit line
to show the replay catching it.
"""

import json
import tempfile
from pathlib import Path

from trustgate import ReplayError, reference_scenario, replay, run


def main() -> None:
    config = reference_scenario()
    out_dir = Path(tempfile.mkdtemp(prefix="simrun-")) / "run"
    report = run(config, out_dir)

    print(f"scenario: {len(config.devices)} devices, "
          f"{len(config.policy.resources)} resources, "
          f"{config.duration}s, seed {config.seed}")
    compromised = ", ".join(
        f"{p.device_id}@t={p.start_time}" for p in config.compromises
    )
    print(f"compromised: {compromised}")

    print(f"\nreport ({report.config_digest[:12]}...):")
    print(f"  events emitted     : {report.total_events}")
    print(f"  access requests    : {report.total_requests} "
          f"({report.grants} granted / {report.denies} denied)")
    print(f"  malicious requests : {report.malicious_total} "
          f"({report.malicious_granted} slipped through)")
    print(f"  containment        : locked out at t={report.time_to_containment} "
          f"({report.containment_latency}s after first compromise)")
    print(f"  after containment  : {report.post_containment_malicious} "
          f"malicious requests, {report.post_containment_granted} granted")
    red = report.reduction
    print(f"  log reduction      : {red['nodes_before']} -> "
          f"{red['nodes_after']} nodes")
    print(f"  cache              : {dict(report.cache_metrics)}")

    names = sorted(p.name for p in out_dir.iterdir())
    print(f"\nartifacts in {out_dir}:\n  {', '.join(names)}")

    # Replay recomputes the decision-derived report fields from the
    # stored scenario and audit log; they must match the stored report.
    replayed = replay(out_dir)
    print(f"\nreplay verdict: clean "
          f"(digest {replayed.config_digest[:12]}... matches)")

    # Flip one denial to a grant in the audit log and replay again.
    audit_path = out_dir / "audit.jsonl"
    lines = audit_path.read_text().splitlines()
    for i, line in enumerate(lines):
        row = json.loads(line)
        if row["verdict"] == "deny":
            row["verdict"] = "grant"
            lines[i] = json.dumps(row, sort_keys=True)
            print(f"\ntampering: flipped the t={row['ts']} denial for "
                  f"{row['triplet'][1]} into a grant")
            break
    audit_path.write_text("\n".join(lines) + "\n")
    try:
        replay(out_dir)
        print("replay verdict: clean (tampering went unnoticed!)")
    except ReplayError as exc:
        print(f"replay verdict: REJECTED -- {exc}")


if __name__ == "__main__":
    main()
