"""Smoke tests for the benchmark: every workload at toy size, untraced
and traced, plus the tracer on its own.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from trustgate import model, provenance, simnet  # noqa: E402

WORKLOADS = ("fleet-sim", "gate-serve", "archive-cold")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs():
    sizes = workloads.WORKLOADS["archive-cold"].toy
    first = [model.dumps_event(e) for e in workloads.generate_log(7, sizes)]
    again = [model.dumps_event(e) for e in workloads.generate_log(7, sizes)]
    other = [model.dumps_event(e) for e in workloads.generate_log(8, sizes)]
    assert first == again
    assert first != other


def _chain_graph() -> provenance.ProvenanceGraph:
    triplet = model.Triplet("u", "d", "r")
    kinds = [model.AttributeKind.IO_OPERATION_COUNT] * 4 + [
        model.AttributeKind.MALICIOUS_FILE_ACCESS_COUNT]
    events = [
        model.EdrEvent(event_id=i, triplet=triplet, attribute=kind, value=2,
                       timestamp=i, parent_ids=(i - 1,) if i else ())
        for i, kind in enumerate(kinds)
    ]
    return provenance.apply_rules(provenance.build_graph(events),
                                  simnet.default_rules())


def test_tracer_spans_nest_and_self_time_excludes_children():
    graph = _chain_graph()
    original = provenance.reduce_to_skeleton
    tracer = tr.Tracer()
    tracer.install(tr.PROBES)
    try:
        assert provenance.reduce_to_skeleton is not original
        provenance.reduce_to_skeleton(graph)
    finally:
        tracer.uninstall()
    assert provenance.reduce_to_skeleton is original
    assert simnet.reduce_to_skeleton is original
    assert tracer.missing == []
    root = tracer.names.index("provenance.reduce_to_skeleton")
    children = [i for i, p in enumerate(tracer.parents) if p == root]
    assert [tracer.names[i] for i in children] == ["provenance.ancestors"]
    rows = tracer.summary()
    skeleton = rows["provenance.reduce_to_skeleton"]
    ancestors = rows["provenance.ancestors"]
    assert skeleton["self_ns"] == skeleton["incl_ns"] - ancestors["incl_ns"]
    values, missing = tr.layer_metrics(tracer, 1.0, 1.0)
    assert missing == []
    assert values["provenance.ancestors_calls"] == 1
    assert values["provenance.nodes_before"] == 5
    assert 0 < values["provenance.kept_ratio"] <= 1


def test_missing_probe_target_is_reported_not_raised():
    probes = tuple(
        dataclasses.replace(p, target=p.target + "_gone")
        if p.span == "provenance.ancestors" else p
        for p in tr.PROBES
    )
    tracer = tr.Tracer()
    tracer.install(probes)
    try:
        provenance.reduce_to_skeleton(_chain_graph())
    finally:
        tracer.uninstall()
    assert [p.target for p in tracer.missing] == [
        "trustgate.provenance.ancestors_gone"]
    values, missing = tr.layer_metrics(tracer, 1.0, 1.0)
    assert missing == ["provenance.ancestors_calls", "provenance.ancestors_ms"]
    assert values["provenance.ancestors_calls"] == 0
    assert values["provenance.skeleton_ms"] > 0


def test_exits_nonzero_without_result_when_sources_are_absent():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
        bench = Path(bare) / "bench"
        bench.mkdir()
        for name in ("run_bench.py", "workloads.py", "tracer.py"):
            (bench / name).write_text((BENCH / name).read_text())
        proc = subprocess.run(
            [sys.executable, "bench/run_bench.py", "--workload", "fleet-sim",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
