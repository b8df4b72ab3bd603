"""trustgate benchmark: one command per workload run.

    python3 bench/run_bench.py --workload {fleet-sim,gate-serve,archive-cold,all}
        --seed N --seconds S --trace {0,1}

Run it from the repository root; trustgate is imported from ``src/``.
``--workload all`` runs the three workloads one after another, each in
its own process.

``--trace 0`` sets the inputs up several times (reporting the median
as ``setup_s``), runs one warm-up repetition, then repeats the workload
for about ``--seconds`` seconds with tracing off and reports the
end-to-end metrics. ``--trace 1`` runs a warm-up and three repetitions,
the middle one traced, and reports the per-layer metrics derived from
the spans plus the tracing overhead (traced minus untraced wall time).

Every run checks its outputs (see ``workloads.py``) and prints, on
stdout: machine facts, each metric by its name with unit and sample
count, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The same result, with the
machine facts, goes to ``.bench_out/``; traced runs also write their
spans there. The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
WORKLOAD_NAMES = ("fleet-sim", "gate-serve", "archive-cold")

# End-to-end metrics: name -> unit. Every workload reports all of them.
# An item is a decision (fleet-sim, gate-serve) or an event (archive-cold).
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def git_sha(root: Path) -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a repository."""

    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "platform": platform.platform(),
    }


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_rep(workload, inputs, work: Path):
    """One repetition; an exception is a failed operation, not a crash."""

    gc.collect()
    try:
        return workload.rep(inputs, work), None
    except Exception:
        return None, traceback.format_exc()


def measure(workload, seed: int, seconds: float, sizes, work: Path):
    """Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S
    seconds (a set-up of milliseconds needs many samples for a steady
    median), run one untimed warm-up repetition,
    then repeat until the next repetition would overrun ``seconds``.
    Returns setup times, all repetitions (warm-up first) and errors."""

    setup_times = []
    gc.collect()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = workload.setup(seed, sizes, work)
        setup_times.append(time.perf_counter() - t0)
    warm, error = _run_rep(workload, inputs, work)
    if error is not None:
        return setup_times, [], [error]
    reps, errors = [warm], []
    start = time.perf_counter()
    while True:
        rep, error = _run_rep(workload, inputs, work)
        if error is not None:
            errors.append(error)
            break
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(reps) - 1) > seconds:
            break
    return setup_times, reps, errors


def trace(workload, seed: int, sizes, work: Path):
    """Warm-up, untraced, traced, untraced. The overhead compares the
    traced repetition with the mean of the two untraced ones around it.
    Returns the tracer and all repetitions (warm-up first)."""

    from tracer import PROBES, Tracer

    inputs = workload.setup(seed, sizes, work)
    tracer = Tracer()
    reps = []
    for traced in (False, False, True, False):
        if traced:
            tracer.install(PROBES)
        try:
            rep, error = _run_rep(workload, inputs, work)
        finally:
            tracer.uninstall()
        if error is not None:
            return None, reps, [error]
        reps.append(rep)
    return tracer, reps, []


def _per_rep_median(reps, value) -> float:
    """Median over repetitions, so a slow stretch of the machine that
    spans a minority of repetitions does not move the result."""

    return statistics.median(value(r) for r in reps)


def _end_to_end(setup_times, reps) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": _per_rep_median(reps, lambda r: r.items / r.wall_s),
        "peak_rss_mb": _peak_rss_mb(),
    }


_NAMED_UNITS = {"run_s": "s", "replay_ms": "ms", "archive_s": "s",
                "restore_s": "s", "archive_bytes_per_event": "B"}


def _named(name: str, setup_times, reps) -> list[tuple[str, float, str, int]]:
    """The workload's metrics under their own names: (name, value, unit, n).
    Like the end-to-end metrics, each is a median over repetitions."""

    rows = [("setup_s", statistics.median(setup_times), "s",
             len(setup_times))]
    for key in reps[0].named:
        rows.append((key, _per_rep_median(reps, lambda r: r.named[key]),
                     _NAMED_UNITS[key], len(reps)))
    if name == "gate-serve":
        samples = sum(len(r.latencies_ms) for r in reps)
        for label, q in (("decide_p50_us", 0.5), ("decide_p99_us", 0.99)):
            value = _per_rep_median(
                reps, lambda r: _percentile(r.latencies_ms, q))
            rows.append((label, value * 1e3, "us", samples))
        rows.append(("decisions_per_s",
                     _per_rep_median(reps, lambda r: r.items / r.wall_s),
                     "1/s", len(reps)))
    rows.append(("peak_rss_mb", _peak_rss_mb(), "MB", 1))
    return rows


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""

    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.toy:
            argv.append("--toy")
        sys.stdout.flush()
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "trustgate" / "__init__.py").is_file():
        print(f"error: trustgate sources not found under {src}",
              file=sys.stderr)
        return 2
    # Workloads are single-threaded: keep numpy's BLAS from starting
    # worker threads. Must be set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    sizes = workload.toy if args.toy else workload.sizes
    out_dir = ROOT / ".bench_out"
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        work = Path(work)
        if args.trace:
            tracer, reps, errors = trace(workload, args.seed, sizes, work)
            setup_times = []
        else:
            setup_times, reps, errors = measure(
                workload, args.seed, args.seconds, sizes, work)
            tracer = None

    failures = [e for r in reps for e in r.errors] + errors
    if len({r.digest for r in reps}) > 1:
        failures.append("outputs differ between repetitions")
    attempted = sum(r.attempted for r in reps) + len(errors)
    failed = sum(r.failed for r in reps) + len(errors)

    metrics: dict[str, dict] = {}
    missing: list[str] = []
    if args.trace and tracer is not None:
        from tracer import LAYER_METRICS, layer_metrics

        untraced_s = (reps[1].wall_s + reps[3].wall_s) / 2
        values, missing = layer_metrics(tracer, reps[2].wall_s, untraced_s)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, (u, _) in LAYER_METRICS.items()}
        tracer.write_spans(out_dir / f"spans-{tag}.jsonl")
    elif not args.trace and len(reps) > 1:
        values = _end_to_end(setup_times, reps[1:])
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    named = (_named(args.workload, setup_times, reps[1:])
             if not args.trace and len(reps) > 1 else [])
    named.append(("fail_ratio", failed / attempted if attempted else 1.0,
                  "ratio", attempted))
    for key, value, unit, count in named:
        print(f"{args.workload} {key} = {value:.6g} {unit} (n={count})")
    printed = {row[0] for row in named}
    for key, metric in metrics.items():
        if key not in printed:
            print(f"{args.workload} {key} = {metric['value']:.6g} "
                  f"{metric['unit']}")
    for key in missing:
        print(f"{args.workload} {key} = missing (probe target not found)")
    if reps and "artifacts_sha256" in reps[0].info:
        for artifact, digest in reps[0].info["artifacts_sha256"].items():
            print(f"{args.workload} sha256 {artifact} {digest}")
    for failure in failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)

    result = {
        "correct": not failures and bool(reps),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
            "machine": facts, "result": result,
            "named": [{"name": k, "value": v, "unit": u, "n": n}
                      for k, v, u, n in named],
            "missing": missing, "failures": failures,
            "repetitions": [r.info for r in reps],
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
