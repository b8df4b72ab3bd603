"""In-memory span tracer for the trustgate benchmark.

The tracer times trustgate from the outside: it replaces public
functions and methods with wrappers that record a span per call, at
every module attribute through which trustgate code (or the benchmark)
looks the function up. Nothing under ``src/`` changes.

A span is (name, start, end, parent, request). Spans nest by call
order, because every workload is single-threaded. A layer's self time
is its span's duration minus the durations of its direct children.
Spans stay in memory until the run ends and are then written out as
JSON Lines.

A probe whose target no longer exists (a later change may move or
delete the function) is reported as missing; the metrics that depend
on it read 0 and are listed as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_PACKAGE = "trustgate"


@dataclass(frozen=True)
class Probe:
    """One wrapped function: span name, dotted target, optional hooks.

    ``after(tracer, args, kwargs, result)`` runs after a call returns and
    records counts at the same boundary. ``wrap_args(tracer, args,
    kwargs)`` may substitute arguments (e.g. wrap a callback) before the
    call. ``request_root`` starts a new request id when the span opens
    outside any request.
    """

    span: str
    target: str
    after: Callable | None = None
    wrap_args: Callable | None = None
    request_root: bool = False


class Tracer:
    """Span store plus counters, with wrapper install and removal."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self._stack: list[int] = []
        self._last_request = 0
        self.counters: dict[str, float] = {}
        self.missing: list[Probe] = []
        # Sweep bookkeeping: triplet -> record a sweep recomputed and
        # nobody has been served yet.
        self.sweep_pending: dict[object, object] = {}
        self.caches: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, request_root: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        request = self.requests[parent] if parent >= 0 else 0
        if request_root and request == 0:
            self._last_request += 1
            request = self._last_request
        index = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.requests.append(request)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def install(self, probes: tuple[Probe, ...]) -> None:
        """Wrap every probe target at each name trustgate binds it to."""

        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == _PACKAGE
                                  or name.startswith(_PACKAGE + "."))
        ]
        for probe in probes:
            owner, attr, original = _resolve(probe.target)
            if original is None:
                self.missing.append(probe)
                continue
            wrapper = self._wrap(probe, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        tracer = self
        name = probe.span
        after = probe.after
        wrap_args = probe.wrap_args
        root = probe.request_root

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(tracer, args, kwargs)
            index = tracer.open(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, inclusive and self nanoseconds."""

        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, int]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["incl_ns"] += duration
            row["self_ns"] += duration - child_ns[i]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name,
                    "start_ns": self.starts[i],
                    "end_ns": self.ends[i],
                    "parent": self.parents[i],
                    "request": self.requests[i],
                }))
                fh.write("\n")


def _resolve(target: str) -> tuple[object, str, object | None]:
    """Find ``target`` as module[.Class].attribute; None when absent."""

    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, parts[-1], None
        return owner, parts[-1], getattr(owner, parts[-1], None)
    return None, parts[-1], None


# --- probe hooks --------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _after_skeleton(tracer: Tracer, args, kwargs, result) -> None:
    graph = _arg(args, kwargs, 0, "graph")
    tracer.add("provenance.nodes_before", len(graph.nodes))
    tracer.add("provenance.nodes_after", len(result.nodes))


def _after_encode(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("logcodec.records", result.record_count)
    tracer.add("logcodec.payload_bits", 8 * len(result.payload))


def _after_global_trust(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("reputation.iterations", result.iterations_used)


def _after_get_score(tracer: Tracer, args, kwargs, result) -> None:
    cache = args[0]
    triplet = _arg(args, kwargs, 1, "triplet")
    record, kind = result
    tracer.add(f"cache.kind.{kind}")
    if tracer.sweep_pending.get(triplet) is record:
        tracer.add("cache.sweep_useful")
        del tracer.sweep_pending[triplet]
    tracer.caches[id(cache)] = cache


def _wrap_sweep_args(tracer: Tracer, args, kwargs):
    """Record which records a sweep recomputes, so later lookups can
    tell whether each one was served before being replaced."""

    recompute = _arg(args, kwargs, 2, "recompute")

    def capturing(triplet, now):
        record = recompute(triplet, now)
        tracer.sweep_pending[triplet] = record
        tracer.add("cache.sweep_recomputes")
        return record

    if len(args) > 2:
        args = (*args[:2], capturing, *args[3:])
    else:
        kwargs = {**kwargs, "recompute": capturing}
    return args, kwargs


def _after_sweep(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("cache.sweep_refreshed", result.refreshed)
    tracer.caches[id(args[0])] = args[0]


PROBES: tuple[Probe, ...] = (
    Probe("simnet.run", "trustgate.simnet.run"),
    Probe("simnet.replay", "trustgate.simnet.replay"),
    Probe("model.read_events", "trustgate.model.read_events"),
    Probe("model.write_events", "trustgate.model.write_events"),
    Probe("provenance.build_graph", "trustgate.provenance.build_graph"),
    Probe("provenance.apply_rules", "trustgate.provenance.apply_rules"),
    Probe("provenance.reduce_to_skeleton",
          "trustgate.provenance.reduce_to_skeleton", after=_after_skeleton),
    Probe("provenance.ancestors", "trustgate.provenance.ancestors"),
    Probe("logcodec.collect_patterns", "trustgate.logcodec.collect_patterns"),
    Probe("logcodec.build_codebook", "trustgate.logcodec.build_codebook"),
    Probe("logcodec.encode", "trustgate.logcodec.encode", after=_after_encode),
    Probe("logcodec.decode", "trustgate.logcodec.decode"),
    Probe("reputation.normalize", "trustgate.reputation.normalize"),
    Probe("reputation.global_trust", "trustgate.reputation.global_trust",
          after=_after_global_trust),
    Probe("secretshare.reconstruct", "trustgate.secretshare.reconstruct"),
    Probe("engine.behavioral_score", "trustgate.engine.behavioral_score"),
    Probe("engine.decide", "trustgate.engine.decide", request_root=True),
    Probe("engine.quorum_approve", "trustgate.engine.quorum_approve"),
    Probe("engine.audit_line", "trustgate.engine.audit_line"),
    Probe("cache.get_score", "trustgate.cache.TrustScoreCache.get_score",
          after=_after_get_score),
    Probe("cache.refresh_sweep", "trustgate.cache.TrustScoreCache.refresh_sweep",
          after=_after_sweep, wrap_args=_wrap_sweep_args),
    Probe("store.query_window", "trustgate.store.HotStore.query_window"),
    Probe("store.append_events", "trustgate.store.HotStore.append_events"),
)


# Per-layer metric -> (unit, spans it is derived from). A metric whose
# span's probe target is missing is reported as missing.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "provenance.skeleton_ms": ("ms", ("provenance.reduce_to_skeleton",)),
    "provenance.ancestors_calls": ("count", ("provenance.ancestors",)),
    "provenance.ancestors_ms": ("ms", ("provenance.ancestors",)),
    "provenance.apply_rules_ms": ("ms", ("provenance.apply_rules",)),
    "provenance.kept_ratio": ("ratio", ("provenance.reduce_to_skeleton",)),
    "provenance.nodes_before": ("count", ("provenance.reduce_to_skeleton",)),
    "engine.decide_calls": ("count", ("engine.decide",)),
    "engine.decide_self_us": ("us", ("engine.decide",)),
    "engine.behavioral_us": ("us", ("engine.behavioral_score",)),
    "store.window_us": ("us", ("store.query_window",)),
    "store.append_us": ("us", ("store.append_events",)),
    "cache.lookups": ("count", ("cache.get_score",)),
    "cache.get_score_us": ("us", ("cache.get_score",)),
    "cache.hit_ratio": ("ratio", ("cache.get_score",)),
    "cache.store_hit_ratio": ("ratio", ("cache.get_score",)),
    "cache.evictions": ("count", ("cache.get_score",)),
    "cache.sweep_ms": ("ms", ("cache.refresh_sweep",)),
    "cache.sweep_refreshed": ("count", ("cache.refresh_sweep",)),
    "cache.sweep_useful_ratio": (
        "ratio", ("cache.refresh_sweep", "cache.get_score")),
    "reputation.normalize_ms": ("ms", ("reputation.normalize",)),
    "reputation.global_trust_ms": ("ms", ("reputation.global_trust",)),
    "reputation.iterations": ("count", ("reputation.global_trust",)),
    "engine.quorum_us": ("us", ("engine.quorum_approve",)),
    "secretshare.reconstruct_us": ("us", ("secretshare.reconstruct",)),
    "engine.audit_line_us": ("us", ("engine.audit_line",)),
    "logcodec.codebook_ms": (
        "ms", ("logcodec.collect_patterns", "logcodec.build_codebook")),
    "logcodec.encode_ms": ("ms", ("logcodec.encode",)),
    "logcodec.decode_ms": ("ms", ("logcodec.decode",)),
    "logcodec.bits_per_record": ("bits", ("logcodec.encode",)),
    "logcodec.records": ("count", ("logcodec.encode",)),
    "model.read_events_ms": ("ms", ("model.read_events",)),
    "model.write_events_ms": ("ms", ("model.write_events",)),
    "simnet.run_self_s": ("s", ("simnet.run",)),
    "simnet.replay_ms": ("ms", ("simnet.replay",)),
    "trace.spans": ("count", ()),
    "trace.overhead_ms": ("ms", ()),
    "trace.overhead_pct": ("%", ()),
}


def layer_metrics(
    tracer: Tracer, traced_s: float, untraced_s: float
) -> tuple[dict[str, float], list[str]]:
    """Derive every per-layer metric from the spans and counters.

    Returns the metric values and the metrics whose probe is missing.
    A layer the workload never calls reads 0.
    """

    rows = tracer.summary()
    counters = tracer.counters

    def calls(span: str) -> int:
        return rows.get(span, {}).get("calls", 0)

    def total_ms(*spans: str) -> float:
        return sum(rows.get(s, {}).get("incl_ns", 0) for s in spans) / 1e6

    def mean_us(span: str, key: str = "incl_ns") -> float:
        row = rows.get(span)
        return row[key] / row["calls"] / 1e3 if row else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = calls("cache.get_score")
    records = counters.get("logcodec.records", 0)
    values = {
        "provenance.skeleton_ms": total_ms("provenance.reduce_to_skeleton"),
        "provenance.ancestors_calls": calls("provenance.ancestors"),
        "provenance.ancestors_ms": total_ms("provenance.ancestors"),
        "provenance.apply_rules_ms": total_ms("provenance.apply_rules"),
        "provenance.kept_ratio": ratio(
            counters.get("provenance.nodes_after", 0),
            counters.get("provenance.nodes_before", 0)),
        "provenance.nodes_before": counters.get("provenance.nodes_before", 0),
        "engine.decide_calls": calls("engine.decide"),
        "engine.decide_self_us": mean_us("engine.decide", "self_ns"),
        "engine.behavioral_us": mean_us("engine.behavioral_score"),
        "store.window_us": mean_us("store.query_window"),
        "store.append_us": mean_us("store.append_events"),
        "cache.lookups": lookups,
        "cache.get_score_us": mean_us("cache.get_score"),
        "cache.hit_ratio": ratio(counters.get("cache.kind.cache_hit", 0),
                                 lookups),
        "cache.store_hit_ratio": ratio(
            counters.get("cache.kind.store_hit", 0), lookups),
        "cache.evictions": sum(
            c.metrics.evictions for c in tracer.caches.values()),
        "cache.sweep_ms": total_ms("cache.refresh_sweep"),
        "cache.sweep_refreshed": counters.get("cache.sweep_refreshed", 0),
        "cache.sweep_useful_ratio": ratio(
            counters.get("cache.sweep_useful", 0),
            counters.get("cache.sweep_recomputes", 0)),
        "reputation.normalize_ms": total_ms("reputation.normalize"),
        "reputation.global_trust_ms": total_ms("reputation.global_trust"),
        "reputation.iterations": counters.get("reputation.iterations", 0),
        "engine.quorum_us": mean_us("engine.quorum_approve"),
        "secretshare.reconstruct_us": mean_us("secretshare.reconstruct"),
        "engine.audit_line_us": mean_us("engine.audit_line"),
        "logcodec.codebook_ms": total_ms("logcodec.collect_patterns",
                                         "logcodec.build_codebook"),
        "logcodec.encode_ms": total_ms("logcodec.encode"),
        "logcodec.decode_ms": total_ms("logcodec.decode"),
        "logcodec.bits_per_record": ratio(
            counters.get("logcodec.payload_bits", 0), records),
        "logcodec.records": records,
        "model.read_events_ms": total_ms("model.read_events"),
        "model.write_events_ms": total_ms("model.write_events"),
        "simnet.run_self_s": rows.get("simnet.run", {}).get("self_ns", 0) / 1e9,
        "simnet.replay_ms": total_ms("simnet.replay"),
        "trace.spans": len(tracer.names),
        "trace.overhead_ms": (traced_s - untraced_s) * 1e3,
        "trace.overhead_pct": ratio(traced_s - untraced_s, untraced_s) * 100,
    }
    missing_spans = {p.span for p in tracer.missing}
    missing = sorted(
        metric for metric, (_, spans) in LAYER_METRICS.items()
        if missing_spans.intersection(spans)
    )
    return {k: float(v) for k, v in values.items()}, missing
