"""Command-line front end.

Every subcommand prints a single JSON document to stdout and
diagnostics to stderr. Exit status: 0 on success, 1 on a domain error
(bad input data, failed reconstruction, replay mismatch), 2 on usage
errors. All randomness flows from an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import simnet
from .cache import (
    DEFAULT_CAPACITY,
    DEFAULT_MAX_REFRESH,
    CacheConfig,
    ScoreStore,
    TrustScoreCache,
)
from .engine import behavioral_score, load_policy, make_record
from .logcodec import (
    average_length,
    build_codebook,
    collect_patterns,
    encode,
    read_archive,
    records_from_events,
    write_archive,
)
from .model import (
    ModelError, Triplet, check_u64, format_json, parse_lines, read_events)
from .provenance import (
    build_graph,
    load_rules,
    skeleton_to_obj,
    write_skeleton,
)
from .reputation import (
    DEFAULT_DAMPING,
    DEFAULT_EPSILON,
    global_trust,
    load_ledger,
    normalize,
    trust_vector_to_obj,
)
from .secretshare import (
    FieldParams,
    ThresholdPolicy,
    read_share_file,
    reconstruct_integer,
    share_to_obj,
    split_integer,
    write_share_file,
)
from .store import DEFAULT_ATTRIBUTE_WINDOW, HotStore, archive_batch


def _emit(obj: object) -> None:
    sys.stdout.write(format_json(obj))


def _parse_triplet(text: str) -> Triplet:
    parts = text.split(",")
    if len(parts) != 3:
        raise ModelError(
            "triplet must be 'user,device,resource'"
        )
    return Triplet(user_id=parts[0], device_id=parts[1], resource_id=parts[2])


# --- subcommands ------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config is not None:
        config = simnet.load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    else:
        config = simnet.reference_scenario(
            seed=args.seed if args.seed is not None else 42
        )
    report = simnet.run(config, out_dir=args.out)
    _emit(report.to_obj())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    report = simnet.replay(args.out)
    _emit(report.to_obj())
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    events = read_events(args.events)
    build_graph(events)  # the same log check as skeleton
    policy = load_policy(args.policy)
    triplet = _parse_triplet(args.triplet)
    hot = HotStore(events)
    now = args.now if args.now is not None else max(
        (e.timestamp for e in events), default=0
    )
    check_u64(now, "now")
    window = hot.query_window(triplet, now, args.window)
    behavioral = behavioral_score(window, policy)
    record = make_record(triplet, behavioral, args.reputation,
                         policy.alpha, now)
    _emit({
        "triplet": list(triplet),
        "now": now,
        "window_attributes": {
            k.value: v for k, v in sorted(
                window.items(), key=lambda kv: kv[0].value
            )
        },
        "behavioral": record.behavioral,
        "reputation": record.reputation,
        "combined": record.combined,
        "threshold": float(policy.threshold_for(triplet.resource_id)),
        "sensitivity": policy.sensitivity_for(triplet.resource_id),
    })
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    events = read_events(args.infile)
    records = records_from_events(events)
    table = build_codebook(collect_patterns(records))
    archive = encode(records, table)
    write_archive(args.out, archive)
    avg = average_length(table)
    _emit({
        "records": archive.record_count,
        "patterns": len(archive.codebook),
        "payload_bytes": len(archive.payload),
        "avg_code_length": float(avg),
        "avg_code_length_exact": str(avg),
    })
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    _, records = read_archive(args.infile)
    # ASCII-escaped, unlike the archive's own pattern keys.
    lines = [json.dumps({kind.value: value}, separators=(",", ":"))
             for kind, value in records]
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        _emit({"records": len(records), "out": str(args.out)})
    else:
        for line in lines:
            sys.stdout.write(line)
            sys.stdout.write("\n")
    return 0


def _cmd_skeleton(args: argparse.Namespace) -> int:
    events = read_events(args.infile)
    batch = archive_batch(events, load_rules(args.rules))
    if args.out is not None:
        write_skeleton(args.out, batch.skeleton)
    result = {
        **batch.summary(),
        "summary_edges": len(batch.skeleton.summary_edges),
    }
    if args.out is None:
        result["skeleton"] = skeleton_to_obj(batch.skeleton)
    _emit(result)
    return 0


def _cmd_reputation(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.ledger)
    pretrusted = [p for p in args.pretrusted.split(",") if p]
    local = normalize(ledger)
    vector = global_trust(
        local, pretrusted, a=args.damping, epsilon=args.epsilon
    )
    _emit({
        "scores": trust_vector_to_obj(vector),
        "iterations_used": vector.iterations_used,
        "residual": vector.residual,
        "converged": vector.converged,
        "zero_rows": list(local.zero_rows),
    })
    return 0


def _cmd_share_split(args: argparse.Namespace) -> int:
    field = FieldParams(args.prime)
    policy = ThresholdPolicy(n=args.n, z=args.z)
    rng = random.Random(args.seed)
    per_participant = split_integer(args.secret, policy, field, rng)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, chunks in enumerate(per_participant, start=1):
            path = out / f"share-{i}.json"
            write_share_file(path, chunks)
            paths.append(str(path))
        _emit({
            "n": args.n, "z": args.z, "prime": args.prime,
            "scheme_id": per_participant[0][0].scheme_id,
            "chunks": len(per_participant[0]),
            "files": paths,
        })
    else:
        _emit([
            [share_to_obj(s) for s in chunks]
            for chunks in per_participant
        ])
    return 0


def _cmd_share_join(args: argparse.Namespace) -> int:
    per_participant = [read_share_file(path) for path in args.shares]
    secret = reconstruct_integer(per_participant)
    _emit({"secret": secret})
    return 0


def _trace_row(line: str) -> tuple[Triplet, int]:
    """The triplet and time of one cache-bench trace line, which must be
    ``{"triplet": [user, device, resource], "now": int}``."""

    obj = json.loads(line)
    if not isinstance(obj, dict) or set(obj) != {"triplet", "now"}:
        raise ModelError('expected an object with keys "triplet" and "now"')
    ids, now = obj["triplet"], obj["now"]
    if not isinstance(ids, list) or len(ids) != 3:
        raise ModelError("triplet must be a list of three strings")
    check_u64(now, "now")
    return Triplet(*ids), now


def _cmd_cache_bench(args: argparse.Namespace) -> int:
    cache = TrustScoreCache(
        CacheConfig(capacity=args.capacity, max_refresh=args.max_refresh),
        ScoreStore(),
    )

    def recompute(triplet: Triplet, now: int):
        return make_record(triplet, 1.0, 1.0, Fraction(1, 2), now)

    tiers = {"cache_hit": 0, "store_hit": 0, "recomputed": 0}
    with open(args.trace, "rb") as fh:
        for triplet, now in parse_lines(fh, _trace_row, ModelError,
                                        "trace line"):
            _, tier = cache.get_score(triplet, now, recompute)
            tiers[tier] += 1
    _emit({
        "operations": sum(tiers.values()),
        "tiers": tiers,
        "metrics": cache.metrics.to_obj(),
        "max_served_age": cache.metrics.max_served_age,
    })
    return 0


def _cmd_verify_archive(args: argparse.Namespace) -> int:
    archive, records = read_archive(args.infile)
    avg = average_length(
        build_codebook(collect_patterns(records))
    ) if records else None
    _emit({
        "records": len(records),
        "patterns": len(archive.codebook),
        "avg_code_length": float(avg) if avg is not None else None,
    })
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustgate",
        description="Zero-trust access engine and network simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario deterministically")
    p.add_argument("--config", help="scenario JSON (default: reference)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("replay", help="re-derive a report from its audit log")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("score", help="score one triplet from an event log")
    p.add_argument("--events", required=True, help="events JSONL")
    p.add_argument("--policy", required=True, help="policy JSON")
    p.add_argument("--triplet", required=True, help="user,device,resource")
    p.add_argument("--now", type=int, help="evaluation time (default: max ts)")
    p.add_argument("--window", type=int, default=DEFAULT_ATTRIBUTE_WINDOW,
                   help="attribute window seconds (default %(default)s)")
    p.add_argument("--reputation", type=float, default=1.0,
                   help="peer reputation input (default 1.0)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("compress", help="encode an event log into an archive")
    p.add_argument("--in", dest="infile", required=True, help="events JSONL")
    p.add_argument("--out", required=True, help="archive path")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decode an archive back to records")
    p.add_argument("--in", dest="infile", required=True, help="archive path")
    p.add_argument("--out", help="records JSONL (default: stdout)")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("skeleton", help="reduce an event log to its skeleton")
    p.add_argument("--in", dest="infile", required=True, help="events JSONL")
    p.add_argument("--rules", required=True, help="alert rules JSON")
    p.add_argument("--out", help="skeleton JSON (default: inline)")
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("reputation", help="compute global trust scores")
    p.add_argument("--ledger", required=True, help="interaction ledger JSON")
    p.add_argument("--pretrusted", required=True,
                   help="comma-separated pre-trusted peers")
    p.add_argument("--a", dest="damping", type=float, default=DEFAULT_DAMPING,
                   help="damping factor (default %(default)s)")
    p.add_argument("--eps", dest="epsilon", type=float,
                   default=DEFAULT_EPSILON,
                   help="convergence threshold (default %(default)s)")
    p.set_defaults(func=_cmd_reputation)

    p = sub.add_parser("share-split", help="split a secret into n shares")
    p.add_argument("--secret", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="share count")
    p.add_argument("--z", type=int, required=True, help="threshold")
    p.add_argument("--prime", type=int, default=FieldParams().prime)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="directory for share-<i>.json files")
    p.set_defaults(func=_cmd_share_split)

    p = sub.add_parser("share-join", help="rebuild a secret from share files")
    p.add_argument("--shares", nargs="+", required=True)
    p.set_defaults(func=_cmd_share_join)

    p = sub.add_parser("cache-bench", help="drive the score cache from a trace")
    p.add_argument("--trace", required=True,
                   help="JSONL of {\"triplet\": [u,d,r], \"now\": t}")
    p.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    p.add_argument("--max-refresh", type=int, default=DEFAULT_MAX_REFRESH)
    p.set_defaults(func=_cmd_cache_bench)

    p = sub.add_parser("verify-archive", help="decode and re-rank an archive")
    p.add_argument("--in", dest="infile", required=True, help="archive path")
    p.set_defaults(func=_cmd_verify_archive)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
