"""Acceptance gate: one test per acceptance criterion.

Run ``pytest -v tests/test_acceptance.py``; the verbose PASSED/FAILED
line for each ``criterion_*`` test is the pass/fail line for that
criterion. Every check here is against an independent oracle, an
exhaustive enumeration, or a frozen expected value — never against the
implementation's own output.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from trustgate.engine import quorum_approve
from trustgate.logcodec import (
    archive_from_bytes,
    archive_to_bytes,
    average_length,
    build_codebook,
    collect_patterns,
    decode,
    encode,
)
from trustgate.model import AttributeKind
from trustgate.provenance import ancestors, apply_rules, reduce_to_skeleton
from trustgate.reputation import (
    InteractionLedger,
    global_trust,
    normalize,
)
from trustgate.secretshare import (
    FieldParams,
    ThresholdPolicy,
    reconstruct,
    secrecy_probe,
    split,
)
from trustgate.simnet import reference_scenario, replay, run

from test_cache import OracleCache, record_for, triplet as cache_triplet
from test_logcodec import (
    entropy_bits,
    oracle_optimal_length,
    table_from_counts,
)
from test_provenance import burst_rule, oracle_ancestors, random_dag
from trustgate.cache import CacheConfig, ScoreStore, TrustScoreCache

ARTIFACTS = ("config.json", "events.jsonl", "audit.jsonl",
             "report.json", "access.json")


@pytest.fixture(scope="module")
def reference_runs(tmp_path_factory):
    """The canonical scenario executed twice into separate directories."""

    base = tmp_path_factory.mktemp("reference")
    first, second = base / "a", base / "b"
    report_a = run(reference_scenario(), first)
    report_b = run(reference_scenario(), second)
    return first, second, report_a, report_b


def test_criterion_1_threshold_sharing():
    """Any z of n shares reconstruct; fewer shares reveal nothing.

    1000 random (secret, n, z, prime) cases with every z-subset
    reconstructed exactly, inside a 5-second budget, plus exhaustive
    perfect-secrecy enumeration over GF(7).
    """

    rng = random.Random(424242)
    big = FieldParams()          # 2**61 - 1
    small = FieldParams(257)
    start = time.monotonic()
    reconstructions = 0
    for _ in range(1000):
        field = big if rng.random() < 0.5 else small
        n = rng.randrange(2, 7)
        z = rng.randrange(2, n + 1)
        secret = rng.randrange(field.prime)
        shares = split(secret, ThresholdPolicy(n=n, z=z), field, rng)
        for subset in itertools.combinations(shares, z):
            assert reconstruct(list(subset), field) == secret
            reconstructions += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, (
        f"{reconstructions} reconstructions took {elapsed:.2f}s (budget 5s)"
    )

    # Perfect secrecy, exhaustively: with z - 1 = 2 of the shares, every
    # candidate secret in GF(7) fits an equal number of polynomials.
    field7 = FieldParams(7)
    for secret in range(7):
        shares = split(secret, ThresholdPolicy(n=4, z=3), field7, rng)
        for partial in itertools.combinations(shares, 2):
            for candidate in range(7):
                assert secrecy_probe(list(partial), field7, candidate)
            constants = [
                coeffs[0]
                for coeffs in itertools.product(range(7), repeat=3)
                if all(
                    (coeffs[0] + coeffs[1] * s.x + coeffs[2] * s.x * s.x)
                    % 7 == s.y
                    for s in partial
                )
            ]
            assert sorted(constants) == list(range(7))
    print(f"criterion 1: {reconstructions} exact reconstructions "
          f"in {elapsed:.2f}s; GF(7) secrecy exhaustive")


def test_criterion_2_pattern_coding_optimality():
    """Codebooks are cost-optimal and archives round-trip.

    200 random tables matched exactly against a brute-force
    minimum-over-all-trees oracle, 1000 tables inside the entropy
    band H <= L < H + 1, the frozen 56/25 fixture, and a
    10,000-record archive surviving a byte-level round trip.
    """

    rng = random.Random(515151)
    for _ in range(200):
        k = rng.randrange(2, 7)
        counts = {f"p{i:02d}": rng.randrange(1, 50) for i in range(k)}
        table = build_codebook(table_from_counts(counts))
        probs = [p.probability for p in table.patterns]
        assert average_length(table) == oracle_optimal_length(probs)

    for _ in range(1000):
        k = rng.randrange(2, 13)
        counts = {f"p{i:02d}": rng.randrange(1, 80) for i in range(k)}
        table = build_codebook(table_from_counts(counts))
        probs = [p.probability for p in table.patterns]
        avg = float(average_length(table))
        h = entropy_bits(probs)
        assert h - 1e-9 <= avg < h + 1.0 + 1e-9

    fixture = build_codebook(table_from_counts(
        {"a": 45, "b": 16, "c": 13, "d": 12, "e": 9, "f": 5}
    ))
    assert average_length(fixture) == Fraction(56, 25)

    records = [
        (AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID,
         f"net-{rng.randrange(30):02d}")
        for _ in range(10_000)
    ]
    table = build_codebook(collect_patterns(records))
    archive = encode(records, table)
    recovered = decode(archive_from_bytes(archive_to_bytes(archive)))
    assert recovered == records
    print(f"criterion 2: 200 oracle matches, 1000 entropy-band tables, "
          f"10k-record archive round trip "
          f"({len(archive.payload)} payload bytes)")


def test_criterion_3_peer_reputation():
    """Global trust converges to the fixed point and zeroes colluders.

    Symmetric three-peer fixed point within 1e-12, a 100-peer network
    converging below 1e-9 inside the iteration cap, and a five-member
    collusion clique pinned to exactly zero.
    """

    triangle = InteractionLedger(peers=("p1", "p2", "p3"))
    for p in triangle.peers:
        for q in triangle.peers:
            if p != q:
                triangle.record_sat(p, q)
    vector = global_trust(normalize(triangle), triangle.peers, a=0.0)
    for peer in triangle.peers:
        assert abs(vector.scores[peer] - 1 / 3) < 1e-12

    rng = random.Random(626262)
    peers = tuple(f"peer-{i:03d}" for i in range(100))
    big = InteractionLedger(peers=peers)
    for p in peers:
        for q in peers:
            if p != q and rng.random() < 0.3:
                big.record_sat(p, q, rng.randrange(1, 20))
                if rng.random() < 0.2:
                    big.record_unsat(p, q, rng.randrange(1, 5))
    result = global_trust(normalize(big), peers[:10], a=0.1, epsilon=1e-9)
    assert result.converged
    assert result.residual < 1e-9
    assert result.iterations_used <= 200

    honest = [f"h{i:02d}" for i in range(20)]
    clique = [f"m{i}" for i in range(5)]
    ledger = InteractionLedger(peers=tuple(honest + clique))
    for p in honest:
        for q in honest:
            if p != q and rng.random() < 0.4:
                ledger.record_sat(p, q, rng.randrange(1, 10))
    for p in clique:
        for q in clique:
            if p != q:
                ledger.record_sat(p, q, 50)
    isolated = global_trust(normalize(ledger), tuple(honest))
    for m in clique:
        assert isolated.scores[m] == 0.0
    assert all(isolated.scores[h] > 0.0 for h in honest)
    print(f"criterion 3: fixed point exact, 100-peer residual "
          f"{result.residual:.2e} in {result.iterations_used} iterations, "
          f"clique pinned to zero")


def test_criterion_4_provenance_reduction(reference_runs):
    """Skeletons preserve exactly the alerts and their ancestry.

    500 random DAGs up to 200 nodes: the module's ancestor sets match
    an independent reachability oracle, the kept-plus-collapsed totals
    balance the oracle's ancestry exactly, reduction never grows a
    graph, and the reference scenario strictly shrinks its log.
    """

    rng = random.Random(737373)
    rules = [burst_rule(7)]
    for _ in range(500):
        graph = apply_rules(random_dag(rng, rng.randrange(1, 201)), rules)
        alert_ids = {a.event_id for a in graph.alerts}
        expected = set(alert_ids)
        for aid in alert_ids:
            assert ancestors(graph, aid) == oracle_ancestors(graph, aid)
            expected |= oracle_ancestors(graph, aid)
        skeleton = reduce_to_skeleton(graph)
        kept = set(skeleton.nodes)
        # Alerts always survive; nothing outside the ancestry enters;
        # and every ancestry node is either kept or counted by exactly
        # one summary edge, so the totals must balance.
        assert alert_ids <= kept <= expected
        collapsed = sum(s.collapsed_count for s in skeleton.summary_edges)
        assert len(kept) + collapsed == len(expected)
        assert len(kept) <= len(graph.nodes)

    _, _, report, _ = reference_runs
    ratio = report.reduction["ratio"]
    assert 0.0 < ratio < 1.0
    print(f"criterion 4: 500 DAGs match the reachability oracle; "
          f"reference reduction ratio {ratio:.4f}")


def test_criterion_5_score_cache(reference_runs):
    """The cache is an exact LRU with a hard staleness ceiling.

    10,000 operations replayed against an independent dictionary
    model (tiers, records, metrics all identical), and the reference
    run never serves a record older than its refresh interval.
    """

    max_refresh = 40
    cache = TrustScoreCache(
        CacheConfig(capacity=8, max_refresh=max_refresh), ScoreStore()
    )
    oracle = OracleCache(8, max_refresh)
    rng = random.Random(848484)
    now = 0
    for _ in range(10_000):
        now += rng.randrange(0, 8)
        t = cache_triplet(rng.randrange(15))
        record, tier = cache.get_score(t, now, record_for)
        expected = oracle.get(t, now)
        assert record == expected
        assert tier == oracle.tiers[-1]
        assert now - record.computed_at <= max_refresh
    assert cache.metrics.to_obj() == oracle.metrics

    _, _, report, _ = reference_runs
    refresh_interval = reference_scenario().refresh_interval
    assert report.max_served_age <= refresh_interval
    print(f"criterion 5: 10k-op trace identical to oracle; reference "
          f"max served age {report.max_served_age}s <= "
          f"{refresh_interval}s ceiling")


def test_criterion_6_simulation_determinism_and_containment(reference_runs):
    """Runs are replayable and compromises are contained.

    Two executions of the reference scenario produce byte-identical
    artifacts, the audit replay verifies clean, containment time is
    finite with zero malicious grants afterwards, and the approver
    quorum grants exactly while at most n - z approvers are down
    (exhaustive over all 0-3 subsets).
    """

    first, second, report_a, report_b = reference_runs
    assert report_a == report_b
    for name in ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), (
            f"{name} differs between identical runs"
        )
    assert replay(first).to_obj() == report_a.to_obj()

    assert report_a.first_compromise_time is not None
    assert report_a.time_to_containment is not None
    assert report_a.time_to_containment <= reference_scenario().duration
    assert report_a.post_containment_malicious > 0
    assert report_a.post_containment_granted == 0

    from test_engine import make_quorum
    ids = [f"approver-{i}" for i in range(1, 6)]
    checked = 0
    for r in range(4):                       # 0..3 approvers down
        for downset in itertools.combinations(ids, r):
            client, token = make_quorum(down=frozenset(downset))
            result = quorum_approve("res-high", client,
                                    ThresholdPolicy(5, 3))
            if 5 - r >= 3:
                assert result and result.token == token, downset
            else:
                assert not result, downset
            checked += 1
    assert checked == 26
    print(f"criterion 6: byte-identical artifacts, containment at "
          f"t={report_a.time_to_containment} with zero grants after, "
          f"{checked} approver-outage subsets exhaustive")
