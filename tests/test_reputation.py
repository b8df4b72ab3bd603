"""Peer reputation: local trust normalization and the global iteration."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from trustgate.reputation import (
    InteractionLedger,
    ReputationError,
    global_trust,
    ledger_from_obj,
    load_ledger,
    normalize,
    trust_vector_to_obj,
)
from trustgate.simnet import ScenarioError, reference_scenario

from conftest import ledger_to_obj


def random_ledger(rng: random.Random, n: int,
                  density: float = 0.5) -> InteractionLedger:
    peers = tuple(f"peer-{i:02d}" for i in range(n))
    ledger = InteractionLedger(peers=peers)
    for p in peers:
        for q in peers:
            if p == q or rng.random() > density:
                continue
            ledger.record_sat(p, q, rng.randrange(0, 20))
            ledger.record_unsat(p, q, rng.randrange(0, 6))
    return ledger


# (id, epsilon, the refusal): an int is compared exactly, so one past
# the float range is refused as infinity is.
EPSILON_CASES = [
    ("zero", 0.0, "epsilon must be a finite positive number, got 0.0"),
    ("negative", -1e-9,
     "epsilon must be a finite positive number, got -1e-09"),
    ("nan", math.nan, "epsilon must be a finite positive number, got nan"),
    ("inf", math.inf, "epsilon must be a finite positive number, got inf"),
    ("past_float_range", 10**400,
     f"epsilon must be a finite positive number, got {10**400}"),
    ("string", "x", "epsilon must be a number, got 'x'"),
    ("bool", True, "epsilon must be a number, got True"),
]

DAMPING_CASES = [
    ("one", 1.0, "damping must lie in [0, 1)"),
    ("negative", -0.1, "damping must lie in [0, 1)"),
    ("nan", math.nan, "damping must lie in [0, 1)"),
    ("past_float_range", 10**400, "damping must lie in [0, 1)"),
    ("string", "x", "damping must be a number, got 'x'"),
    ("none", None, "damping must be a number, got None"),
]


class TestLedger:
    def test_self_interaction_rejected(self):
        ledger = InteractionLedger(peers=("a", "b"))
        with pytest.raises(ReputationError):
            ledger.record_sat("a", "a")
        with pytest.raises(ReputationError):
            ledger.record_unsat("b", "b")

    def test_unknown_peer_rejected(self):
        ledger = InteractionLedger(peers=("a", "b"))
        with pytest.raises(ReputationError):
            ledger.record_sat("a", "zz")

    def test_pair_errors_keep_their_messages(self):
        ledger = InteractionLedger(
            peers=tuple(f"dev-{i:04d}" for i in range(2000))
        )
        for record in (ledger.record_sat, ledger.record_unsat):
            with pytest.raises(ReputationError,
                               match="^self interactions are undefined$"):
                record("dev-0007", "dev-0007")
            with pytest.raises(ReputationError,
                               match="^unknown peer 'dev-2000'$"):
                record("dev-2000", "dev-0001")
            with pytest.raises(ReputationError,
                               match="^unknown peer 'zz'$"):
                record("dev-0001", "zz")
        assert ledger.sat == {} and ledger.unsat == {}
        ledger.record_sat("dev-1999", "dev-0000")
        assert ledger.sat == {("dev-1999", "dev-0000"): 1}

    def test_negative_count_rejected(self):
        ledger = InteractionLedger(peers=("a", "b"))
        with pytest.raises(ReputationError):
            ledger.record_sat("a", "b", -1)

    def test_separator_in_peer_id_rejected(self):
        with pytest.raises(ReputationError):
            InteractionLedger(peers=("a→b", "c"))


def dense_matrix(local) -> np.ndarray:
    """The n x n local trust matrix that the coordinate arrays stand for."""

    n = len(local.peers)
    c = np.zeros((n, n))
    c[local.rows, local.cols] = local.values
    return c


def row_sums(local) -> np.ndarray:
    return np.bincount(local.rows, weights=local.values,
                       minlength=len(local.peers))


def dense_global_trust(ledger, pretrusted, a=0.1, epsilon=1e-9,
                       max_iters=200):
    """Reference EigenTrust over dense arrays, as the library computed it
    before it went sparse: clamp, row-normalize, substitute ``e`` for the
    zero rows, then iterate ``t <- (1 - a) C^T t + a e`` from ``t = e``
    with the same renormalization and stopping rule. Returns the score
    vector in peer order, the iterations used and the converged flag."""

    peers = ledger.peers
    n = len(peers)
    index = {p: i for i, p in enumerate(peers)}
    raw = np.zeros((n, n))
    for (p, q), count in ledger.sat.items():
        raw[index[p], index[q]] += count
    for (p, q), count in ledger.unsat.items():
        raw[index[p], index[q]] -= count
    np.fill_diagonal(raw, 0.0)
    clamped = np.maximum(raw, 0.0)
    sums = clamped.sum(axis=1)
    e = np.zeros(n)
    for p in pretrusted:
        e[index[p]] = 1.0 / len(pretrusted)
    c = np.zeros((n, n))
    nonzero = sums > 0.0
    c[nonzero] = clamped[nonzero] / sums[nonzero, None]
    c[~nonzero] = e
    t = e.copy()
    for iterations in range(1, max_iters + 1):
        t_next = (1.0 - a) * (c.T @ t) + a * e
        total = t_next.sum()
        if total > 0.0:
            t_next = t_next / total
        residual = float(np.abs(t_next - t).sum())
        t = t_next
        if residual < epsilon:
            return t, iterations, True
    return t, max_iters, False


def mixed_ledger(rng: random.Random, n: int) -> InteractionLedger:
    """A ledger whose rows are silent, all negative, or mixed."""

    peers = tuple(f"peer-{i:03d}" for i in range(n))
    ledger = InteractionLedger(peers=peers)
    for p in peers:
        kind = rng.choice(("silent", "negative", "mixed", "mixed"))
        if kind == "silent":
            continue
        for q in rng.sample(peers, rng.randrange(1, n)):
            if q == p:
                continue
            if kind == "negative":
                ledger.record_unsat(p, q, rng.randrange(1, 5))
                ledger.record_sat(p, q, rng.randrange(0, 2))
            else:
                ledger.record_sat(p, q, rng.randrange(0, 20))
                ledger.record_unsat(p, q, rng.randrange(0, 8))
    return ledger


class TestNormalize:
    def test_frozen_row_clamps_then_normalizes(self):
        # a's opinions (3, -1, 2) toward b, c, d clamp to (3, 0, 2)
        # and normalize to (0.6, 0, 0.4); the clamped entry is not stored.
        ledger = InteractionLedger(peers=("a", "b", "c", "d"))
        ledger.record_sat("a", "b", 3)
        ledger.record_unsat("a", "c", 1)
        ledger.record_sat("a", "d", 2)
        local = normalize(ledger)
        assert local.rows.tolist() == [0, 0]
        assert local.cols.tolist() == [1, 3]
        assert local.values.tolist() == [0.6, 0.4]
        assert dense_matrix(local)[0].tolist() == [0.0, 0.6, 0.0, 0.4]

    def test_rows_sum_to_one_or_zero(self):
        rng = random.Random(11)
        for _ in range(20):
            local = normalize(random_ledger(rng, rng.randrange(2, 15)))
            sums = row_sums(local)
            for peer, total in zip(local.peers, sums):
                if peer in local.zero_rows:
                    assert total == 0.0
                else:
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_always_zero(self):
        rng = random.Random(12)
        local = normalize(random_ledger(rng, 10))
        assert not np.any(local.rows == local.cols)
        assert np.diagonal(dense_matrix(local)).tolist() == [0.0] * 10

    def test_entries_positive_and_sorted_by_row_then_col(self):
        local = normalize(mixed_ledger(random.Random(13), 40))
        assert np.all(local.values > 0.0)
        keys = list(zip(local.rows.tolist(), local.cols.tolist()))
        assert keys == sorted(set(keys))

    def test_arrays_depend_only_on_ledger_contents(self):
        # The same tallies recorded in a different order give the same
        # arrays, bit for bit.
        rng = random.Random(14)
        ledger = mixed_ledger(rng, 30)
        shuffled = InteractionLedger(peers=ledger.peers)
        for tally, record in ((ledger.sat, shuffled.record_sat),
                              (ledger.unsat, shuffled.record_unsat)):
            items = list(tally.items())
            rng.shuffle(items)
            for (p, q), count in items:
                record(p, q, count)
        a, b = normalize(ledger), normalize(shuffled)
        for name in ("rows", "cols", "values"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.zero_rows == b.zero_rows

    def test_all_negative_row_reported_zero(self):
        ledger = InteractionLedger(peers=("a", "b"))
        ledger.record_unsat("a", "b", 5)
        ledger.record_sat("b", "a", 1)
        local = normalize(ledger)
        assert local.zero_rows == ("a",)
        assert 0 not in local.rows.tolist()
        assert dense_matrix(local)[0].tolist() == [0.0, 0.0]

    def test_single_peer_rejected(self):
        with pytest.raises(ReputationError):
            normalize(InteractionLedger(peers=("a",)))

    def test_scaling_invariance(self):
        # Multiplying every tally by a constant leaves the rows alone.
        base = InteractionLedger(peers=("a", "b", "c"))
        scaled = InteractionLedger(peers=("a", "b", "c"))
        for (p, q, s, u) in [("a", "b", 4, 1), ("a", "c", 2, 0),
                             ("b", "a", 3, 1), ("c", "b", 5, 2)]:
            base.record_sat(p, q, s)
            base.record_unsat(p, q, u)
            scaled.record_sat(p, q, s * 7)
            scaled.record_unsat(p, q, u * 7)
        for name in ("rows", "cols", "values"):
            assert np.array_equal(
                getattr(normalize(base), name), getattr(normalize(scaled), name)
            )

    def test_tallies_net_in_exact_integers(self):
        # 2**60 + 1 - 2**60 is 1, not the 0 that float arithmetic gives.
        ledger = InteractionLedger(peers=("a", "b"))
        ledger.record_sat("a", "b", 2**60 + 1)
        ledger.record_unsat("a", "b", 2**60)
        local = normalize(ledger)
        assert local.zero_rows == ("b",)
        assert local.values.tolist() == [1.0]


class TestGlobalTrust:
    def test_symmetric_triangle_is_uniform(self):
        ledger = InteractionLedger(peers=("a", "b", "c"))
        for p in ("a", "b", "c"):
            for q in ("a", "b", "c"):
                if p != q:
                    ledger.record_sat(p, q, 1)
        vector = global_trust(normalize(ledger), ("a", "b", "c"), a=0.0)
        for score in vector.scores.values():
            assert score == pytest.approx(1 / 3, abs=1e-12)
        assert vector.converged

    def test_matches_linear_fixed_point(self):
        # At the fixed point t solves (I - (1-a) C^T) t = a e.
        rng = random.Random(21)
        for _ in range(15):
            n = rng.randrange(3, 20)
            ledger = random_ledger(rng, n, density=0.8)
            local = normalize(ledger)
            pretrusted = local.peers[: max(1, n // 3)]
            a = 0.15
            vector = global_trust(local, pretrusted, a=a, epsilon=1e-13)
            e = np.zeros(n)
            for p in pretrusted:
                e[local.peers.index(p)] = 1 / len(pretrusted)
            c = dense_matrix(local)
            for p in local.zero_rows:
                c[local.peers.index(p)] = e
            expected = np.linalg.solve(
                np.eye(n) - (1 - a) * c.T, a * e
            )
            got = np.array([vector.scores[p] for p in local.peers])
            assert np.allclose(got, expected, atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(8):
            ledger = mixed_ledger(rng, rng.randrange(2, 60))
            peers = ledger.peers
            pretrusted = tuple(rng.sample(peers, rng.randrange(1, len(peers) + 1)))
            a = rng.choice((0.0, 0.1, 0.3))
            epsilon = rng.choice((1e-6, 1e-9, 1e-12))
            local = normalize(ledger)
            vector = global_trust(local, pretrusted, a=a, epsilon=epsilon)
            expected, iterations, converged = dense_global_trust(
                ledger, pretrusted, a=a, epsilon=epsilon)
            got = np.array([vector.scores[p] for p in peers])
            assert np.max(np.abs(got - expected)) <= 1e-12
            assert vector.iterations_used == iterations
            assert vector.converged == converged

    def test_many_peers_few_raters_in_small_memory(self):
        # 20,000 peers rated by 5 of them. Dense n x n float arrays
        # would need 3.2 GB each; the ratings themselves are 100,000.
        peers = tuple(f"dev-{i:05d}" for i in range(20_000))
        raters = peers[:5]
        ledger = InteractionLedger(peers=peers)
        rng = random.Random(5)
        for p in raters:
            for q in peers:
                if q != p:
                    ledger.record_sat(p, q, rng.randrange(1, 4))
                    if rng.random() < 0.1:
                        ledger.record_unsat(p, q, 3)
        tracemalloc.start()
        try:
            local = normalize(ledger)
            vector = global_trust(local, peers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert len(local.zero_rows) == len(peers) - len(raters)
        assert vector.converged
        assert sum(vector.scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_collusive_clique_scores_exactly_zero(self):
        honest = [f"h{i:02d}" for i in range(20)]
        malicious = [f"m{i}" for i in range(5)]
        ledger = InteractionLedger(peers=tuple(honest + malicious))
        rng = random.Random(31)
        for p in honest:
            for q in honest:
                if p != q and rng.random() < 0.4:
                    ledger.record_sat(p, q, rng.randrange(1, 10))
        for p in malicious:                 # the clique pumps itself
            for q in malicious:
                if p != q:
                    ledger.record_sat(p, q, 50)
        for p in honest[:10]:               # honest experience is bad
            for q in malicious:
                ledger.record_unsat(p, q, 3)
        vector = global_trust(normalize(ledger), tuple(honest))
        for m in malicious:
            assert vector.scores[m] == 0.0
        assert all(vector.scores[h] > 0.0 for h in honest)

    def test_scores_form_a_distribution(self):
        rng = random.Random(41)
        for _ in range(10):
            ledger = random_ledger(rng, rng.randrange(2, 25))
            pre = ledger.peers[:1]
            vector = global_trust(normalize(ledger), pre)
            total = sum(vector.scores.values())
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(s >= 0.0 for s in vector.scores.values())

    def test_convergence_bookkeeping(self):
        rng = random.Random(51)
        ledger = random_ledger(rng, 30, density=0.7)
        vector = global_trust(normalize(ledger), ledger.peers[:5],
                              epsilon=1e-9)
        assert vector.converged
        assert vector.iterations_used <= 200
        assert vector.residual < 1e-9

    def test_pretrusted_validation(self):
        ledger = random_ledger(random.Random(61), 5)
        local = normalize(ledger)
        with pytest.raises(ReputationError):
            global_trust(local, ())
        with pytest.raises(ReputationError):
            global_trust(local, ("peer-00", "peer-00"))
        with pytest.raises(ReputationError):
            global_trust(local, ("stranger",))
        with pytest.raises(ReputationError):
            global_trust(local, ("peer-00",), a=1.0)

    @pytest.mark.parametrize("epsilon, message",
                             [case[1:] for case in EPSILON_CASES],
                             ids=[case[0] for case in EPSILON_CASES])
    def test_epsilon_validation(self, epsilon, message):
        # The iteration and a scenario refuse an epsilon alike.
        local = normalize(random_ledger(random.Random(61), 5))
        with pytest.raises(ReputationError) as exc:
            global_trust(local, ("peer-00",), epsilon=epsilon)
        assert str(exc.value) == message
        with pytest.raises(ScenarioError) as exc:
            replace(reference_scenario(42), epsilon=epsilon)
        assert str(exc.value) == message

    @pytest.mark.parametrize("damping, message",
                             [case[1:] for case in DAMPING_CASES],
                             ids=[case[0] for case in DAMPING_CASES])
    def test_damping_validation(self, damping, message):
        local = normalize(random_ledger(random.Random(61), 5))
        with pytest.raises(ReputationError) as exc:
            global_trust(local, ("peer-00",), a=damping)
        assert str(exc.value) == message
        with pytest.raises(ScenarioError) as exc:
            replace(reference_scenario(42), damping=damping)
        assert str(exc.value) == message

    def test_damping_keeps_pretrusted_floor(self):
        # With a > 0 every pre-trusted peer keeps at least a * e_p mass.
        ledger = random_ledger(random.Random(71), 12, density=0.6)
        local = normalize(ledger)
        pre = local.peers[:4]
        vector = global_trust(local, pre, a=0.2)
        for p in pre:
            assert vector.scores[p] >= 0.2 / 4 - 1e-12


class TestWireFormat:
    def test_round_trip(self):
        ledger = random_ledger(random.Random(81), 6)
        obj = ledger_to_obj(ledger)
        back = ledger_from_obj(obj)
        assert back.peers == tuple(sorted(ledger.peers))
        for p in ledger.peers:
            for q in ledger.peers:
                for tally in ("sat", "unsat"):
                    assert (getattr(back, tally).get((p, q), 0)
                            == getattr(ledger, tally).get((p, q), 0))

    def test_key_format_uses_arrow(self):
        ledger = InteractionLedger(peers=("a", "b"))
        ledger.record_sat("a", "b", 2)
        obj = ledger_to_obj(ledger)
        assert obj == {
            "peers": ["a", "b"],
            "interactions": {"a→b": {"sat": 2, "unsat": 0}},
        }

    def test_silent_peers_survive_round_trip(self):
        ledger = InteractionLedger(peers=("a", "b", "mute"))
        ledger.record_sat("a", "b")
        back = ledger_from_obj(ledger_to_obj(ledger))
        assert back == ledger
        assert normalize(back).zero_rows == ("b", "mute")

    def test_malformed_keys_rejected(self):
        def wire(key, entry, peers=("a", "b")):
            return {"peers": list(peers), "interactions": {key: entry}}

        with pytest.raises(ReputationError):
            ledger_from_obj({"a→b": {"sat": 1, "unsat": 0}})  # no envelope
        with pytest.raises(ReputationError):
            ledger_from_obj(wire("ab", {"sat": 1, "unsat": 0}))
        with pytest.raises(ReputationError):
            ledger_from_obj(wire("a→a", {"sat": 0, "unsat": 0}))
        with pytest.raises(ReputationError):
            ledger_from_obj(wire("a→b", {"sat": -1, "unsat": 0}))
        with pytest.raises(ReputationError):
            ledger_from_obj(wire("a→b", {"sat": 1}))
        with pytest.raises(ReputationError):
            ledger_from_obj(wire("a→c", {"sat": 1, "unsat": 0}))  # unknown
        with pytest.raises(ReputationError):
            ledger_from_obj({"peers": ["a", "a"], "interactions": {}})

    def test_file_round_trip(self, tmp_path):
        ledger = random_ledger(random.Random(91), 5)
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(ledger_to_obj(ledger)), encoding="utf-8")
        loaded = load_ledger(path)
        assert ledger_to_obj(loaded) == ledger_to_obj(ledger)

    def test_vector_export_sorted(self):
        ledger = random_ledger(random.Random(95), 4)
        vector = global_trust(normalize(ledger), ledger.peers[:1])
        obj = trust_vector_to_obj(vector)
        assert list(obj) == sorted(obj)
        assert all(isinstance(v, float) for v in obj.values())
