"""Global peer reputation from pairwise interaction history.

Each peer tallies satisfactory and unsatisfactory interactions with
every other peer. Clamped, row-normalized tallies form a local trust
matrix; repeated application of its transpose, damped toward a
pre-trusted distribution, converges to a single global trust vector.
Peers that nobody vouches for end up with the damping floor or zero,
no matter how loudly they vouch for each other.

The matrix is kept sparse, as EigenTrust states it (Kamvar, Schlosser
and Garcia-Molina, WWW 2003): only the positive ratings are stored, as
coordinate arrays, and each step of the iteration is one
``np.bincount`` over them. Rows with no positive rating are not
stored; the iteration folds them into the pre-trusted distribution.
Memory and time grow with the number of ratings, not with the square
of the number of peers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .model import is_int, load_json

LEDGER_SEPARATOR = "→"  # "p→q" keys in the wire format

DEFAULT_DAMPING = 0.1
DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_ITERS = 200


class ReputationError(ValueError):
    """Raised for unknown peers, self-ratings, and bad parameters."""


@dataclass
class InteractionLedger:
    """Pairwise sat/unsat tallies over an ordered peer list."""

    peers: tuple[str, ...]
    sat: dict[tuple[str, str], int] = field(default_factory=dict)
    unsat: dict[tuple[str, str], int] = field(default_factory=dict)
    _known: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.peers = tuple(self.peers)
        self._known = frozenset(self.peers)
        if len(self._known) != len(self.peers):
            raise ReputationError("duplicate peer ids")
        for peer in self.peers:
            if not peer:
                raise ReputationError("peer ids must be non-empty")
            if LEDGER_SEPARATOR in peer:
                raise ReputationError(
                    f"peer id {peer!r} contains the reserved separator"
                )

    def _check_pair(self, p: str, q: str) -> None:
        if p == q:
            raise ReputationError("self interactions are undefined")
        for peer in (p, q):
            if peer not in self._known:
                raise ReputationError(f"unknown peer {peer!r}")

    def record_sat(self, p: str, q: str, count: int = 1) -> None:
        self._check_pair(p, q)
        if count < 0:
            raise ReputationError("counts must be non-negative")
        self.sat[(p, q)] = self.sat.get((p, q), 0) + count

    def record_unsat(self, p: str, q: str, count: int = 1) -> None:
        self._check_pair(p, q)
        if count < 0:
            raise ReputationError("counts must be non-negative")
        self.unsat[(p, q)] = self.unsat.get((p, q), 0) + count


@dataclass(frozen=True)
class LocalTrustMatrix:
    """Row-normalized non-negative local trust, in coordinate form.

    Entry ``k`` says that peer ``peers[rows[k]]`` trusts peer
    ``peers[cols[k]]`` with weight ``values[k]``. Only positive entries
    are stored, sorted by ``(row, col)``, so the arrays depend only on
    the ledger's contents; each stored row sums to one. Rows that clamp
    to all zeros store nothing and are reported in ``zero_rows``, so the
    iteration step can substitute the pre-trusted distribution.
    """

    peers: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    zero_rows: tuple[str, ...]


def normalize(ledger: InteractionLedger) -> LocalTrustMatrix:
    """Clamp negative local trust to zero and normalize each row.

    Each pair's tally is netted as ``sat - unsat`` in exact integers;
    only the positive ones are kept.
    """

    peers = ledger.peers
    if len(peers) < 2:
        raise ReputationError("need at least two peers")
    n = len(peers)
    index = {p: i for i, p in enumerate(peers)}
    net = dict(ledger.sat)
    for pair, count in ledger.unsat.items():
        net[pair] = net.get(pair, 0) - count
    keys = []  # row * n + col, so one sort orders by (row, col)
    counts = []
    for (p, q), count in net.items():
        if count > 0 and p != q:
            keys.append(index[p] * n + index[q])
            counts.append(count)
    flat = np.array(keys, dtype=np.int64)
    order = np.argsort(flat)
    rows, cols = np.divmod(flat[order], n)
    clamped = np.array(counts, dtype=float)[order]
    sums = np.bincount(rows, weights=clamped, minlength=n)
    zero_rows = tuple(peers[i] for i in np.flatnonzero(sums == 0.0).tolist())
    return LocalTrustMatrix(
        peers=peers,
        rows=rows,
        cols=cols,
        values=clamped / sums[rows],
        zero_rows=zero_rows,
    )


@dataclass(frozen=True)
class GlobalTrustVector:
    scores: Mapping[str, float]
    iterations_used: int
    residual: float
    converged: bool


def global_trust(
    local: LocalTrustMatrix,
    pretrusted: Iterable[str],
    a: float = DEFAULT_DAMPING,
    epsilon: float = DEFAULT_EPSILON,
) -> GlobalTrustVector:
    """Damped power iteration to the global trust fixed point.

    Rows reported zero stand for the uniform pre-trusted distribution
    ``e``; the iteration runs

        t <- (1 - a) * C^T t + a * e

    from ``t = e``, renormalizing each step, until the L1 step
    difference drops below ``epsilon``. ``C^T t`` is one
    ``np.bincount`` over the stored entries, which adds them in index
    order, plus ``e`` times the trust the zero rows hold.
    ``DEFAULT_MAX_ITERS`` steps bound the loop; a vector that has not
    converged by then is returned with ``converged`` false.
    """

    peers = local.peers
    pretrusted = tuple(pretrusted)
    if not pretrusted:
        raise ReputationError("pre-trusted set must be non-empty")
    if len(set(pretrusted)) != len(pretrusted):
        raise ReputationError("duplicate pre-trusted peers")
    unknown = set(pretrusted) - set(peers)
    if unknown:
        raise ReputationError(f"unknown pre-trusted peers: {sorted(unknown)}")
    if not 0.0 <= a < 1.0:
        raise ReputationError("damping must lie in [0, 1)")
    if epsilon <= 0.0:
        raise ReputationError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ReputationError(f"epsilon must be finite, got {epsilon}")

    n = len(peers)
    index = {p: i for i, p in enumerate(peers)}
    e = np.zeros(n, dtype=float)
    e[[index[p] for p in pretrusted]] = 1.0 / len(pretrusted)
    zero = np.array([index[p] for p in local.zero_rows], dtype=np.intp)
    rows, cols, values = local.rows, local.cols, local.values

    t = e.copy()
    iterations = 0
    residual = float("inf")
    converged = False
    while iterations < DEFAULT_MAX_ITERS:
        ct_t = (np.bincount(cols, weights=values * t[rows], minlength=n)
                + t[zero].sum() * e)
        t_next = (1.0 - a) * ct_t + a * e
        total = t_next.sum()
        if total > 0.0:
            t_next = t_next / total
        iterations += 1
        residual = float(np.abs(t_next - t).sum())
        t = t_next
        if residual < epsilon:
            converged = True
            break
    scores = dict(zip(peers, t.tolist()))
    return GlobalTrustVector(
        scores=scores,
        iterations_used=iterations,
        residual=residual,
        converged=converged,
    )


# --- wire format ------------------------------------------------------------

def ledger_from_obj(obj: object) -> InteractionLedger:
    if not isinstance(obj, dict) or set(obj) != {"peers", "interactions"}:
        raise ReputationError(
            "ledger must be a JSON object with exactly "
            "'peers' and 'interactions'"
        )
    peers = obj["peers"]
    if (
        not isinstance(peers, list)
        or not all(isinstance(p, str) and p for p in peers)
    ):
        raise ReputationError("peers must be a list of non-empty strings")
    if len(set(peers)) != len(peers):
        raise ReputationError("duplicate peers in ledger")
    interactions = obj["interactions"]
    if not isinstance(interactions, dict):
        raise ReputationError("interactions must be a JSON object")
    known = set(peers)
    entries: list[tuple[str, str, int, int]] = []
    for key, value in interactions.items():
        parts = key.split(LEDGER_SEPARATOR)
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ReputationError(f"malformed ledger key {key!r}")
        if parts[0] == parts[1]:
            raise ReputationError(f"self interaction in ledger key {key!r}")
        if not known.issuperset(parts):
            raise ReputationError(f"unknown peer in ledger key {key!r}")
        if not isinstance(value, dict) or set(value) != {"sat", "unsat"}:
            raise ReputationError(f"malformed ledger entry for {key!r}")
        sat = value["sat"]
        unsat = value["unsat"]
        for count in (sat, unsat):
            if not is_int(count) or count < 0:
                raise ReputationError(f"counts for {key!r} must be non-negative")
        entries.append((parts[0], parts[1], sat, unsat))
    ledger = InteractionLedger(peers=tuple(sorted(peers)))
    for p, q, sat, unsat in entries:
        if sat:
            ledger.record_sat(p, q, sat)
        if unsat:
            ledger.record_unsat(p, q, unsat)
    return ledger


def load_ledger(path: str | Path) -> InteractionLedger:
    return ledger_from_obj(load_json(path, "ledger", ReputationError))


def trust_vector_to_obj(vector: GlobalTrustVector) -> dict:
    return {peer: score for peer, score in sorted(vector.scores.items())}
