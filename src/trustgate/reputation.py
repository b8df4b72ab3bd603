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

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .model import check_id, is_int, is_number, load_json

LEDGER_SEPARATOR = "→"  # "p→q" keys in the wire format

DEFAULT_DAMPING = 0.1
DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_ITERS = 200


class ReputationError(ValueError):
    """Raised for unknown peers, self-ratings, and bad parameters."""


def check_parameters(damping: object, epsilon: object,
                     error: type[ValueError] = ReputationError) -> None:
    """Raise ``error`` unless ``damping`` is a number in [0, 1) and
    ``epsilon`` a finite positive one. An int is compared exactly, so
    one past the float range is refused like infinity, and NaN fails
    every comparison."""

    for name, value in (("damping", damping), ("epsilon", epsilon)):
        if not is_number(value):
            raise error(f"{name} must be a number, got {value!r}")
    if not 0 <= damping < 1:
        raise error("damping must lie in [0, 1)")
    if not 0 < epsilon <= sys.float_info.max:
        raise error(
            f"epsilon must be a finite positive number, got {epsilon!r}")


@dataclass
class InteractionLedger:
    """Pairwise sat/unsat tallies over an ordered peer list. Peer ids are
    held to ``model.check_id``, and the counts ``record_sat`` and
    ``record_unsat`` add to ``model.is_int`` and non-negative; a zero
    count adds no entry."""

    peers: tuple[str, ...]
    sat: dict[tuple[str, str], int] = field(default_factory=dict, init=False)
    unsat: dict[tuple[str, str], int] = field(default_factory=dict,
                                              init=False)
    _known: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.peers = tuple(self.peers)
        for peer in self.peers:
            check_id(peer, "peer id", ReputationError)
            if LEDGER_SEPARATOR in peer:
                raise ReputationError(
                    f"peer id {peer!r} contains the reserved separator"
                )
        self._known = frozenset(self.peers)
        if len(self._known) != len(self.peers):
            raise ReputationError("duplicate peer ids")

    def _record(self, tally: dict[tuple[str, str], int], p: str, q: str,
                count: int) -> None:
        if p == q:
            raise ReputationError("self interactions are undefined")
        for peer in (p, q):
            if peer not in self._known:
                raise ReputationError(f"unknown peer {peer!r}")
        # The exact type inline first, which is the common case.
        if type(count) is not int and not is_int(count) or count < 0:
            raise ReputationError(
                f"count must be a non-negative integer, got {count!r}")
        if count:
            tally[(p, q)] = tally.get((p, q), 0) + count

    def record_sat(self, p: str, q: str, count: int = 1) -> None:
        self._record(self.sat, p, q, count)

    def record_unsat(self, p: str, q: str, count: int = 1) -> None:
        self._record(self.unsat, p, q, count)


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
    check_parameters(a, epsilon)

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
    if not isinstance(peers, list):
        raise ReputationError("peers must be a list")
    interactions = obj["interactions"]
    if not isinstance(interactions, dict):
        raise ReputationError("interactions must be a JSON object")
    # Sorting by str orders any list, so the ledger, not sorted(), is
    # what refuses a peer that is no string.
    ledger = InteractionLedger(peers=tuple(sorted(peers, key=str)))
    for key, value in interactions.items():
        parts = key.split(LEDGER_SEPARATOR)
        if len(parts) != 2:
            raise ReputationError(f"malformed ledger key {key!r}")
        if not isinstance(value, dict) or set(value) != {"sat", "unsat"}:
            raise ReputationError(f"malformed ledger entry for {key!r}")
        try:
            ledger.record_sat(*parts, value["sat"])
            ledger.record_unsat(*parts, value["unsat"])
        except ReputationError as exc:
            raise ReputationError(f"ledger key {key!r}: {exc}") from None
    return ledger


def load_ledger(path: str | Path) -> InteractionLedger:
    return ledger_from_obj(load_json(path, "ledger", ReputationError))


def trust_vector_to_obj(vector: GlobalTrustVector) -> dict:
    return {peer: score for peer, score in sorted(vector.scores.items())}
