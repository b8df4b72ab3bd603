"""Threshold secret sharing over a prime field.

A secret is the constant term of a random polynomial; participants
hold point evaluations. Any ``z`` of the ``n`` shares rebuild the
secret by interpolation at zero, while ``z - 1`` shares say nothing at
all: for every candidate secret there is a polynomial consistent with
the shares in hand. ``secrecy_probe`` demonstrates that directly on
small fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .model import format_json, is_int, load_json

DEFAULT_PRIME = 2**61 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ShareError(ValueError):
    """Raised for invalid parameters, shares, or share files."""


def _is_prime_u64(n: int) -> bool:
    # Deterministic Miller-Rabin; the fixed bases cover all n < 2**64.
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """The prime field shares live in."""

    prime: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not isinstance(self.prime, int) or self.prime < 2:
            raise ShareError("prime must be an integer >= 2")
        if self.prime >= 2**64:
            raise ShareError("prime must be below 2**64")
        if not _is_prime_u64(self.prime):
            raise ShareError(f"{self.prime} is not prime")


@dataclass(frozen=True)
class ThresholdPolicy:
    """``n`` participants, any ``z`` of whom can reconstruct.

    ``z = 1`` makes every share the secret itself, so it is refused.
    """

    n: int
    z: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.z, int):
            raise ShareError("n and z must be integers")
        if not 2 <= self.z <= self.n:
            raise ShareError(
                f"threshold must satisfy 2 <= z <= n, got n={self.n} z={self.z}"
            )


@dataclass(frozen=True)
class Share:
    """One participant's point, self-describing for transport."""

    x: int
    y: int
    scheme_id: str
    prime: int
    n: int
    z: int

    def __post_init__(self) -> None:
        if self.prime < 2:
            raise ShareError("share prime must be at least 2")
        if not 0 < self.x < self.prime:
            raise ShareError("share x must lie strictly inside the field")
        if not 0 <= self.y < self.prime:
            raise ShareError("share y must lie in the field")
        if not self.scheme_id:
            raise ShareError("scheme_id must be non-empty")
        if not 2 <= self.z <= self.n:
            raise ShareError("share metadata must satisfy 2 <= z <= n")


def _poly_eval(coeffs: Sequence[int], x: int, prime: int) -> int:
    # coeffs[0] is the constant term; Horner from the top power down.
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % prime
    return acc


def split(
    secret: int,
    policy: ThresholdPolicy,
    field: FieldParams,
    rng: random.Random,
) -> tuple[Share, ...]:
    """Deal shares of ``secret`` at x = 1..n.

    Coefficients above the constant term are drawn uniformly from the
    field via ``rng``. The same seed always deals the same shares.
    """

    prime = field.prime
    if not isinstance(secret, int) or not 0 <= secret < prime:
        raise ShareError("secret outside field")
    if policy.n >= prime:
        raise ShareError("participant count must be below the field prime")
    scheme_id = f"{rng.getrandbits(64):016x}"
    coeffs = [secret % prime]
    coeffs += [rng.randrange(prime) for _ in range(policy.z - 1)]
    return tuple(
        Share(
            x=x,
            y=_poly_eval(coeffs, x, prime),
            scheme_id=scheme_id,
            prime=prime,
            n=policy.n,
            z=policy.z,
        )
        for x in range(1, policy.n + 1)
    )


def _check_consistent(shares: Sequence[Share]) -> Share:
    if not shares:
        raise ShareError("no shares given")
    first = shares[0]
    for s in shares[1:]:
        if (s.scheme_id, s.prime, s.n, s.z) != (
            first.scheme_id, first.prime, first.n, first.z,
        ):
            raise ShareError("shares belong to different schemes")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise ShareError("duplicate share x values")
    return first


def reconstruct(
    shares: Sequence[Share], field: FieldParams | None = None
) -> int:
    """Interpolate the secret from at least ``z`` consistent shares."""

    first = _check_consistent(shares)
    if field is not None and field.prime != first.prime:
        raise ShareError("field does not match the shares")
    if len(shares) < first.z:
        raise ShareError(
            f"below threshold: {len(shares)} shares, need {first.z}"
        )
    # The secret is the shares' y values weighted by the Lagrange basis
    # polynomials at x = 0.
    prime = first.prime
    xs = [s.x for s in shares]
    secret = 0
    for i, share in enumerate(shares):
        num = 1
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * (-xj) % prime
            den = den * (share.x - xj) % prime
        try:
            inv = pow(den, -1, prime)
        except ValueError:
            # Only a composite modulus leaves a denominator uninvertible.
            raise ShareError(f"{prime} is not prime") from None
        secret += share.y * (num * inv % prime)
    return secret % prime


def secrecy_probe(
    shares: Sequence[Share], field: FieldParams, candidate: int
) -> bool:
    """Is ``candidate`` consistent with a below-threshold share set?

    Given exactly ``z - 1`` shares, interpolate the unique polynomial of
    degree below ``z`` through the shares and (0, candidate), then
    verify it reproduces every constraint. Restricted to small fields
    (prime <= 257) where exhaustive cross-checks are feasible.
    """

    first = _check_consistent(shares)
    if field.prime != first.prime:
        raise ShareError("field does not match the shares")
    if field.prime > 257:
        raise ShareError("secrecy probe is restricted to primes <= 257")
    if len(shares) != first.z - 1:
        raise ShareError(
            f"probe needs exactly z - 1 = {first.z - 1} shares, got {len(shares)}"
        )
    if not 0 <= candidate < field.prime:
        raise ShareError("candidate outside field")
    prime = field.prime
    points = [(0, candidate)] + [(s.x, s.y) for s in shares]
    # Lagrange basis expansion to explicit coefficients.
    coeffs = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [1]
        den = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            den = den * (xi - xj) % prime
            # multiply basis polynomial by (x - xj)
            nxt = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k + 1] = (nxt[k + 1] + c) % prime
                nxt[k] = (nxt[k] - c * xj) % prime
            basis = nxt
        scale = yi * pow(den, -1, prime) % prime
        for k, c in enumerate(basis):
            coeffs[k] = (coeffs[k] + c * scale) % prime
    return all(_poly_eval(coeffs, x, prime) == y for x, y in points)


# --- multi-chunk secrets ----------------------------------------------------

def split_integer(
    secret: int,
    policy: ThresholdPolicy,
    field: FieldParams,
    rng: random.Random,
) -> tuple[tuple[Share, ...], ...]:
    """Share a non-negative integer of any size.

    Values at or above the prime are carved into base-prime chunks
    (most significant first), each shared independently under one
    scheme id. The result is participant-major: element ``i`` holds
    participant ``x = i + 1``'s share of every chunk, in chunk order —
    exactly the shape :func:`reconstruct_integer` expects back.
    """

    if not isinstance(secret, int) or secret < 0:
        raise ShareError("secret must be a non-negative integer")
    digits = []
    value = secret
    while True:
        digits.append(value % field.prime)
        value //= field.prime
        if value == 0:
            break
    digits.reverse()
    scheme_id = f"{rng.getrandbits(64):016x}"
    chunks = []
    for digit in digits:
        dealt = split(digit, policy, field, rng)
        chunks.append(tuple(
            Share(x=s.x, y=s.y, scheme_id=scheme_id,
                  prime=s.prime, n=s.n, z=s.z)
            for s in dealt
        ))
    return tuple(zip(*chunks))


def reconstruct_integer(
    participant_shares: Sequence[Sequence[Share]],
    field: FieldParams | None = None,
) -> int:
    """Inverse of :func:`split_integer`.

    Each inner sequence is one participant's chunk shares, in chunk
    order. Chunk counts must agree across participants.
    """

    if not participant_shares:
        raise ShareError("no shares given")
    lengths = {len(chunks) for chunks in participant_shares}
    if len(lengths) != 1:
        raise ShareError("participants disagree on chunk count")
    chunk_count = lengths.pop()
    if chunk_count == 0:
        raise ShareError("no shares given")
    value = 0
    prime = participant_shares[0][0].prime
    for idx in range(chunk_count):
        digit = reconstruct([chunks[idx] for chunks in participant_shares], field)
        value = value * prime + digit
    return value


# --- share files ------------------------------------------------------------

def share_to_obj(share: Share) -> dict:
    return {
        "scheme_id": share.scheme_id,
        "prime": share.prime,
        "n": share.n,
        "z": share.z,
        "x": share.x,
        "y": share.y,
    }


def share_from_obj(obj: object) -> Share:
    if not isinstance(obj, dict):
        raise ShareError("share record must be a JSON object")
    required = {"scheme_id", "prime", "n", "z", "x", "y"}
    if set(obj) != required:
        raise ShareError(f"share fields must be exactly {sorted(required)}")
    if not isinstance(obj["scheme_id"], str):
        raise ShareError("share scheme_id must be a string")
    for name in ("prime", "n", "z", "x", "y"):
        if not is_int(obj[name]):
            raise ShareError(f"share {name} must be an integer")
    FieldParams(obj["prime"])
    return Share(
        x=obj["x"], y=obj["y"], scheme_id=obj["scheme_id"],
        prime=obj["prime"], n=obj["n"], z=obj["z"],
    )


def write_share_file(path: str | Path, chunks: Sequence[Share]) -> None:
    """Write one participant's shares.

    Single-chunk secrets produce a bare share object; multi-chunk
    secrets produce an array of share objects in chunk order.
    """

    if not chunks:
        raise ShareError("nothing to write")
    if len(chunks) == 1:
        payload: object = share_to_obj(chunks[0])
    else:
        payload = [share_to_obj(s) for s in chunks]
    Path(path).write_text(format_json(payload), encoding="utf-8")


def read_share_file(path: str | Path) -> list[Share]:
    data = load_json(path, f"share file {path}", ShareError)
    if isinstance(data, dict):
        return [share_from_obj(data)]
    if isinstance(data, list) and data:
        return [share_from_obj(obj) for obj in data]
    raise ShareError(f"{path}: expected a share object or array of them")
