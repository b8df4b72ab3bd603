"""Threshold secret sharing over a prime field."""

from __future__ import annotations

import itertools
import random

import pytest

from trustgate.secretshare import (
    DEFAULT_PRIME,
    FieldParams,
    Share,
    ShareError,
    ThresholdPolicy,
    read_share_file,
    reconstruct,
    reconstruct_integer,
    secrecy_probe,
    share_from_obj,
    share_to_obj,
    split,
    split_integer,
    write_share_file,
)


class TestFieldParams:
    def test_default_prime_is_mersenne_61(self):
        assert FieldParams().prime == 2**61 - 1 == DEFAULT_PRIME

    @pytest.mark.parametrize("prime", [2, 3, 5, 13, 257, 65537, 2**61 - 1])
    def test_accepts_primes(self, prime):
        assert FieldParams(prime).prime == prime

    @pytest.mark.parametrize(
        "composite",
        [
            4, 10, 561, 41041,          # Carmichael numbers included
            2047,                        # strong pseudoprime base 2
            3215031751,                  # strong pseudoprime bases 2,3,5,7
            2**61 + 1,
        ],
    )
    def test_rejects_composites(self, composite):
        with pytest.raises(ShareError):
            FieldParams(composite)

    def test_rejects_out_of_range(self):
        with pytest.raises(ShareError):
            FieldParams(1)
        with pytest.raises(ShareError):
            FieldParams(2**64 + 13)


class TestThresholdPolicy:
    def test_threshold_within_count(self):
        ThresholdPolicy(n=5, z=3)
        with pytest.raises(ShareError):
            ThresholdPolicy(n=3, z=4)
        with pytest.raises(ShareError):
            ThresholdPolicy(n=5, z=1)

    def test_share_metadata_refuses_z_1(self):
        # A z=1 share is the secret itself, so a hand-made one must not
        # unlock anything on its own.
        with pytest.raises(ShareError, match="2 <= z <= n"):
            reconstruct([Share(x=1, y=7, scheme_id="ab", prime=13, n=1, z=1)])
        with pytest.raises(ShareError, match="2 <= z <= n"):
            Share(x=1, y=7, scheme_id="ab", prime=13, n=3, z=1)


class _DrawsThree(random.Random):
    def randrange(self, *args, **kwargs):
        return 3


class TestFrozenVector:
    """f(x) = 5 + 3x over GF(13), n=3: the full dealt set is pinned."""

    def deal(self):
        return split(
            5,
            ThresholdPolicy(n=3, z=2),
            FieldParams(13),
            _DrawsThree(0),
        )

    def test_share_values(self):
        shares = self.deal()
        assert [(s.x, s.y) for s in shares] == [(1, 8), (2, 11), (3, 1)]

    def test_every_pair_reconstructs(self):
        shares = self.deal()
        for pair in itertools.combinations(shares, 2):
            assert reconstruct(list(pair)) == 5

    def test_all_three_also_reconstruct(self):
        assert reconstruct(list(self.deal())) == 5

    def test_single_share_is_below_threshold(self):
        shares = self.deal()
        with pytest.raises(ShareError, match="below threshold"):
            reconstruct([shares[0]])

    def test_tampered_share_changes_the_secret(self):
        shares = list(self.deal())
        bad = Share(
            x=shares[1].x, y=(shares[1].y + 1) % 13,
            scheme_id=shares[1].scheme_id, prime=13, n=3, z=2,
        )
        assert reconstruct([shares[0], bad]) != 5


def fermat_reconstruct(shares) -> int:
    """Oracle: Lagrange interpolation at zero with Fermat inverses."""

    prime = shares[0].prime
    secret = 0
    for i, si in enumerate(shares):
        num = 1
        den = 1
        for j, sj in enumerate(shares):
            if i == j:
                continue
            num = num * (-sj.x) % prime
            den = den * (si.x - sj.x) % prime
        secret = (secret + si.y * num * pow(den, prime - 2, prime)) % prime
    return secret


class TestSplitReconstruct:
    @pytest.mark.parametrize("prime", [13, 257, DEFAULT_PRIME, 2**64 - 59])
    def test_matches_fermat_oracle(self, prime):
        rng = random.Random(prime % 1009)
        field = FieldParams(prime)
        for _ in range(60):
            z = rng.randrange(2, 8)
            n = rng.randrange(z, min(z + 4, prime - 1) + 1)
            secret = rng.randrange(prime)
            shares = split(secret, ThresholdPolicy(n=n, z=z), field, rng)
            subset = rng.sample(shares, rng.randrange(z, n + 1))
            rng.shuffle(subset)
            expected = fermat_reconstruct(subset)
            assert expected == secret
            assert reconstruct(subset) == expected

    @pytest.mark.parametrize("prime", [257, DEFAULT_PRIME])
    def test_random_subsets_round_trip(self, prime):
        rng = random.Random(97)
        field = FieldParams(prime)
        for _ in range(40):
            n = rng.randrange(2, 8)
            z = rng.randrange(2, n + 1)
            secret = rng.randrange(prime)
            shares = split(secret, ThresholdPolicy(n=n, z=z), field, rng)
            assert len(shares) == n
            subset = rng.sample(shares, z)
            assert reconstruct(subset) == secret

    def test_same_seed_same_shares(self):
        field = FieldParams()
        policy = ThresholdPolicy(n=5, z=3)
        a = split(123, policy, field, random.Random(42))
        b = split(123, policy, field, random.Random(42))
        assert a == b

    def test_different_seeds_differ(self):
        field = FieldParams()
        policy = ThresholdPolicy(n=5, z=3)
        a = split(123, policy, field, random.Random(1))
        b = split(123, policy, field, random.Random(2))
        assert a != b

    def test_secret_outside_field_rejected(self):
        with pytest.raises(ShareError, match="outside field"):
            split(13, ThresholdPolicy(n=3, z=2), FieldParams(13),
                  random.Random(0))
        with pytest.raises(ShareError, match="outside field"):
            split(-1, ThresholdPolicy(n=3, z=2), FieldParams(13),
                  random.Random(0))

    def test_too_many_participants_for_field(self):
        with pytest.raises(ShareError):
            split(1, ThresholdPolicy(n=13, z=2), FieldParams(13),
                  random.Random(0))

    def test_mixed_schemes_rejected(self):
        field = FieldParams(257)
        policy = ThresholdPolicy(n=3, z=2)
        a = split(7, policy, field, random.Random(1))
        b = split(7, policy, field, random.Random(2))
        with pytest.raises(ShareError):
            reconstruct([a[0], b[1]])

    def test_duplicate_x_rejected(self):
        field = FieldParams(257)
        shares = split(7, ThresholdPolicy(n=3, z=2), field, random.Random(1))
        with pytest.raises(ShareError):
            reconstruct([shares[0], shares[0]])


class TestPerfectSecrecy:
    def brute_force_constants(self, shares, prime: int, z: int) -> list[int]:
        """Constant terms of every polynomial of degree < z through the
        given shares, by exhaustive enumeration."""

        constants = []
        for coeffs in itertools.product(range(prime), repeat=z):
            if all(
                sum(c * pow(s.x, k, prime) for k, c in enumerate(coeffs))
                % prime == s.y
                for s in shares
            ):
                constants.append(coeffs[0])
        return constants

    @pytest.mark.parametrize("z,n", [(2, 3), (3, 4)])
    def test_below_threshold_every_candidate_fits(self, z, n):
        prime = 7
        field = FieldParams(prime)
        rng = random.Random(505)
        for secret in range(prime):
            shares = split(secret, ThresholdPolicy(n=n, z=z), field, rng)
            partial = list(shares)[: z - 1]
            # The probe accepts every field element...
            for candidate in range(prime):
                assert secrecy_probe(partial, field, candidate)
            # ...and exhaustive enumeration confirms the uniform count.
            constants = self.brute_force_constants(partial, prime, z)
            assert sorted(constants) == list(range(prime))

    def test_probe_requires_exactly_z_minus_1_shares(self):
        field = FieldParams(7)
        shares = split(3, ThresholdPolicy(n=3, z=3), field, random.Random(0))
        with pytest.raises(ShareError, match="z - 1"):
            secrecy_probe(list(shares)[:1], field, 0)

    def test_probe_restricted_to_small_fields(self):
        field = FieldParams()
        shares = split(3, ThresholdPolicy(n=3, z=2), field, random.Random(0))
        with pytest.raises(ShareError, match="257"):
            secrecy_probe(list(shares)[:1], field, 0)


class TestIntegerSharing:
    def test_multi_chunk_round_trip(self):
        field = FieldParams()
        policy = ThresholdPolicy(n=5, z=3)
        secret = 2**200 + 12345
        dealt = split_integer(secret, policy, field, random.Random(9))
        assert len(dealt) == 5                      # participant-major
        chunk_count = len(dealt[0])
        assert chunk_count == 4                     # 201 bits / 61 bits
        assert all(len(chunks) == chunk_count for chunks in dealt)
        assert reconstruct_integer([dealt[0], dealt[2], dealt[4]]) == secret

    def test_small_secret_single_chunk(self):
        field = FieldParams()
        dealt = split_integer(
            99, ThresholdPolicy(n=3, z=2), field, random.Random(9)
        )
        assert len(dealt[0]) == 1
        assert reconstruct_integer(list(dealt[:2])) == 99

    def test_zero_secret(self):
        field = FieldParams()
        dealt = split_integer(
            0, ThresholdPolicy(n=3, z=2), field, random.Random(9)
        )
        assert reconstruct_integer(list(dealt[1:])) == 0

    def test_chunk_count_mismatch_rejected(self):
        field = FieldParams()
        dealt = split_integer(
            2**200, ThresholdPolicy(n=3, z=2), field, random.Random(9)
        )
        with pytest.raises(ShareError, match="chunk count"):
            reconstruct_integer([dealt[0], dealt[1][:-1]])

    def test_one_scheme_id_across_chunks(self):
        field = FieldParams()
        dealt = split_integer(
            2**100, ThresholdPolicy(n=3, z=2), field, random.Random(9)
        )
        ids = {s.scheme_id for chunks in dealt for s in chunks}
        assert len(ids) == 1

    def test_random_round_trip_sweep(self):
        rng = random.Random(606)
        field = FieldParams()
        for _ in range(25):
            n = rng.randrange(2, 7)
            z = rng.randrange(2, n + 1)
            secret = rng.randrange(2**rng.randrange(1, 180))
            dealt = split_integer(
                secret, ThresholdPolicy(n=n, z=z), field, rng
            )
            picks = rng.sample(range(n), z)
            assert reconstruct_integer([dealt[i] for i in picks]) == secret


class TestShareFiles:
    def test_object_round_trip(self):
        shares = split(
            7, ThresholdPolicy(n=3, z=2), FieldParams(257), random.Random(3)
        )
        assert share_from_obj(share_to_obj(shares[0])) == shares[0]

    def test_unknown_field_rejected(self):
        obj = share_to_obj(
            split(7, ThresholdPolicy(n=3, z=2), FieldParams(257),
                  random.Random(3))[0]
        )
        obj["note"] = "hi"
        with pytest.raises(ShareError):
            share_from_obj(obj)

    @pytest.mark.parametrize("field, value", [
        ("prime", "257"), ("prime", 257.0), ("n", True), ("z", None),
        ("x", "1"), ("y", 7.5), ("scheme_id", 5),
    ])
    def test_wrong_field_type_rejected(self, field, value):
        obj = share_to_obj(
            split(7, ThresholdPolicy(n=3, z=2), FieldParams(257),
                  random.Random(3))[0]
        )
        obj[field] = value
        with pytest.raises(ShareError, match=f"share {field} must be"):
            share_from_obj(obj)

    def test_single_chunk_file(self, tmp_path):
        dealt = split_integer(
            42, ThresholdPolicy(n=3, z=2), FieldParams(), random.Random(4)
        )
        path = tmp_path / "share.json"
        write_share_file(path, dealt[0])
        assert read_share_file(path) == list(dealt[0])

    def test_multi_chunk_file(self, tmp_path):
        dealt = split_integer(
            2**100, ThresholdPolicy(n=3, z=2), FieldParams(), random.Random(4)
        )
        path = tmp_path / "share.json"
        write_share_file(path, dealt[1])
        assert read_share_file(path) == list(dealt[1])

    def test_files_reconstruct(self, tmp_path):
        secret = 31337 * 2**61
        dealt = split_integer(
            secret, ThresholdPolicy(n=4, z=2), FieldParams(), random.Random(5)
        )
        paths = []
        for i, chunks in enumerate(dealt):
            path = tmp_path / f"share-{i}.json"
            write_share_file(path, chunks)
            paths.append(path)
        loaded = [read_share_file(p) for p in (paths[0], paths[3])]
        assert reconstruct_integer(loaded) == secret


class TestCompositePrime:
    # (1, 7) and (4, 13) lie on 5 + 2x mod 15; 4 - 1 = 3 divides 15.
    SHARES = tuple(
        Share(x=x, y=y, scheme_id="c0ffee", prime=15, n=2, z=2)
        for x, y in ((1, 7), (4, 13))
    )

    def test_reconstruct_refuses_uninvertible_denominator(self):
        with pytest.raises(ShareError, match="15 is not prime"):
            reconstruct(self.SHARES)

    def test_refusal_is_not_cached(self):
        # The Lagrange weights are memoised per (xs, prime); a refusal
        # must come back on every call, not only the first.
        for _ in range(2):
            with pytest.raises(ShareError, match="15 is not prime"):
                reconstruct(self.SHARES)

    def test_share_record_refuses_composite_prime(self, tmp_path):
        obj = share_to_obj(self.SHARES[0])
        with pytest.raises(ShareError, match="15 is not prime"):
            share_from_obj(obj)
        path = tmp_path / "share.json"
        write_share_file(path, self.SHARES[:1])
        with pytest.raises(ShareError, match="15 is not prime"):
            read_share_file(path)
