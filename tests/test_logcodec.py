"""Record-pattern prefix coding: optimality, bounds, wire format."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from trustgate import logcodec
from trustgate.logcodec import (
    AttributeRecord,
    CodecError,
    CompressedArchive,
    _pack_bits,
    archive_from_bytes,
    archive_to_bytes,
    average_length,
    build_codebook,
    collect_patterns,
    decode,
    encode,
    read_archive,
    record_from_key,
    record_key,
    records_from_events,
    write_archive,
)
from trustgate.model import AttributeKind

from conftest import make_event

IO = AttributeKind.IO_OPERATION_COUNT
NET = AttributeKind.FREQUENT_EXTERNAL_NETWORK_ID


def table_from_counts(counts: dict[str, int]):
    """One synthetic categorical record per key, repeated per count."""

    records = []
    for name, count in sorted(counts.items()):
        records.extend([(NET, name)] * count)
    return collect_patterns(records)


@lru_cache(maxsize=None)
def depth_multisets(leaves: int) -> frozenset[tuple[int, ...]]:
    """All leaf-depth multisets of full binary trees with ``leaves`` leaves."""

    if leaves == 1:
        return frozenset({(0,)})
    out = set()
    for left in range(1, leaves):
        for ld in depth_multisets(left):
            for rd in depth_multisets(leaves - left):
                out.add(tuple(sorted(d + 1 for d in ld + rd)))
    return frozenset(out)


def oracle_optimal_length(probabilities: list[Fraction]) -> Fraction:
    """Minimum expected depth over every possible full binary tree,
    assigning the largest probabilities to the shallowest leaves."""

    probs = sorted(probabilities, reverse=True)
    best = None
    for multiset in depth_multisets(len(probs)):
        candidate = sum(
            (p * d for p, d in zip(probs, sorted(multiset))),
            start=Fraction(0),
        )
        if best is None or candidate < best:
            best = candidate
    return best


def entropy_bits(probabilities: list[Fraction]) -> float:
    return -sum(float(p) * math.log2(float(p)) for p in probabilities if p)


class TestFrozenFixtures:
    def test_half_quarter_quarter_is_three_halves(self):
        table = build_codebook(table_from_counts({"a": 2, "b": 1, "c": 1}))
        assert average_length(table) == Fraction(3, 2)
        assert table.codebook[record_key((NET, "a"))] == "0"

    def test_four_equal_patterns_cost_two_bits(self):
        table = build_codebook(
            table_from_counts({"a": 1, "b": 1, "c": 1, "d": 1})
        )
        assert average_length(table) == Fraction(2)
        assert sorted(table.codebook.values()) == ["00", "01", "10", "11"]

    def test_six_symbol_average_is_56_over_25(self):
        counts = {"a": 45, "b": 16, "c": 13, "d": 12, "e": 9, "f": 5}
        table = build_codebook(table_from_counts(counts))
        assert average_length(table) == Fraction(56, 25)
        lengths = {name: len(table.codebook[record_key((NET, name))])
                   for name in counts}
        assert lengths == {"a": 1, "b": 3, "c": 3, "d": 3, "e": 4, "f": 4}

    def test_single_pattern_gets_one_bit(self):
        table = build_codebook(table_from_counts({"only": 7}))
        assert list(table.codebook.values()) == ["0"]
        assert average_length(table) == Fraction(1)

    def test_empty_record_set_rejected(self):
        with pytest.raises(CodecError):
            collect_patterns([])


class TestOptimality:
    def test_matches_exhaustive_tree_oracle(self):
        rng = random.Random(31415)
        for _ in range(120):
            k = rng.randrange(2, 7)
            counts = {
                f"p{i:02d}": rng.randrange(1, 40) for i in range(k)
            }
            table = build_codebook(table_from_counts(counts))
            probs = [p.probability for p in table.patterns]
            assert average_length(table) == oracle_optimal_length(probs)

    def test_deterministic_codebook_under_ties(self):
        counts = {"w": 3, "x": 3, "y": 3, "z": 3}
        books = [
            build_codebook(table_from_counts(counts)).codebook
            for _ in range(5)
        ]
        assert all(b == books[0] for b in books)

    def test_entropy_bounds(self):
        rng = random.Random(27182)
        for _ in range(200):
            k = rng.randrange(2, 12)
            counts = {f"p{i:02d}": rng.randrange(1, 60) for i in range(k)}
            table = build_codebook(table_from_counts(counts))
            probs = [p.probability for p in table.patterns]
            avg = float(average_length(table))
            h = entropy_bits(probs)
            assert h - 1e-9 <= avg < h + 1.0 + 1e-9

    def test_dyadic_distribution_meets_entropy_exactly(self):
        # 1/2, 1/4, 1/8, 1/8 -> H = 7/4, reached exactly.
        table = build_codebook(
            table_from_counts({"a": 4, "b": 2, "c": 1, "d": 1})
        )
        assert average_length(table) == Fraction(7, 4)

    def test_codebook_is_prefix_free(self):
        rng = random.Random(16180)
        for _ in range(50):
            k = rng.randrange(2, 20)
            counts = {f"p{i:02d}": rng.randrange(1, 30) for i in range(k)}
            codebook = build_codebook(table_from_counts(counts)).codebook
            codes = sorted(codebook.values())
            for i in range(len(codes) - 1):
                assert not codes[i + 1].startswith(codes[i])


# Values a pattern key may not hold: each is unhashable or equal to an
# int whose key differs.
INVALID_VALUES = {"list": [1], "null": None, "float": 1.0, "bool": True}


class TestRecordsFromEvents:
    def test_projection_drops_identity(self):
        events = [
            make_event(0, 0, value=9),
            make_event(5, 50, value=9),
        ]
        assert records_from_events(events) == [(IO, 9), (IO, 9)]

    def test_key_round_trip(self):
        records = [(IO, 5), (AttributeKind.SYSTEM_CALL_COUNT, 2**64 - 1),
                   (NET, "net-\u00e9\u2603")]
        keys = [record_key(record) for record in records]
        assert keys == ['{"io_operation_count":5}',
                        '{"system_call_count":18446744073709551615}',
                        '{"frequent_external_network_id":"net-\u00e9\u2603"}']
        assert [record_from_key(key) for key in keys] == records

    @pytest.mark.parametrize("value", INVALID_VALUES.values(),
                             ids=INVALID_VALUES)
    def test_invalid_value_rejected(self, value):
        key = json.dumps({"io_operation_count": value}, separators=(",", ":"))
        with pytest.raises(CodecError, match="value must be an integer"):
            record_from_key(key)


def fibonacci_records() -> list[AttributeRecord]:
    """20 patterns weighted 1, 1, 2, 3, 5, ...: Huffman's tree is a
    chain, so the rarest two codes are 19 bits long."""

    weights = [1, 1]
    while len(weights) < 20:
        weights.append(weights[-1] + weights[-2])
    records = []
    for i, weight in enumerate(weights):
        records.extend([(NET, f"net-{i:02d}")] * weight)
    random.Random(19).shuffle(records)
    return records


class TestRoundTrip:
    def build_records(self, rng: random.Random, n: int):
        choices = [
            (IO, 3),
            (IO, 12),
            (AttributeKind.SYSTEM_CALL_COUNT, 80),
            (AttributeKind.PRIVILEGE_ESCALATION_ATTEMPTS, 7),
            (NET, "net-x"),
        ]
        return [rng.choice(choices) for _ in range(n)]

    def test_encode_decode_in_memory(self):
        rng = random.Random(5)
        records = self.build_records(rng, 500)
        table = build_codebook(collect_patterns(records))
        archive = encode(records, table)
        assert archive.record_count == 500
        assert decode(archive) == records

    def test_bytes_round_trip(self):
        rng = random.Random(6)
        records = self.build_records(rng, 257)
        table = build_codebook(collect_patterns(records))
        archive = encode(records, table)
        data = archive_to_bytes(archive)
        assert data[:4] == b"\x5a\x54\x4c\x43"
        assert data[4] == 1
        recovered = archive_from_bytes(data)
        assert decode(recovered) == records

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(7)
        records = self.build_records(rng, 100)
        table = build_codebook(collect_patterns(records))
        archive = encode(records, table)
        path = tmp_path / "log.ztlc"
        write_archive(path, archive)
        recovered, decoded = read_archive(path)
        assert decoded == decode(recovered) == records

    def test_single_pattern_stream(self):
        records = [(IO, 1)] * 23
        table = build_codebook(collect_patterns(records))
        archive = encode(records, table)
        data = archive_to_bytes(archive)
        assert decode(archive_from_bytes(data)) == records

    def test_nineteen_bit_codes_round_trip(self):
        records = fibonacci_records()
        table = build_codebook(collect_patterns(records))
        assert max(len(code) for code in table.codebook.values()) == 19
        data = archive_to_bytes(encode(records, table))
        assert decode(archive_from_bytes(data)) == records

    def test_255_bit_codes_round_trip(self):
        # A chain-shaped code tree: code i is i ones and a zero, and the
        # last code is 255 ones, the longest the archive format holds.
        records = [(IO, i) for i in range(256)]
        keys = [record_key(r) for r in records]
        codebook = {key: "1" * i + "0" for i, key in enumerate(keys)}
        codebook[keys[-1]] = "1" * 255
        archive = CompressedArchive(
            codebook, len(records),
            _pack_bits("".join(codebook[key] for key in keys)))
        assert decode(archive_from_bytes(archive_to_bytes(archive))) == records

    def test_thousand_patterns_round_trip(self):
        rng = random.Random(10)
        records = [(IO, rng.randrange(1000)) for _ in range(20_000)]
        table = build_codebook(collect_patterns(records))
        assert len(table.codebook) == 1000
        data = archive_to_bytes(encode(records, table))
        assert decode(archive_from_bytes(data)) == records

    def test_large_archive_round_trip(self):
        records = self.build_records(random.Random(8), 200_000)
        table = build_codebook(collect_patterns(records))
        data = archive_to_bytes(encode(records, table))
        assert decode(archive_from_bytes(data)) == records

    def test_decode_parses_each_codeword_once(self, monkeypatch):
        records = self.build_records(random.Random(9), 1000)
        archive = encode(records, build_codebook(collect_patterns(records)))
        parsed = []

        def counting(key):
            parsed.append(key)
            return record_from_key(key)

        monkeypatch.setattr(logcodec, "record_from_key", counting)
        assert decode(archive) == records
        assert sorted(parsed) == sorted(archive.codebook)

    def test_encoding_unknown_pattern_rejected(self):
        known = [(IO, 1)]
        table = build_codebook(collect_patterns(known))
        stranger = (IO, 2)
        with pytest.raises(CodecError, match="not in codebook"):
            encode(known + [stranger], table)


def raw_archive(
    entries: list[tuple[str, int, bytes]], record_count: int, payload: bytes
) -> bytes:
    """Archive bytes written field by field, without the encoder's
    checks: each entry is (key, code bit length, packed code bytes)."""

    out = bytearray(b"\x5a\x54\x4c\x43\x01")
    out += len(entries).to_bytes(4, "big")
    for key, code_len, code in entries:
        raw = key.encode("utf-8")
        out += len(raw).to_bytes(2, "big") + raw
        out.append(code_len)
        out += code
    out += record_count.to_bytes(8, "big")
    return bytes(out + payload)


A = '{"io_operation_count":1}'
B = '{"io_operation_count":2}'
C = '{"io_operation_count":3}'
# Codes "0", "10" and "11" + 20 zeros: no codeword starts "111".
GAPPED = [(A, 1, b"\x00"), (B, 2, b"\x80"), (C, 22, b"\xc0\x00\x00")]
LONG_INT = '{"io_operation_count":' + "9" * 5000 + "}"

# case -> (archive bytes, exact CodecError message)
CORRUPT_ARCHIVES = {
    # Codes "0" and "10" leave "11" unassigned; the payload starts "11".
    "walk_falls_off_incomplete_codebook": (
        raw_archive([(A, 1, b"\x00"), (B, 2, b"\x80")], 1, b"\xc0"),
        "corrupt archive: prefix walk fell off the tree",
    ),
    # One record "0", then padding 0000001.
    # "0", "0", then "111" with 22 bits left, the longest code's length:
    # the walk reaches that depth off the tree.
    "gap_mid_payload_walk_falls_off": (
        raw_archive(GAPPED, 5, b"\x38\x00\x00"),
        "corrupt archive: prefix walk fell off the tree",
    ),
    # "0", "10", then "111" with 21 bits left, one short of the longest
    # code: the walk runs out of bits first.
    "gap_mid_payload_bits_run_out": (
        raw_archive(GAPPED, 5, b"\x5c\x00\x00"),
        "corrupt archive: bit stream exhausted early",
    ),
    "nonzero_payload_padding": (
        raw_archive([(A, 1, b"\x00"), (B, 1, b"\x80")], 1, b"\x01"),
        "corrupt archive: nonzero padding bits",
    ),
    # A repeated codeword is a prefix of itself, so the prefix check
    # is the one that rejects it.
    "duplicate_codewords": (
        raw_archive([(A, 1, b"\x00"), (B, 1, b"\x00")], 1, b"\x00"),
        "corrupt archive: codebook is not prefix-free",
    ),
    "records_but_no_codebook": (
        raw_archive([], 1, b"\x00"),
        "corrupt archive: records but no codebook",
    ),
    "zero_length_codeword": (
        raw_archive([(A, 0, b"")], 0, b""),
        "corrupt archive: zero-length codeword",
    ),
    "nonzero_codeword_padding": (
        raw_archive([(A, 1, b"\x01")], 1, b"\x00"),
        "corrupt archive: nonzero codeword padding",
    ),
    "duplicate_pattern_key": (
        raw_archive([(A, 1, b"\x00"), (A, 1, b"\x80")], 1, b"\x00"),
        "corrupt archive: duplicate pattern key",
    ),
    "key_nested_past_parser_depth": (
        raw_archive([("[" * 5000, 1, b"\x00")], 1, b"\x00"),
        f"malformed pattern key: {'[' * 5000!r}",
    ),
    "key_integer_past_digit_limit": (
        raw_archive([(LONG_INT, 1, b"\x00")], 1, b"\x00"),
        f"malformed pattern key: {LONG_INT!r}",
    ),
    # Each record is one event's single attribute.
    "key_with_two_attributes": (
        raw_archive([('{"io_operation_count":1,"system_call_count":2}', 1,
                      b"\x00")], 1, b"\x00"),
        "pattern key must name one attribute: "
        "'{\"io_operation_count\":1,\"system_call_count\":2}'",
    ),
    "key_with_unknown_attribute": (
        raw_archive([('{"io_count":1}', 1, b"\x00")], 1, b"\x00"),
        "unknown attribute in pattern key: '{\"io_count\":1}'",
    ),
    "key_with_bool_value": (
        raw_archive([('{"io_operation_count":true}', 1, b"\x00")], 1,
                    b"\x00"),
        "pattern key '{\"io_operation_count\":true}': attribute "
        "io_operation_count value must be an integer",
    ),
    "key_with_fraction_value": (
        raw_archive([('{"io_operation_count":1.5}', 1, b"\x00")], 1,
                    b"\x00"),
        "pattern key '{\"io_operation_count\":1.5}': attribute "
        "io_operation_count value must be an integer",
    ),
    # A key decodes only to a record an event can carry.
    "key_with_string_for_numeric_kind": (
        raw_archive([('{"io_operation_count":"x"}', 1, b"\x00")], 1,
                    b"\x00"),
        "pattern key '{\"io_operation_count\":\"x\"}': attribute "
        "io_operation_count value must be an integer",
    ),
    "key_with_negative_value": (
        raw_archive([('{"io_operation_count":-1}', 1, b"\x00")], 1,
                    b"\x00"),
        "pattern key '{\"io_operation_count\":-1}': attribute "
        "io_operation_count value -1 outside the unsigned 64-bit range",
    ),
    "key_with_value_past_64_bits": (
        raw_archive([('{"io_operation_count":18446744073709551616}', 1,
                      b"\x00")], 1, b"\x00"),
        "pattern key '{\"io_operation_count\":18446744073709551616}': "
        "attribute io_operation_count value 18446744073709551616 outside "
        "the unsigned 64-bit range",
    ),
    "key_with_empty_network_id": (
        raw_archive([('{"frequent_external_network_id":""}', 1, b"\x00")],
                    1, b"\x00"),
        "pattern key '{\"frequent_external_network_id\":\"\"}': attribute "
        "frequent_external_network_id expects a non-empty string value",
    ),
    "key_with_integer_network_id": (
        raw_archive([('{"frequent_external_network_id":7}', 1, b"\x00")],
                    1, b"\x00"),
        "pattern key '{\"frequent_external_network_id\":7}': attribute "
        "frequent_external_network_id expects a non-empty string value",
    ),
}


class TestCorruptArchives:
    def good_bytes(self) -> bytes:
        records = [(IO, v) for v in (1, 1, 2, 3, 3, 3)]
        table = build_codebook(collect_patterns(records))
        return archive_to_bytes(encode(records, table))

    def test_bad_magic(self):
        data = b"XXXX" + self.good_bytes()[4:]
        with pytest.raises(CodecError, match="magic"):
            archive_from_bytes(data)

    def test_bad_version(self):
        data = self.good_bytes()
        data = data[:4] + b"\x02" + data[5:]
        with pytest.raises(CodecError, match="version"):
            archive_from_bytes(data)

    def test_truncated(self):
        data = self.good_bytes()
        with pytest.raises(CodecError):
            archive_from_bytes(data[: len(data) - 1])

    def test_trailing_bytes(self):
        data = self.good_bytes() + b"\x00"
        with pytest.raises(CodecError):
            archive_from_bytes(data)

    def test_record_count_too_large_for_payload(self):
        records = [(IO, 1), (IO, 2)]
        table = build_codebook(collect_patterns(records))
        archive = encode(records, table)
        inflated = CompressedArchive(
            codebook=archive.codebook,
            record_count=archive.record_count + 50,
            payload=archive.payload,
        )
        with pytest.raises(CodecError, match="exhausted"):
            decode(inflated)

    def test_record_count_too_small_leaves_trailing_payload(self):
        records = [(IO, 1), (IO, 2)] * 10
        table = build_codebook(collect_patterns(records))
        archive = encode(records, table)
        deflated = CompressedArchive(
            codebook=archive.codebook,
            record_count=2,
            payload=archive.payload,
        )
        with pytest.raises(CodecError, match="trailing"):
            decode(deflated)

    def test_empty_codeword_falls_off_the_tree(self):
        archive = CompressedArchive(codebook={A: ""}, record_count=1,
                                    payload=b"\x00")
        with pytest.raises(CodecError) as info:
            decode(archive)
        assert str(info.value) == "corrupt archive: prefix walk fell off the tree"

    def test_empty_archive(self):
        assert decode(archive_from_bytes(raw_archive([], 0, b""))) == []
        with pytest.raises(CodecError) as info:
            archive_from_bytes(raw_archive([], 0, b"\x00"))
        assert str(info.value) == (
            "corrupt archive: trailing payload beyond padding")

    def test_non_prefix_free_codebook_rejected(self):
        archive = CompressedArchive(
            codebook={
                '{"io_operation_count":1}': "0",
                '{"io_operation_count":2}': "01",
            },
            record_count=1,
            payload=b"\x00",
        )
        with pytest.raises(CodecError, match="prefix"):
            decode(archive)

    @pytest.mark.parametrize("value", INVALID_VALUES.values(),
                             ids=INVALID_VALUES)
    def test_invalid_value_in_pattern_key(self, value):
        key = json.dumps({"io_operation_count": value}, separators=(",", ":"))
        data = raw_archive([(key, 1, b"\x00")], 1, b"\x00")
        with pytest.raises(CodecError, match="value must be an integer"):
            archive_from_bytes(data)

    def test_non_canonical_pattern_key(self):
        # Both keys parse to the same record under different codewords.
        data = raw_archive(
            [('{"io_operation_count": 1}', 1, b"\x00"), (A, 1, b"\x80")],
            2, b"\x40",
        )
        with pytest.raises(CodecError) as info:
            archive_from_bytes(data)
        assert str(info.value) == "corrupt archive: non-canonical pattern key"

    @pytest.mark.parametrize("case", sorted(CORRUPT_ARCHIVES))
    def test_corrupt_archive_table(self, case):
        data, message = CORRUPT_ARCHIVES[case]
        with pytest.raises(CodecError) as info:
            archive_from_bytes(data)
        assert str(info.value) == message
