"""Minimum-redundancy archival coding for repetitive attribute records.

Long-term storage keeps attribute records, not raw event rows: each
record is the ``(AttributeKind, value)`` pair an event carried, and its
pattern key is the JSON object ``{"kind":value}`` that ``record_key``
writes. Distinct records become patterns, patterns get
minimum-redundancy prefix-free codewords, and an archive is codebook +
packed codeword stream. Average codeword length is kept as an exact
rational so stated compression numbers are reproducible bit for bit.

Logs repeat few distinct records, so JSON work happens once per pattern:
``collect_patterns`` and ``encode`` write one key per distinct record,
and ``decode`` parses one key per codeword with ``record_from_key``,
which accepts only a key ``record_key`` could have written. Decoding
matches the payload's bit string against one regular expression shaped
as the code tree, one match per codeword, for any code length.

Archive layout (all integers big-endian):

    magic 5A 54 4C 43 | version 01 | u32 pattern count
    per pattern: u16 key byte length | UTF-8 key | u8 code bit length
                 | code bits, MSB first, zero padded to a byte
    u64 record count | payload bits, MSB first, zero padded
"""

from __future__ import annotations

import heapq
import json
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .model import AttributeKind, EdrEvent, ModelError, check_value

MAGIC = b"\x5a\x54\x4c\x43"
VERSION = 1


class CodecError(ValueError):
    """Raised for malformed tables, unknown patterns, corrupt archives."""


AttributeRecord = tuple[AttributeKind, int | str]
"""An archive record: one event's attribute kind and value."""


def record_key(record: AttributeRecord) -> str:
    """The record's pattern key, the JSON object ``{kind: value}``."""

    kind, value = record
    return json.dumps({kind.value: value}, separators=(",", ":"),
                      ensure_ascii=False)


def record_from_key(key: str) -> AttributeRecord:
    """Parse a pattern key back into its record. Only the key that
    ``record_key`` writes for a record an event can carry is accepted."""

    try:
        obj = json.loads(key)
    except (ValueError, RecursionError):
        raise CodecError(f"malformed pattern key: {key!r}") from None
    if not isinstance(obj, dict):
        raise CodecError(f"pattern key must encode an object: {key!r}")
    if len(obj) != 1:
        raise CodecError(f"pattern key must name one attribute: {key!r}")
    [(name, value)] = obj.items()
    try:
        kind = AttributeKind(name)
    except ValueError:
        raise CodecError(f"unknown attribute in pattern key: {key!r}") \
            from None
    try:
        check_value(kind, value)
    except ModelError as exc:
        raise CodecError(f"pattern key {key!r}: {exc}") from None
    record = (kind, value)
    if record_key(record) != key:
        raise CodecError("corrupt archive: non-canonical pattern key")
    return record


def records_from_events(events: Iterable[EdrEvent]) -> list[AttributeRecord]:
    return [(e.attribute, e.value) for e in events]


@dataclass(frozen=True)
class Pattern:
    key: str
    probability: Fraction
    count: int


@dataclass(frozen=True)
class PatternTable:
    """Distinct patterns with exact empirical probabilities, plus the
    codebook once one has been built."""

    patterns: tuple[Pattern, ...]
    total: int
    codebook: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.patterns:
            raise CodecError("pattern table must not be empty")
        if sum(p.probability for p in self.patterns) != 1:
            raise CodecError("pattern probabilities must sum to 1 exactly")


def collect_patterns(records: Sequence[AttributeRecord]) -> PatternTable:
    """Tally distinct records into a pattern table (no codebook yet)."""

    if not records:
        raise CodecError("cannot collect patterns from an empty record set")
    counts = {record_key(record): n
              for record, n in Counter(records).items()}
    total = len(records)
    patterns = tuple(
        Pattern(key=key, probability=Fraction(count, total), count=count)
        for key, count in sorted(counts.items())
    )
    return PatternTable(patterns=patterns, total=total)


def build_codebook(table: PatternTable) -> PatternTable:
    """Assign minimum-redundancy codewords.

    Queue ties break on the lexicographically smallest pattern key in a
    subtree, so the same table always yields the same codebook. A
    single-pattern table gets the one-bit codeword "0".
    """

    if len(table.patterns) == 1:
        return PatternTable(
            patterns=table.patterns,
            total=table.total,
            codebook={table.patterns[0].key: "0"},
        )
    # heap entries: (probability, tie key, node); node is a key or a pair
    heap: list[tuple[Fraction, str, object]] = [
        (p.probability, p.key, p.key) for p in table.patterns
    ]
    heapq.heapify(heap)
    while len(heap) > 1:
        p0, k0, n0 = heapq.heappop(heap)
        p1, k1, n1 = heapq.heappop(heap)
        heapq.heappush(heap, (p0 + p1, min(k0, k1), (n0, n1)))
    _, _, root = heap[0]
    codebook: dict[str, str] = {}

    def assign(node: object, prefix: str) -> None:
        if isinstance(node, str):
            codebook[node] = prefix
        else:
            left, right = node
            assign(left, prefix + "0")
            assign(right, prefix + "1")

    assign(root, "")
    return PatternTable(
        patterns=table.patterns, total=table.total, codebook=codebook
    )


def average_length(table: PatternTable) -> Fraction:
    """Expected codeword length, exactly."""

    if table.codebook is None:
        raise CodecError("pattern table has no codebook")
    return sum(
        (p.probability * len(table.codebook[p.key]) for p in table.patterns),
        start=Fraction(0),
    )


@dataclass(frozen=True)
class CompressedArchive:
    """A self-contained archive: its codebook travels with the payload."""

    codebook: Mapping[str, str]
    record_count: int
    payload: bytes


def _pack_bits(bits: str) -> bytes:
    size = (len(bits) + 7) // 8
    return int(bits.ljust(8 * size, "0") or "0", 2).to_bytes(size, "big")


def encode(
    records: Sequence[AttributeRecord], table: PatternTable
) -> CompressedArchive:
    """Encode records in order against a built codebook."""

    if table.codebook is None:
        raise CodecError("pattern table has no codebook")
    codes: dict[AttributeRecord, str] = {}
    for record in dict.fromkeys(records):  # first unknown record named
        key = record_key(record)
        code = table.codebook.get(key)
        if code is None:
            raise CodecError(f"pattern not in codebook: {key!r}")
        codes[record] = code
    bits = "".join(map(codes.__getitem__, records))
    return CompressedArchive(
        codebook=dict(table.codebook),
        record_count=len(records),
        payload=_pack_bits(bits),
    )


def _check_prefix_free(codebook: Mapping[str, str]) -> None:
    codes = sorted(codebook.values())
    for a, b in zip(codes, codes[1:]):
        if b.startswith(a):
            raise CodecError("corrupt archive: codebook is not prefix-free")


def _tree_pattern(codes: Sequence[str], depth: int = 0) -> str:
    """A regular expression matching exactly the codewords in ``codes``,
    which are sorted, prefix-free and share their first ``depth`` bits:
    one ``(?:0...|1...)`` branch per node of the code tree below them."""

    if len(codes[0]) == depth:  # a leaf: prefix-free, so the only code
        return ""
    split = bisect_left(codes, "1", key=itemgetter(depth))
    branches = [bit + _tree_pattern(part, depth + 1)
                for bit, part in (("0", codes[:split]), ("1", codes[split:]))
                if part]
    return branches[0] if len(branches) == 1 else f"(?:{'|'.join(branches)})"


def decode(archive: CompressedArchive) -> list[AttributeRecord]:
    """Parse the payload back into the original record sequence."""

    count = archive.record_count
    if count and not archive.codebook:
        raise CodecError("corrupt archive: records but no codebook")
    _check_prefix_free(archive.codebook)
    by_code = {code: record_from_key(key)
               for key, code in archive.codebook.items()}
    total_bits = len(archive.payload) * 8
    bits = format(int.from_bytes(archive.payload, "big"), f"0{total_bits}b")
    codes: list[str] = []
    if count:
        # An empty codeword matches nothing: the walk falls off at once.
        codes = re.findall(_tree_pattern(sorted(by_code)) or "(?!)", bits)
        del codes[count:]
    parsed = "".join(codes)
    if len(codes) < count or not bits.startswith(parsed):
        # The first position no codeword starts at: the bit walk falls
        # off the tree there if a longest codeword's worth of bits is
        # left, else it runs out of bits first.
        pos = 0
        for code in codes:
            if not bits.startswith(code, pos):
                break
            pos += len(code)
        if total_bits - pos >= max(map(len, by_code)):
            raise CodecError("corrupt archive: prefix walk fell off the tree")
        raise CodecError("corrupt archive: bit stream exhausted early")
    pos = len(parsed)
    if total_bits - pos >= 8:
        raise CodecError("corrupt archive: trailing payload beyond padding")
    if "1" in bits[pos:]:
        raise CodecError("corrupt archive: nonzero padding bits")
    return list(map(by_code.__getitem__, codes))


# --- binary wire format -----------------------------------------------------

def archive_to_bytes(archive: CompressedArchive) -> bytes:
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out += len(archive.codebook).to_bytes(4, "big")
    for key in sorted(archive.codebook):
        code = archive.codebook[key]
        raw = key.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CodecError("pattern key too long for archive format")
        if not 0 < len(code) <= 0xFF:
            raise CodecError("codeword length out of archive format range")
        out += len(raw).to_bytes(2, "big")
        out += raw
        out.append(len(code))
        out += _pack_bits(code)
    out += archive.record_count.to_bytes(8, "big")
    out += archive.payload
    return bytes(out)


def _parse_archive(
    data: bytes,
) -> tuple[CompressedArchive, list[AttributeRecord]]:
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CodecError("corrupt archive: truncated")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CodecError("corrupt archive: bad magic")
    version = take(1)[0]
    if version != VERSION:
        raise CodecError(f"unsupported archive version {version}")
    pattern_count = int.from_bytes(take(4), "big")
    codebook: dict[str, str] = {}
    for _ in range(pattern_count):
        key_len = int.from_bytes(take(2), "big")
        key = bytes(take(key_len)).decode("utf-8")
        code_len = take(1)[0]
        if code_len == 0:
            raise CodecError("corrupt archive: zero-length codeword")
        code_bytes = bytes(take((code_len + 7) // 8))
        bits = "".join(f"{b:08b}" for b in code_bytes)
        if any(c == "1" for c in bits[code_len:]):
            raise CodecError("corrupt archive: nonzero codeword padding")
        if key in codebook:
            raise CodecError("corrupt archive: duplicate pattern key")
        codebook[key] = bits[:code_len]
    record_count = int.from_bytes(take(8), "big")
    payload = bytes(view[pos:])
    archive = CompressedArchive(
        codebook=codebook, record_count=record_count, payload=payload
    )
    # Parsing is verification: a container that cannot decode cleanly
    # (truncated payload, trailing bytes, dirty padding, inconsistent
    # record count) is rejected at the border, not at first use.
    return archive, decode(archive)


def archive_from_bytes(data: bytes) -> CompressedArchive:
    return _parse_archive(data)[0]


def write_archive(path: str | Path, archive: CompressedArchive) -> None:
    Path(path).write_bytes(archive_to_bytes(archive))


def read_archive(
    path: str | Path,
) -> tuple[CompressedArchive, list[AttributeRecord]]:
    """The archive at ``path`` and its records, from the one decode that
    verifies it."""

    return _parse_archive(Path(path).read_bytes())
