"""Packed storage for the content-addressed analysis cache.

One file per app would make a warm 1M-app re-run pay a filesystem
``open`` per app — two orders of magnitude more syscalls than actual
work — and directory fanout churns the dentry cache.  This module
stores entries in an append-only *pack* format instead:

``seg-<digest>.pack``
    A segment: fixed 16-byte header (magic, format version, record
    count) followed by length-prefixed records.  Each record is
    ``u32 payload length + 32-byte sha256(payload) + payload`` where
    the payload is canonical JSON (sorted keys, compact separators).
    Reads re-hash the payload and treat any mismatch as a miss, so a
    torn or corrupted record can never surface as a cache hit.

``seg-<digest>.idx``
    The segment's fanout index: header, a 256-entry cumulative fanout
    table over the first key byte, the sorted raw 32-byte keys, and a
    parallel ``(u64 offset, u32 length)`` table pointing into the
    segment.  A warm run opens O(segments) files — one index per
    segment up front, one lazy handle per segment actually read —
    regardless of how many records they hold.

Writers buffer records in memory and emit a whole segment at
``flush()`` (the pipeline flushes once per shard, and ``put`` rotates
automatically past a record cap).  Segment and index files are staged
to a temp name and ``os.replace``d into place, and segment names are
derived from the content digest — concurrent shards never collide and
re-flushing identical content is idempotent.

Semantic validation (schema and detector-version checks,
record materialization) stays with the caller — this module moves
*payload dicts* in and out of files.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

SEGMENT_MAGIC = b"RPK1"
INDEX_MAGIC = b"RPX1"
PACK_FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQ")       # magic, version, record count
_RECORD_PREFIX = struct.Struct("<I")   # payload length
_INDEX_ENTRY = struct.Struct("<QI")    # payload offset, payload length
_FANOUT = struct.Struct("<256I")

#: ``put`` rotates the open buffer into a segment past this many
#: records, bounding writer memory on giant shards.
DEFAULT_ROTATE_RECORDS = 65536

_KEY_BYTES = 32


def _canonical_payload(payload: dict) -> bytes:
    """The byte form that is hashed, stored, and verified."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class _Segment:
    """One pack segment and its in-memory index tables."""

    def __init__(self, path: str, count: int, fanout: Tuple[int, ...],
                 keys: bytes, entries: bytes) -> None:
        self.path = path
        self.count = count
        self._fanout = fanout
        self._keys = keys
        self._entries = entries
        self._handle = None

    def find(self, raw_key: bytes) -> Optional[Tuple[int, int]]:
        """``(offset, length)`` of the key's payload, or None."""
        bucket = raw_key[0]
        low = self._fanout[bucket - 1] if bucket else 0
        high = self._fanout[bucket]
        keys = self._keys
        while low < high:
            mid = (low + high) // 2
            probe = keys[mid * _KEY_BYTES:(mid + 1) * _KEY_BYTES]
            if probe < raw_key:
                low = mid + 1
            elif probe > raw_key:
                high = mid
            else:
                return _INDEX_ENTRY.unpack_from(
                    self._entries, mid * _INDEX_ENTRY.size)
        return None

    def read_payload(self, offset: int, length: int) -> Optional[dict]:
        """Decode one sha256-verified payload; None on any corruption."""
        try:
            if self._handle is None:
                self._handle = open(self.path, "rb")
            self._handle.seek(offset - _KEY_BYTES)
            blob = self._handle.read(_KEY_BYTES + length)
        except OSError:
            return None
        if len(blob) != _KEY_BYTES + length:
            return None
        digest, payload = blob[:_KEY_BYTES], blob[_KEY_BYTES:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        try:
            decoded = json.loads(payload)
        except json.JSONDecodeError:
            return None
        return decoded if isinstance(decoded, dict) else None

    def iter_payloads(self) -> Iterator[dict]:
        """Records in file order (skipping any that fail verification)."""
        for index in range(self.count):
            entry = _INDEX_ENTRY.unpack_from(
                self._entries, index * _INDEX_ENTRY.size)
            payload = self.read_payload(*entry)
            if payload is not None:
                yield payload

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


def _build_index(records: List[Tuple[bytes, int, int]]
                 ) -> Tuple[Tuple[int, ...], bytes, bytes]:
    """``(fanout, keys blob, entries blob)`` from (key, offset, len)."""
    records = sorted(records, key=lambda item: item[0])
    counts = [0] * 256
    keys = bytearray()
    entries = bytearray()
    for raw_key, offset, length in records:
        counts[raw_key[0]] += 1
        keys += raw_key
        entries += _INDEX_ENTRY.pack(offset, length)
    fanout = []
    total = 0
    for bucket_count in counts:
        total += bucket_count
        fanout.append(total)
    return tuple(fanout), bytes(keys), bytes(entries)


def _scan_segment(path: str) -> Optional[_Segment]:
    """Open a segment via its ``.idx``, rebuilding the index if needed."""
    index_path = os.path.splitext(path)[0] + ".idx"
    try:
        with open(index_path, "rb") as handle:
            blob = handle.read()
        magic, version, count = _HEADER.unpack_from(blob, 0)
        if magic != INDEX_MAGIC or version != PACK_FORMAT_VERSION:
            raise ValueError("foreign index")
        offset = _HEADER.size
        fanout = _FANOUT.unpack_from(blob, offset)
        offset += _FANOUT.size
        keys = blob[offset:offset + count * _KEY_BYTES]
        offset += count * _KEY_BYTES
        entries = blob[offset:offset + count * _INDEX_ENTRY.size]
        if (len(keys) == count * _KEY_BYTES
                and len(entries) == count * _INDEX_ENTRY.size
                and fanout[255] == count):
            return _Segment(path, count, fanout, keys, entries)
    except (OSError, ValueError, struct.error):
        pass
    return _rebuild_from_segment(path)


def _rebuild_from_segment(path: str) -> Optional[_Segment]:
    """Walk a segment's records directly (missing or corrupt ``.idx``).

    Stops cleanly at the first torn record, indexing the intact
    prefix.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    try:
        magic, version, count = _HEADER.unpack_from(blob, 0)
    except struct.error:
        return None
    if magic != SEGMENT_MAGIC or version != PACK_FORMAT_VERSION:
        return None
    records: List[Tuple[bytes, int, int]] = []
    offset = _HEADER.size
    size = len(blob)
    for _ in range(count):
        if offset + _RECORD_PREFIX.size + _KEY_BYTES > size:
            break
        (length,) = _RECORD_PREFIX.unpack_from(blob, offset)
        payload_at = offset + _RECORD_PREFIX.size + _KEY_BYTES
        if payload_at + length > size:
            break
        digest = blob[offset + _RECORD_PREFIX.size:payload_at]
        payload = blob[payload_at:payload_at + length]
        if hashlib.sha256(payload).digest() == digest:
            try:
                key_hex = json.loads(payload).get("key", "")
                raw_key = bytes.fromhex(key_hex)
            except (json.JSONDecodeError, ValueError, AttributeError):
                raw_key = b""
            if len(raw_key) == _KEY_BYTES:
                records.append((raw_key, payload_at, length))
        offset = payload_at + length
    fanout, keys, entries = _build_index(records)
    return _Segment(path, len(records), fanout, keys, entries)


class PackStore:
    """Pack-aware payload storage under one cache root.

    ``get``/``put`` move payload dicts; ``flush`` rotates the write
    buffer into an immutable segment + index pair.
    """

    def __init__(self, root: str,
                 rotate_records: int = DEFAULT_ROTATE_RECORDS) -> None:
        self.root = root
        self.rotate_records = rotate_records
        os.makedirs(root, exist_ok=True)
        self._segments: List[_Segment] = []
        for name in sorted(os.listdir(root)):
            if name.endswith(".pack"):
                segment = _scan_segment(os.path.join(root, name))
                if segment is not None:
                    self._segments.append(segment)
        self._buffer: Dict[str, dict] = {}

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key`` (buffered or packed)."""
        buffered = self._buffer.get(key)
        if buffered is not None:
            return buffered
        try:
            raw_key = bytes.fromhex(key)
        except ValueError:
            raw_key = b""
        if len(raw_key) == _KEY_BYTES:
            for segment in self._segments:
                entry = segment.find(raw_key)
                if entry is not None:
                    payload = segment.read_payload(*entry)
                    if payload is not None:
                        return payload
        return None

    def iter_payloads(self) -> Iterator[dict]:
        """Every stored payload: segments (name order), then the buffer."""
        for segment in self._segments:
            yield from segment.iter_payloads()
        yield from self._buffer.values()

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, payload: dict) -> None:
        """Buffer one payload; rotates a full buffer into a segment."""
        self._buffer[key] = payload
        if len(self._buffer) >= self.rotate_records:
            self.flush()

    def flush(self) -> Optional[str]:
        """Write buffered payloads as one segment; return its path."""
        if not self._buffer:
            return None
        body = bytearray()
        records: List[Tuple[bytes, int, int]] = []
        running = hashlib.sha256()
        for key in sorted(self._buffer):
            payload = _canonical_payload(self._buffer[key])
            digest = hashlib.sha256(payload).digest()
            offset = (_HEADER.size + len(body)
                      + _RECORD_PREFIX.size + _KEY_BYTES)
            body += _RECORD_PREFIX.pack(len(payload))
            body += digest
            body += payload
            running.update(digest)
            try:
                raw_key = bytes.fromhex(key)
            except ValueError:
                raw_key = b""
            if len(raw_key) == _KEY_BYTES:
                records.append((raw_key, offset, len(payload)))
        count = len(records)
        stem = os.path.join(self.root, f"seg-{running.hexdigest()[:16]}")
        segment_path = stem + ".pack"
        header = _HEADER.pack(SEGMENT_MAGIC, PACK_FORMAT_VERSION, count)
        fanout, keys, entries = _build_index(records)
        index_blob = (_HEADER.pack(INDEX_MAGIC, PACK_FORMAT_VERSION, count)
                      + _FANOUT.pack(*fanout) + keys + entries)
        self._atomic_write(segment_path, header + bytes(body))
        self._atomic_write(stem + ".idx", index_blob)
        self._segments.append(
            _Segment(segment_path, count, fanout, keys, entries))
        self._buffer.clear()
        return segment_path

    def _atomic_write(self, path: str, blob: bytes) -> None:
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=self.root, prefix=".tmp-", delete=False)
        try:
            with handle:
                handle.write(blob)
            os.replace(handle.name, path)
        except OSError:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def close(self) -> None:
        """Flush pending writes and drop open segment handles."""
        self.flush()
        for segment in self._segments:
            segment.close()
