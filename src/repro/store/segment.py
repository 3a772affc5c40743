"""Append-only checksummed segment files (solve store, checkpoints).

A segment is one atomically-written file holding a batch of records::

    COMPASS-SEG v1\\n
    <8-byte big-endian payload length> <32-byte sha256(payload)> <payload>
    ...repeated...

Records are length-prefixed and individually checksummed, so a torn
tail — truncation after the atomic rename (power loss before the data
blocks hit the platter, an injected :func:`repro.faults.torn_segment`)
or bit rot inside the file — is *detected* at the first damaged record
and the intact prefix is still usable.  Once a record fails, framing is
lost and the remainder of the file is untrusted: newest-intact-prefix
wins.  The checkpoint journal writes each entry as a one-record
segment, so one torn-tail and checksum implementation serves both.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import List, Tuple

from repro.ioutil import atomic_write

MAGIC = b"COMPASS-SEG v1\n"
_HEADER = struct.Struct(">Q32s")

#: Refuse absurd record lengths up front: a damaged length prefix must
#: not make the reader allocate (or wait on) gigabytes.
MAX_RECORD = 256 * 1024 * 1024


class SegmentError(Exception):
    """The segment file is not usable at all (bad magic, not a file)."""


def write_segment(path: str, records: List[bytes]) -> None:
    """Write ``records`` as one segment, atomically and durably."""
    with atomic_write(path, "wb", fsync=True) as handle:
        handle.write(MAGIC)
        for payload in records:
            handle.write(_HEADER.pack(len(payload),
                                      hashlib.sha256(payload).digest()))
            handle.write(payload)


def read_segment(path: str) -> Tuple[List[bytes], bool]:
    """Read the intact record prefix of one segment.

    Returns ``(records, torn)`` where ``torn`` reports whether the file
    ended in a damaged or truncated record (the returned prefix is
    still trustworthy).  Raises :class:`SegmentError` when the file is
    not a segment at all — unreadable, or magic missing — so the caller
    can skip it entirely.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise SegmentError(f"unreadable segment {path!r}: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise SegmentError(f"bad magic in {path!r} (not a segment file)")
    records: List[bytes] = []
    offset = len(MAGIC)
    total = len(blob)
    while offset < total:
        if offset + _HEADER.size > total:
            return records, True  # torn inside a record header
        length, digest = _HEADER.unpack_from(blob, offset)
        offset += _HEADER.size
        if length > MAX_RECORD or offset + length > total:
            return records, True  # torn inside the payload
        payload = blob[offset:offset + length]
        offset += length
        if hashlib.sha256(payload).digest() != digest:
            return records, True  # bit rot; framing no longer trusted
        records.append(payload)
    return records, False


def segment_name(generation: int, sequence: int) -> str:
    return f"seg-{generation:04d}-{sequence:06d}.seg"


def parse_segment_name(name: str) -> Tuple[int, int]:
    """(generation, sequence) of a segment file name; raises ValueError."""
    base, ext = os.path.splitext(name)
    parts = base.split("-")
    if ext != ".seg" or len(parts) != 3 or parts[0] != "seg":
        raise ValueError(f"not a segment name: {name!r}")
    return int(parts[1]), int(parts[2])
