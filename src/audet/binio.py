"""Byte-level I/O shared by the corpus and checkpoint formats and the
text artifacts: little-endian reading and atomic file writes."""

from __future__ import annotations

import os
import struct
from pathlib import Path

from .errors import CorruptionError, FormatError


class ByteReader:
    """Sequential reader that reports truncation with a byte offset.

    It reads through a memoryview, so a payload it hands out shares the
    input's memory instead of copying it.
    """

    def __init__(self, data: bytes | memoryview, origin: str):
        self.data = memoryview(data)
        self.origin = origin
        self.ofs = 0

    def take(self, n: int) -> memoryview:
        if self.ofs + n > len(self.data):
            raise CorruptionError(
                f"{self.origin}: truncated at byte {self.ofs}, "
                f"needed {n} more of {len(self.data)} total"
            )
        chunk = self.data[self.ofs : self.ofs + n]
        self.ofs += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.unpack("<H")
        return self.take_text(n)

    def take_text(self, n: int) -> str:
        """The next n bytes as UTF-8 text."""
        start = self.ofs
        raw = self.take(n)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{self.origin}: invalid UTF-8 at byte {start + exc.start}: {exc.reason}"
            ) from None

    def check_header(self, magic: bytes, version: int, kind: str) -> None:
        """Read a file's leading magic and u16 version, raising FormatError
        unless they are ``magic`` and ``version``; ``kind`` names the format."""
        found = bytes(self.take(len(magic)))
        if found != magic:
            raise FormatError(f"{self.origin}: bad magic {found!r}, expected {magic!r}")
        (found_version,) = self.unpack("<H")
        if found_version != version:
            raise FormatError(f"{self.origin}: {kind} version {found_version}, "
                              f"this reader supports {version}")

    def check_end(self, after: str = "") -> None:
        """Raise FormatError if bytes remain; ``after`` ends the message."""
        if self.ofs != len(self.data):
            raise FormatError(f"{self.origin}: {len(self.data) - self.ofs} trailing bytes{after}")


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def write_atomic(path, data: bytes | str) -> Path:
    """Write data (str as UTF-8) to path via <name>.tmp and os.replace.

    Creates the parent directory.  A reader sees either the old file or
    the complete new one; the temporary file is removed if any step fails.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target
