"""Little-endian byte reading shared by the corpus and checkpoint formats."""

from __future__ import annotations

import struct

from .errors import CorruptionError, FormatError


class ByteReader:
    """Sequential reader that reports truncation with a byte offset."""

    def __init__(self, data: bytes, origin: str):
        self.data = data
        self.origin = origin
        self.ofs = 0

    def take(self, n: int) -> bytes:
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
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{self.origin}: invalid UTF-8 at byte {start + exc.start}: {exc.reason}"
            ) from None

    def exhausted(self) -> bool:
        return self.ofs == len(self.data)

    def remaining(self) -> int:
        return len(self.data) - self.ofs


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw
