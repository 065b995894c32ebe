"""Small helpers for atomic file output and binary format parsing."""

from __future__ import annotations

import os
import struct
import tempfile

from .errors import FormatError


def write_bytes_atomic(path, payload: bytes):
    """Write a file via a temp sibling plus rename, so readers never see partials.

    A missing parent directory is created first.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str):
    write_bytes_atomic(path, text.encode("utf-8"))


def read_text(path, error):
    """A UTF-8 text file, with its newlines translated as text mode does.

    A byte that is not UTF-8 raises ``error`` naming the file, the line
    and the byte's offset.
    """
    with open(path, "rb") as fh:
        payload = fh.read()
    try:
        return _universal_newlines(payload.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = _universal_newlines(payload[:exc.start].decode("utf-8")).count("\n") + 1
        raise error(f"{path}: line {line}: invalid UTF-8 at byte {exc.start}") from None


def _universal_newlines(text):
    return text.replace("\r\n", "\n").replace("\r", "\n")


class Reader:
    """Cursor over a byte string that raises FormatError with the offset."""

    def __init__(self, payload: bytes, label: str):
        self.payload = payload
        self.label = label
        self.offset = 0

    def fail(self, message):
        raise FormatError(f"{self.label}: {message} at byte {self.offset}")

    def take(self, count):
        if self.offset + count > len(self.payload):
            self.fail(f"unexpected end of file, wanted {count} bytes")
        chunk = self.payload[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def expect(self, magic: bytes):
        if self.payload[self.offset:self.offset + len(magic)] != magic:
            self.fail(f"bad magic, expected {magic!r}")
        self.offset += len(magic)

    def text(self, count):
        """The next ``count`` bytes as UTF-8; a bad byte fails at its own offset."""
        start = self.offset
        chunk = self.take(count)
        try:
            return chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            self.offset = start + exc.start
            self.fail("invalid UTF-8")

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def done(self):
        if self.offset != len(self.payload):
            self.fail(f"{len(self.payload) - self.offset} trailing bytes")
