"""Atomic file output, strict JSON, and the one checksummed container of every artifact.

A checkpoint, a memory bank and an anomaly map are each one container
(:func:`write_tensors`): the magic ``MVFA\\0``, a u32 version (2) and a u32
header length; a sorted-key JSON header that names the ``kind`` and each
tensor's name and shape; the little-endian float32 tensors; and the SHA-256
of every byte before it. This is the only module that knows a binary layout,
and the only one that knows the name of a temp file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"MVFA\0"
VERSION = 2
# the command that writes each kind, named when a version-1 file ("MVFA-" magic) is read
WRITER = {"checkpoint": "train", "bank": "build-bank", "map": "predict"}


# numbers the temp files of this process; with the pid, a temp name is unique
_temp_serial = itertools.count()


def write_bytes_atomic(path, payload: bytes):
    """Write a file via a temp sibling plus rename, so readers never see partials.

    A missing parent directory is created first. The temp file is made
    with plain ``os.open`` and unbuffered writes, not ``tempfile.mkstemp``
    and a buffered file object, which took over twice the time per small
    file; ``gen-data`` writes about 2,000 of them.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    try:
        tmp, fd = _create_temp(directory, name)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        tmp, fd = _create_temp(directory, name)
    try:
        try:
            view = memoryview(payload)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _create_temp(directory, name):
    """(path, fd) of a new, empty, owner-only ``.tmp-<pid>-<n>-<name>`` in ``directory``."""
    while True:
        tmp = os.path.join(directory, f".tmp-{os.getpid()}-{next(_temp_serial)}-{name}")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW,
                                0o600)
        except FileExistsError:
            continue  # left behind by an earlier process with the same pid


def remove_temp_files(directories, pid):
    """Delete the temp files of process ``pid`` in each of ``directories``.

    A process killed during :func:`write_bytes_atomic` leaves its temp
    file behind; once it has been reaped, no other process writes one of
    these names.
    """
    for directory in directories:
        for name in os.listdir(directory):
            if name.startswith(f".tmp-{pid}-"):
                os.unlink(os.path.join(directory, name))


def write_text_atomic(path, text: str):
    write_bytes_atomic(path, text.encode("utf-8"))


def read_bytes(path):
    """A file's bytes, read with ``os.open`` and ``os.read``.

    A buffered file object costs more than the read itself for a file of
    a few KiB, and ``eval`` reads 200 sample PGMs of that size.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        payload = os.read(fd, os.fstat(fd).st_size + 1)
        while chunk := os.read(fd, 1 << 16):  # st_size is 0 for a pipe
            payload += chunk
        return payload
    except OSError as exc:  # os.read of a directory names no file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


def read_text(path, error):
    """A UTF-8 text file, with its newlines translated as text mode does.

    A byte that is not UTF-8 raises ``error`` naming the file, the line
    and the byte's offset.
    """
    payload = read_bytes(path)
    try:
        return _universal_newlines(payload.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = _universal_newlines(payload[:exc.start].decode("utf-8")).count("\n") + 1
        raise error(f"{path}: line {line}: invalid UTF-8 at byte {exc.start}") from None


def _universal_newlines(text):
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_json(text, error, where):
    """``json.loads`` of ``text`` that raises ``error``, prefixed ``where``, on bad input.

    ``json.loads`` accepts NaN, Infinity and -Infinity, and reads 1e999 as
    inf; here each is refused as not a finite number. An integer of over
    4300 digits (a ``ValueError`` that is not a ``JSONDecodeError``) and a
    nesting deeper than the interpreter's recursion limit (a
    ``RecursionError``) are invalid JSON, not tracebacks.
    """
    def not_finite(token):
        raise error(f"{where}: {token} is not a finite number")

    def finite(token):
        value = float(token)
        if not math.isfinite(value):
            not_finite(token)
        return value

    try:
        return json.loads(text, parse_constant=not_finite, parse_float=finite)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})") from None


def file_sha256(path):
    """Hex SHA-256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_tensors(path, kind, header: dict, tensors):
    """Write the (name, array) pairs ``tensors`` and the kind's JSON ``header`` fields.

    A header holds no path, time or host, so that a rerun writes the same bytes.
    """
    arrays = [(name, np.asarray(value, dtype="<f4")) for name, value in tensors]
    meta = dict(header, kind=kind, tensors=[[name, list(arr.shape)] for name, arr in arrays])
    text = json.dumps(meta, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    body = b"".join([MAGIC, struct.pack("<II", VERSION, len(text)), text]
                    + [arr.tobytes() for _, arr in arrays])
    write_bytes_atomic(path, body + hashlib.sha256(body).digest())


def read_tensors(path, kind):
    """(header, {name: float32 array}) of a container of ``kind``, the tensors in file order.

    The header comes back without ``kind`` and ``tensors``. A digest that
    does not match, any departure from the layout, another kind or a
    non-finite value is a ``FormatError``; sizes are checked against the
    file's length before any array is made.
    """
    payload = read_bytes(path)

    def fail(message):
        raise FormatError(f"{path}: {message}")

    if not payload.startswith(MAGIC):
        fail(f"a version 1 {kind} file, which this version cannot read; re-run "
             f"`mvfa {WRITER[kind]}` to write it again" if payload.startswith(b"MVFA-")
             else f"bad magic, expected {MAGIC!r}")
    start, end = len(MAGIC) + 8, len(payload) - 32  # 32 bytes of SHA-256 end the file
    if end < start:
        fail(f"unexpected end of file at byte {len(payload)}")
    version, length = struct.unpack_from("<II", payload, len(MAGIC))
    if version != VERSION:
        fail(f"unsupported version {version}")
    if hashlib.sha256(memoryview(payload)[:end]).digest() != payload[end:]:
        fail("SHA-256 mismatch: the file is damaged or truncated")
    if length > end - start:
        fail(f"a header of {length} bytes runs past the end of the file")
    try:
        meta = parse_json(payload[start:start + length].decode("utf-8"), FormatError,
                          f"{path}: header")
    except UnicodeDecodeError as exc:
        fail(f"invalid UTF-8 at byte {start + exc.start}")
    if not isinstance(meta, dict) or meta.pop("kind", None) != kind:
        fail(f"not a {kind} file")
    listed, tensors, offset = meta.pop("tensors", None), {}, start + length
    if not isinstance(listed, list):
        fail("the header lists no tensors")
    for entry in listed:  # a numpy array has at most 64 axes
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and entry[0] not in tensors and isinstance(entry[1], list)
                and len(entry[1]) <= 32 and all(type(n) is int and n >= 0 for n in entry[1])):
            fail(f"tensor entry {len(tensors)} is not a new name and at most 32 sizes")
        name, shape = entry
        count = math.prod(shape)  # Python ints: a numpy product can wrap to 0
        if 4 * count > end - offset:
            fail(f"tensor {name!r} of shape {tuple(shape)} runs past the end of the file")
        values = np.frombuffer(payload, "<f4", count, offset).reshape(shape)
        if not np.isfinite(values).all():
            fail(f"non-finite value in tensor {name!r}")
        tensors[name] = values.astype(np.float32)
        offset += 4 * count
    if offset != end:
        fail(f"{end - offset} bytes after the last tensor")
    return meta, tensors
