"""Forged artifact files: the container layout of ``mvfa.fileio``, rebuilt test side.

A container is the magic ``MVFA\\0``, a u32 version and a u32 header length,
the JSON header, the float32 tensors and the SHA-256 of every byte before
it. :func:`seal` appends that digest, so a test can write a file whose
digest is valid and whose content is not, and reach the checks behind the
digest. ``v1_*`` build files of the retired version-1 layouts.
"""

import hashlib
import json
import struct

import numpy as np

MAGIC = b"MVFA\0"
START = len(MAGIC) + 8  # the header's first byte


def seal(payload):
    """``payload`` followed by its SHA-256, as every container ends."""
    return payload + hashlib.sha256(payload).digest()


def header_bytes(header):
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def container(header, data, version=2):
    """A sealed container of the header (a dict or raw bytes) and the tensor bytes ``data``."""
    raw = header if isinstance(header, bytes) else header_bytes(header)
    return seal(MAGIC + struct.pack("<II", version, len(raw)) + raw + data)


def split(payload):
    """(header dict, tensor bytes) of a container's bytes."""
    length = struct.unpack_from("<I", payload, len(MAGIC) + 4)[0]
    return json.loads(payload[START:START + length]), payload[START + length:-32]


def forge(path, edit):
    """Rewrite the container at ``path`` with ``edit`` applied to its header dict, resealed."""
    header, data = split(path.read_bytes())
    edit(header)
    path.write_bytes(container(header, data))
    return path


def v1_checkpoint():
    """A version-1 checkpoint: an 8-dim backbone header and a rank-0 gamma entry."""
    return (b"MVFA-CKPT\0" + struct.pack("<I6IQI", 1, 8, 4, 8, 4, 1, 2, 3, 1)
            + struct.pack("<H", 5) + b"gamma" + struct.pack("<B", 0)
            + np.float32(0.1).tobytes())


def v1_bank():
    """A version-1 bank: four levels of one 2-wide cls row and one seg row."""
    records = b"".join(struct.pack("<BII", role, 1, 2) + np.ones(2, "<f4").tobytes()
                       for _ in range(4) for role in (0, 1))
    return b"MVFA-BANK\0" + struct.pack("<IB", 1, 4) + records


def v1_map():
    """A version-1 anomaly map of 2 x 3 scores."""
    return b"MVFA-MAP\0" + struct.pack("<II", 2, 3) + np.zeros(6, "<f4").tobytes()
