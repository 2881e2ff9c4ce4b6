"""Versioned binary checkpoint of named float64 tensors.

Layout (all integers 64-bit little-endian):

    magic "TMPKGCKP" | version | tensor count
    per tensor: name length | name bytes (utf-8) | rank | dims... | f64 data

Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"TMPKGCKP"
VERSION = 1


class CheckpointError(ValueError):
    pass


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data`` (text as utf-8) through a temp file in the same directory
    and one rename, so a failed write leaves the old file and no temp file."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors atomically (see atomic_write)."""
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<QQ", VERSION, len(tensors))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype=np.float64)
        enc = name.encode("utf-8")
        payload += struct.pack("<Q", len(enc))
        payload += enc
        payload += struct.pack("<Q", arr.ndim)
        payload += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        payload += arr.astype("<f8", copy=False).tobytes()
    atomic_write(path, payload)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a short, overlong or malformed file is a ``CheckpointError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    off = len(MAGIC)
    tensors: dict[str, np.ndarray] = {}
    try:
        version, count = struct.unpack_from("<QQ", blob, off)
        off += 16
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack_from("<Q", blob, off)
            off += 8
            try:
                name = blob[off:off + name_len].decode("utf-8")
            except UnicodeDecodeError as err:
                raise CheckpointError(f"{path}: tensor name is not utf-8 ({err})") from err
            if name in tensors:
                raise CheckpointError(f"{path}: tensor '{name}' appears twice")
            off += name_len
            (rank,) = struct.unpack_from("<Q", blob, off)
            off += 8
            dims = struct.unpack_from(f"<{rank}Q", blob, off)
            off += 8 * rank
            n = math.prod(dims)  # a Python int: an absurd header cannot wrap to a small size
            end = off + 8 * n
            if end > len(blob):
                raise CheckpointError(f"{path}: truncated tensor data for '{name}'")
            arr = np.frombuffer(blob[off:end], dtype="<f8").astype(np.float64)
            try:
                arr = arr.reshape(dims)
            except ValueError as err:  # a zero-size header numpy cannot represent
                raise CheckpointError(f"{path}: bad dims {dims} for '{name}' ({err})") from err
            off = end
            tensors[name] = arr
    except struct.error as err:
        raise CheckpointError(f"{path}: truncated checkpoint ({err})") from err
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes after the last tensor")
    return tensors
