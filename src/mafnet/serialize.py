"""Binary weight container.

Layout (all integers unsigned 32-bit little-endian):

    magic "MAFW" | version | entry_count
    per entry: name_len | name (UTF-8) | dtype_code | rank | dims... | payload

dtype codes: 0 = float32, 1 = float64; payloads are raw little-endian.
Entries follow the deterministic module walk (per module: parameters, then
buffers), so save -> load -> save is byte-identical. A fused model stores
its RepHDW kernels (`fused_weight`, `fused_bias`) as buffers; loading such a
file fuses the target first, then replaces those buffers like any other.
Dense-conv folds are recomputed per call and never stored.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import SerializationError
from .modules import Module
from .repconv import fuse_model

MAGIC = b"MAFW"
VERSION = 1

_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_weights(model: Module, path: str) -> None:
    entries = list(model.state_entries())
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(entries)))
        for name, arr in entries:
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _DTYPE_TO_CODE:
                raise SerializationError(
                    f"save_weights: entry {name!r} has unsupported dtype {arr.dtype}"
                )
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<II", _DTYPE_TO_CODE[arr.dtype], arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise SerializationError(
                f"truncated weight file: needed {n} bytes at offset {self.off}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def read_entries(path: str) -> list[tuple[str, np.ndarray]]:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(4) != MAGIC:
        raise SerializationError(f"bad magic in {path!r}: not a weight file")
    version = r.u32()
    if version != VERSION:
        raise SerializationError(f"unsupported weight file version {version}")
    count = r.u32()
    entries = []
    for _ in range(count):
        name_len = r.u32()
        if name_len > 1 << 16:
            raise SerializationError(f"implausible name length {name_len} at offset {r.off - 4}")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise SerializationError(
                f"entry name ending at offset {r.off} is not valid UTF-8"
            ) from e
        code = r.u32()
        if code not in _CODE_TO_DTYPE:
            raise SerializationError(
                f"unknown dtype code {code} for entry {name!r} (file version {version})"
            )
        dtype = _CODE_TO_DTYPE[code]
        rank = r.u32()
        if rank > 8:
            raise SerializationError(f"implausible rank {rank} for entry {name!r}")
        dims = [r.u32() for _ in range(rank)]
        n = math.prod(dims)
        payload = r.take(n * dtype.itemsize)
        arr = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        entries.append((name, arr))
    return entries


def _fit(name: str, arr: np.ndarray, like: np.ndarray) -> np.ndarray:
    """`arr` cast to the dtype of `like`, whose shape it must have."""
    if arr.shape != like.shape:
        raise SerializationError(
            f"shape mismatch for {name!r}: file {arr.shape}, model {like.shape}"
        )
    return arr.astype(like.dtype, copy=False)


def load_weights(model: Module, path: str) -> None:
    """Restore parameters and buffers by name. A file with fused kernels is
    loaded into the fused model, so its kernels replace `fuse_model`'s."""
    entries = read_entries(path)
    if any(n.rpartition(".")[2] in ("fused_weight", "fused_bias") for n, _ in entries):
        with model.mode(False):
            fuse_model(model)
    module_by_path = dict(model.named_modules())
    loaded = set()
    for name, arr in entries:
        mod_path, _, attr = name.rpartition(".")
        m = module_by_path.get(mod_path)
        if m is None:
            raise SerializationError(f"weight entry {name!r} has no matching module")
        if attr in m._params:
            m._params[attr].data = _fit(name, arr, m._params[attr].data)
        elif attr in m._buffers:
            m.set_buffer(attr, _fit(name, arr, m._buffers[attr]))
        else:
            raise SerializationError(f"weight entry {name!r} does not exist in the model")
        loaded.add(name)
    missing = [n for n, _ in model.state_entries() if n not in loaded]
    if missing:
        raise SerializationError(f"weight file is missing entries: {missing[:5]}")
