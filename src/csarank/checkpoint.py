"""Binary checkpoint format for model (and optimizer) tensors.

Layout, all little-endian:

    magic   4 bytes  "CSAC"
    version u32      currently 1
    count   u32      number of named tensors
    entries         name_len:u16, name:utf-8, rank:u8, dims:u64 x rank,
                    data: float32 x prod(dims)
    meta    u32 length + utf-8 JSON {"config": {...}, "extra": {...}}

Tensors are written sorted by name so identical state always produces
identical bytes. Optimizer momentum buffers ride along under the
``opt.momentum.`` name prefix and are not counted as model parameters.
A human-readable JSON sidecar (same meta) is written next to the file.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, EncoderParams, _tensor_shapes
from .storage import ByteReader

MAGIC = b"CSAC"
VERSION = 1
OPTIMIZER_PREFIX = "opt.momentum."


class CorruptCheckpointError(ValueError):
    """Checkpoint bytes failed validation; carries the byte offset and entry."""

    def __init__(self, message: str, offset: int, entry: str = None):
        detail = f"{message} (offset {offset}"
        if entry:
            detail += f", entry {entry!r}"
        super().__init__(detail + ")")
        self.offset = offset
        self.entry = entry


def save_checkpoint(path, params: EncoderParams, extra: dict = None,
                    momentum: dict = None, sidecar: bool = True) -> None:
    """Write params (plus optional momentum buffers and metadata) to ``path``."""
    path = Path(path)
    tensors = dict(params.tensors)
    if momentum is not None:
        for name, buf in momentum.items():
            tensors[OPTIMIZER_PREFIX + name] = buf
    meta = {"config": params.config.to_dict(), "extra": extra or {}}
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")

    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            data = np.ascontiguousarray(tensors[name], dtype="<f4")
            name_b = name.encode("utf-8")
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<Q", dim))
            f.write(data.tobytes())
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
    if sidecar:
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )


def load_checkpoint(path):
    """Read a checkpoint; returns (EncoderParams, extra dict, momentum dict)."""
    r = ByteReader(Path(path).read_bytes(), CorruptCheckpointError)
    if r.take(4, "magic") != MAGIC:
        raise CorruptCheckpointError("bad magic", 0)
    version = r.unpack("<I", "version")
    if version != VERSION:
        raise CorruptCheckpointError(f"unsupported version {version}", 4)
    count = r.unpack("<I", "tensor count")
    tensors, entry_at = {}, {}
    for _ in range(count):
        at = r.pos
        name = r.text(r.unpack("<H", "name length"), "tensor name")
        if name in tensors:
            raise CorruptCheckpointError("duplicate tensor name", at, name)
        entry_at[name] = at
        rank = r.unpack("<B", "rank", name)
        dims = tuple(r.unpack("<Q", "dims", name) for _ in range(rank))
        n_values = math.prod(dims)  # Python ints: corrupt dims cannot overflow
        raw = r.take(4 * n_values, "tensor data", name)
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
    meta_at = r.pos + 4  # past the u32 length
    meta = r.text(r.unpack("<I", "meta length"), "meta")
    try:  # a JSONDecodeError is a ValueError
        meta = json.loads(meta)
        config = EncoderConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"bad meta: {exc}", meta_at) from exc

    shapes = _tensor_shapes(config)
    momentum, model = {}, {}
    for name, t in tensors.items():
        base = name.removeprefix(OPTIMIZER_PREFIX)
        if shapes.get(base) != t.shape:  # names and shapes only: no pass over data
            raise CorruptCheckpointError(
                f"tensor of shape {t.shape} is not in the config's model",
                entry_at[name], name)
        (model if base == name else momentum)[base] = t
    try:
        params = EncoderParams(model, config)
    except ValueError as exc:  # a ShapeError is a ValueError
        # every entry fits the config: a tensor is non-finite, or missing
        # because the meta asks for another model
        bad = next((n for n, t in model.items() if not np.all(np.isfinite(t))), None)
        raise CorruptCheckpointError(f"bad tensors: {exc}",
                                     meta_at if bad is None else entry_at[bad],
                                     bad) from exc
    return params, meta.get("extra", {}), momentum


def describe_checkpoint(path) -> dict:
    """Summary used by the inspect command: tensor names, shapes, counts, config."""
    params, extra, momentum = load_checkpoint(path)
    return {
        "config": params.config.to_dict(),
        "extra": extra,
        "tensors": {name: list(t.shape) for name, t in params.tensors.items()},
        "param_count": params.param_count(),
        "momentum_buffers": len(momentum),
    }
