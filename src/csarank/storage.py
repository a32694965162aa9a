"""File formats: binary embeddings, ranking lists, and ground truth.

Embeddings (binary, little-endian):

    magic   4 bytes  "CSAE"
    version u32      currently 1
    N       u64      row count
    d       u32      dimensionality
    dtype   u8       0 = float32
    ids     N x (u16 length + utf-8 bytes)
    data    N*d float32, row-major

Rankings and ground truth are JSON Lines, one record per query:

    {"query": "...", "entries": [["id", score], ...]}
    {"query": "...", "positives": [...], "ignores": [...]}

Writes are deterministic: same content gives identical bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .affinity import EmbeddingMatrix, RankingList
from .dataset import GroundTruth


class FormatError(ValueError):
    """File contents failed validation; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


EMB_MAGIC = b"CSAE"
EMB_VERSION = 1


def write_embeddings(path, emb: EmbeddingMatrix) -> None:
    with open(path, "wb") as f:
        f.write(EMB_MAGIC)
        f.write(struct.pack("<I", EMB_VERSION))
        f.write(struct.pack("<Q", len(emb)))
        f.write(struct.pack("<I", emb.dim))
        f.write(struct.pack("<B", 0))
        for image_id in emb.ids:
            b = image_id.encode("utf-8")
            f.write(struct.pack("<H", len(b)))
            f.write(b)
        f.write(np.ascontiguousarray(emb.rows, dtype="<f4").tobytes())


class ByteReader:
    """Bounds-checked cursor over a binary file's bytes; each failure raises
    ``error(message, offset, *context)``, the format's own exception type."""

    def __init__(self, buf: bytes, error):
        self.buf, self.pos, self.error = buf, 0, error

    def take(self, n: int, what: str, *context) -> bytes:
        if self.pos + n > len(self.buf):
            raise self.error(f"truncated while reading {what}", self.pos, *context)
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str, *context):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what, *context))[0]

    def text(self, n: int, what: str, *context) -> str:
        raw = self.take(n, what, *context)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not valid utf-8: {exc}",
                             self.pos - n, *context) from exc


def read_embeddings(path) -> EmbeddingMatrix:
    r = ByteReader(Path(path).read_bytes(), FormatError)
    if r.take(4, "magic") != EMB_MAGIC:
        raise FormatError("bad magic", 0)
    version = r.unpack("<I", "version")
    if version != EMB_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    n = r.unpack("<Q", "row count")
    dim = r.unpack("<I", "dimension")
    dtype = r.unpack("<B", "dtype")
    if dtype != 0:
        raise FormatError(f"unsupported dtype code {dtype}", r.pos - 1)
    ids_at = r.pos
    ids = [r.text(r.unpack("<H", "id length"), "id") for _ in range(n)]
    rows_at = r.pos
    raw = r.take(4 * n * dim, "embedding values")
    if r.pos != len(r.buf):
        raise FormatError("trailing bytes after payload", r.pos)
    rows = np.frombuffer(raw, dtype="<f4").reshape(n, dim).copy()
    try:
        return EmbeddingMatrix(ids, rows)
    except ValueError as exc:
        offset = _embedding_fault_offset(ids, ids_at, rows, rows_at)
        raise FormatError(str(exc), offset) from exc


def _embedding_fault_offset(ids: list, ids_at: int, rows: np.ndarray,
                            rows_at: int) -> int:
    """Offset of the first duplicated id or, failing that, of the first
    non-finite value: the two faults EmbeddingMatrix rejects in decoded bytes.
    Runs only once a read has already failed."""
    seen = set()
    pos = ids_at
    for image_id in ids:
        if image_id in seen:
            return pos
        seen.add(image_id)
        pos += 2 + len(image_id.encode("utf-8"))
    bad = np.flatnonzero(~np.isfinite(rows))
    return rows_at + 4 * int(bad[0]) if bad.size else rows_at


def write_rankings(path, rankings: list) -> None:
    with open(path, "w") as f:
        for r in rankings:
            rec = {"query": r.query_id,
                   "entries": [[cid, float(s)] for cid, s in zip(r.ids, r.scores)]}
            f.write(json.dumps(rec) + "\n")


def _read_records(path, what: str, parse) -> None:
    """Hand each non-blank line of a JSON Lines file to ``parse`` as a record;
    a line that fails raises FormatError with its number and byte offset."""
    offset = 0
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:  # a UnicodeDecodeError is a ValueError
                line = raw.decode("utf-8").strip()
                if line:
                    parse(json.loads(line))
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise FormatError(
                    f"bad {what} record on line {line_no}: {exc}", offset
                ) from exc
            offset += len(raw)


def read_rankings(path) -> list:
    out = []

    def parse(rec):
        entries = rec["entries"]
        out.append(RankingList(rec["query"], [e[0] for e in entries],
                               np.array([e[1] for e in entries], dtype=np.float64)))

    _read_records(path, "ranking", parse)
    return out


def write_ground_truth(path, truth: GroundTruth) -> None:
    with open(path, "w") as f:
        for qid in sorted(truth.positives):
            rec = {"query": qid,
                   "positives": sorted(truth.positives[qid]),
                   "ignores": sorted(truth.ignores.get(qid, []))}
            f.write(json.dumps(rec) + "\n")


def read_ground_truth(path) -> GroundTruth:
    positives, ignores = {}, {}

    def parse(rec):
        positives[rec["query"]] = set(rec["positives"])
        if rec.get("ignores"):
            ignores[rec["query"]] = set(rec["ignores"])

    _read_records(path, "ground-truth", parse)
    return GroundTruth(positives, ignores)


def write_labels(path, labels: dict) -> None:
    Path(path).write_text(json.dumps(labels, indent=2, sort_keys=True) + "\n")


def read_labels(path) -> dict:
    return json.loads(Path(path).read_text())


def write_report(path, reports: list) -> None:
    payload = [r.to_dict() for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
