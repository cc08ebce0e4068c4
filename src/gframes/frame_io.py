"""Frame-spec file format: JSON documents describing an operator family.

Schema (strict, unknown fields rejected):

    {
      "hilbert_dim": n,
      "blocks": [{"rows": d_j, "matrix": [[[re, im], ...], ...]}, ...],
      "metadata": {"name": ..., "description": ...}        # optional
    }

Complex entries are two-element [re, im] arrays so the format is locale-proof
and round-trips binary64 exactly through shortest-repr decimals.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ParseError, SchemaError
from .frames import GFrame

_TOP_FIELDS = {"hilbert_dim", "blocks", "metadata"}
_BLOCK_FIELDS = {"rows", "matrix"}
_META_FIELDS = {"name", "description"}


def _entry(value, where):
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        raise SchemaError(f"{where}: complex entry must be a [re, im] pair")
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError as exc:
        raise SchemaError(f"{where}: integer entry exceeds binary64") from exc


def parse_spec(text: str) -> tuple:
    """Parse a frame-spec document; returns (GFrame, metadata dict)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise SchemaError(f"unknown top-level field(s): {sorted(unknown)}")
    if "hilbert_dim" not in doc or "blocks" not in doc:
        raise SchemaError("hilbert_dim and blocks are required")
    n = doc["hilbert_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("hilbert_dim must be a positive integer")
    if not isinstance(doc["blocks"], list) or not doc["blocks"]:
        raise SchemaError("blocks must be a nonempty array")

    blocks = []
    for j, blk in enumerate(doc["blocks"]):
        where = f"blocks[{j}]"
        if not isinstance(blk, dict):
            raise SchemaError(f"{where}: must be an object")
        unknown = set(blk) - _BLOCK_FIELDS
        if unknown:
            raise SchemaError(f"{where}: unknown field(s): {sorted(unknown)}")
        if "rows" not in blk or "matrix" not in blk:
            raise SchemaError(f"{where}: rows and matrix are required")
        rows = blk["rows"]
        if not isinstance(rows, int) or isinstance(rows, bool) or rows < 1:
            raise SchemaError(f"{where}: rows must be a positive integer")
        mat = blk["matrix"]
        if not isinstance(mat, list) or len(mat) != rows:
            raise SchemaError(f"{where}: matrix must have exactly {rows} rows")
        M = np.empty((rows, n), dtype=np.complex128)
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"{where}.matrix[{r}]: expected {n} entries")
            for c, v in enumerate(row):
                M[r, c] = _entry(v, f"{where}.matrix[{r}][{c}]")
        # json.loads reads NaN, Infinity and overflowing literals as
        # non-finite floats
        if not np.isfinite(M).all():
            raise SchemaError(f"{where}: entries must be finite")
        blocks.append(M)

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    unknown = set(metadata) - _META_FIELDS
    if unknown:
        raise SchemaError(f"metadata: unknown field(s): {sorted(unknown)}")
    for key in metadata:
        if not isinstance(metadata[key], str):
            raise SchemaError(f"metadata.{key} must be a string")
    return GFrame(n, tuple(blocks)), dict(metadata)


def serialize(frame: GFrame, metadata: dict | None = None) -> str:
    """Write a frame back to its document form; parse(serialize(F)) == F."""
    doc = {
        "hilbert_dim": frame.hilbert_dim,
        "blocks": [
            {
                "rows": B.shape[0],
                "matrix": [[[float(v.real), float(v.imag)] for v in row]
                           for row in B],
            }
            for B in frame.blocks
        ],
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def save(path, frame: GFrame, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(frame, metadata))
