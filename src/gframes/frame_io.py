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
from itertools import chain, repeat

import numpy as np

from .errors import ParseError, SchemaError
from .frames import GFrame, _row_blocks

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


def _walk_block(mat, n, where) -> np.ndarray:
    """Entry-by-entry read of a block; raises naming the first bad entry."""
    M = np.empty((len(mat), n), dtype=np.complex128)
    for r, row in enumerate(mat):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}.matrix[{r}]: expected {n} entries")
        for c, v in enumerate(row):
            M[r, c] = _entry(v, f"{where}.matrix[{r}][{c}]")
    return M


def _bulk_block(mat, n):
    """The block read in one conversion, or None when some row or entry is
    malformed (then `_walk_block` finds and names it)."""
    if not all(type(row) is list and len(row) == n for row in mat):
        return None
    pairs = list(chain.from_iterable(mat))
    if not all(type(v) is list and len(v) == 2 for v in pairs):
        return None
    # bool is a subclass of int, and is excluded by the exact type test
    if not set(map(type, chain.from_iterable(pairs))) <= {int, float}:
        return None
    try:
        P = np.array(pairs, dtype=np.float64)
    except OverflowError:
        return None
    # each contiguous (re, im) row of P is one complex128
    return P.view(np.complex128).reshape(len(mat), n)


def _check_entries(mats, n) -> None:
    """Read each block entry by entry where needed, in document order;
    raises naming the first malformed or non-finite entry."""
    for j, mat in enumerate(mats):
        where = f"blocks[{j}]"
        M = _bulk_block(mat, n)
        if M is None:
            M = _walk_block(mat, n, where)
        # json.loads reads NaN, Infinity and overflowing literals as
        # non-finite floats
        if not np.isfinite(M).all():
            raise SchemaError(f"{where}: entries must be finite")


def _block_matrix(blk, where) -> list:
    """The matrix field of one block object, once its structure checks out."""
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
    return mat


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

    mats = []
    for j, blk in enumerate(doc["blocks"]):
        try:
            mats.append(_block_matrix(blk, f"blocks[{j}]"))
        except SchemaError:
            # the first error in the document wins: the entries of the
            # blocks before this one come before its own structure
            _check_entries(mats, n)
            raise

    # every block in one conversion; the entry-by-entry read only runs to
    # name a bad entry
    T = _bulk_block(list(chain.from_iterable(mats)), n)
    if T is None or not np.isfinite(T).all():
        _check_entries(mats, n)

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    unknown = set(metadata) - _META_FIELDS
    if unknown:
        raise SchemaError(f"metadata: unknown field(s): {sorted(unknown)}")
    for key in metadata:
        if not isinstance(metadata[key], str):
            raise SchemaError(f"metadata.{key} must be a string")
    return GFrame(n, _row_blocks(T, [len(mat) for mat in mats])), dict(metadata)


# json.dumps(doc, indent=2, sort_keys=True) lays a block out as below; its
# matrix text is written directly, with the float.__repr__ json uses for
# finite floats, because the pure-Python encoder that indent selects costs
# about a microsecond per number
_BLOCK_HEAD = '    {\n      "matrix": [\n        [\n          [\n            '
_IN_PAIR = ",\n" + " " * 12
_NEXT_PAIR = "\n" + " " * 10 + "],\n" + " " * 10 + "[\n" + " " * 12
_NEXT_ROW = ("\n" + " " * 10 + "]\n" + " " * 8 + "],\n" + " " * 8 + "[\n"
             + " " * 10 + "[\n" + " " * 12)
_BLOCK_TAIL = ("\n" + " " * 10 + "]\n" + " " * 8 + "]\n" + " " * 6 + "],\n"
               + " " * 6 + '"rows": {}\n    }}')


def _block_text(B: np.ndarray) -> str:
    d, n = B.shape
    numbers = map(float.__repr__, np.stack([B.real, B.imag], -1).ravel().tolist())
    row_seps = [_IN_PAIR, _NEXT_PAIR] * n
    row_seps[-1] = _NEXT_ROW
    seps = row_seps * d
    seps[-1] = _BLOCK_TAIL.format(d)
    return _BLOCK_HEAD + "".join(chain.from_iterable(zip(numbers, seps)))


def serialize(frame: GFrame, metadata: dict | None = None) -> str:
    """Write a frame back to its document form; parse(serialize(F)) == F.

    The text is json.dumps(doc, indent=2, sort_keys=True) of the document
    plus a newline, byte for byte."""
    rest = {"hilbert_dim": frame.hilbert_dim}
    if metadata:
        rest["metadata"] = dict(metadata)
    # "blocks" sorts first; the skeleton supplies the keys after it
    tail = json.dumps(rest, indent=2, sort_keys=True)
    # one join, so the block texts and the document are the only copies held
    heads = chain(['{\n  "blocks": [\n'], repeat(",\n"))
    pieces = chain.from_iterable(zip(heads, map(_block_text, frame.blocks)))
    return "".join(chain(pieces, ["\n  ],\n" + tail[2:] + "\n"]))


def load(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def save(path, frame: GFrame, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(frame, metadata))
