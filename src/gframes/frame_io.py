"""Frame-spec file format: JSON documents describing an operator family.

Schema (strict, unknown fields rejected):

    {
      "hilbert_dim": n,
      "blocks": [{"rows": d_j, "matrix": [[[re, im], ...], ...]}, ...],
      "metadata": {"name": ..., "description": ...}        # optional
    }

Complex entries are two-element [re, im] arrays so the format is locale-proof
and round-trips binary64 exactly through shortest-repr decimals.  The writers
emit compact JSON with sorted keys; the reader takes any whitespace between
tokens.
"""
from __future__ import annotations

import json
from itertools import chain, repeat

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


def _walk_block(mat, n, where) -> np.ndarray:
    """Entry-by-entry read of a block; raises naming the first bad entry.
    Each row's length is checked before its entries are read, so a huge n
    fails as a short row rather than as an allocation."""
    rows = []
    for r, row in enumerate(mat):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}.matrix[{r}]: expected {n} entries")
        rows.append([_entry(v, f"{where}.matrix[{r}][{c}]") for c, v in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _bulk_block(mat, n):
    """The block read in one conversion, or None when some row or entry is
    malformed (then `_walk_block` finds and names it)."""
    try:
        P = np.array(mat, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    # the shape makes every row a list of n pairs, so the two-level chain
    # reaches every number; np.array converts bools and numeric strings,
    # which the exact type test refuses (bool is a subclass of int)
    if (P.shape != (len(mat), n, 2)
            or not set(map(type, chain.from_iterable(chain.from_iterable(mat))))
            <= {int, float}):
        return None
    # each contiguous (re, im) pair of P is one complex128
    return P.view(np.complex128).reshape(len(mat), n)


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


def _read_block(blk, n, where) -> np.ndarray:
    """One block object read whole, structure then entries, so the first
    error in the document is the one raised."""
    mat = _block_matrix(blk, where)
    M = _bulk_block(mat, n)
    if M is None:
        M = _walk_block(mat, n, where)
    # json.loads reads NaN, Infinity and overflowing literals as non-finite
    # floats
    if not np.isfinite(M).all():
        raise SchemaError(f"{where}: entries must be finite")
    return M


def _metadata(metadata) -> dict:
    """A copy of a spec's metadata object, once it checks out; the reader and
    the writers share these rules, so a written spec always reads back."""
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    unknown = set(metadata) - _META_FIELDS
    if unknown:
        raise SchemaError(f"metadata: unknown field(s): {sorted(unknown)}")
    for key in metadata:
        if not isinstance(metadata[key], str):
            raise SchemaError(f"metadata.{key} must be a string")
    return dict(metadata)


def parse_spec(text: str) -> tuple:
    """Parse a frame-spec document; returns (GFrame, metadata dict)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the recursion limit, or an integer literal
        # longer than Python's int-string conversion limit
        raise ParseError(str(exc)) from exc
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

    blocks = tuple(_read_block(blk, n, f"blocks[{j}]")
                   for j, blk in enumerate(doc["blocks"]))
    return GFrame(n, blocks), _metadata(doc.get("metadata", {}))


# json.dumps(doc, separators=(",", ":"), sort_keys=True) lays a block out as
# {"matrix":[[[re,im],[re,im]],[[re,im],[re,im]]],"rows":d}; its matrix text
# is written directly, with the float.__repr__ json uses for finite floats,
# so that no more than one block's numbers are Python objects at a time
_IN_PAIR, _NEXT_PAIR, _NEXT_ROW = ",", "],[", "]],[["


def _block_text(B: np.ndarray) -> str:
    d, n = B.shape
    numbers = map(float.__repr__, np.stack([B.real, B.imag], -1).ravel().tolist())
    row_seps = [_IN_PAIR, _NEXT_PAIR] * n
    row_seps[-1] = _NEXT_ROW
    seps = row_seps * d
    seps[-1] = f']]],"rows":{d}}}'
    return '{"matrix":[[[' + "".join(chain.from_iterable(zip(numbers, seps)))


def _pieces(frame: GFrame, metadata: dict | None):
    """The document's text as an iterator of pieces: each block's text, the
    separators around them and the keys after the blocks.  The metadata is
    checked here, before the first piece is asked for."""
    rest = {"hilbert_dim": frame.hilbert_dim}
    if metadata:
        rest["metadata"] = _metadata(metadata)
    # "blocks" sorts first; the keys after it close the document
    tail = json.dumps(rest, separators=(",", ":"), sort_keys=True)
    heads = chain(['{"blocks":['], repeat(","))
    blocks = chain.from_iterable(zip(heads, map(_block_text, frame.blocks)))
    return chain(blocks, ["]," + tail[1:] + "\n"])


def serialize(frame: GFrame, metadata: dict | None = None) -> str:
    """Write a frame back to its document form; parse_spec reads its blocks
    back bit for bit.

    The text is json.dumps(doc, separators=(",", ":"), sort_keys=True) of
    the document plus a newline, byte for byte.  Metadata that parse_spec
    would refuse raises SchemaError."""
    return "".join(_pieces(frame, metadata))


def load(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    return parse_spec(text)


def save(path, frame: GFrame, metadata: dict | None = None) -> None:
    """Write serialize's text to path one block at a time, so the document is
    never whole in memory.  Bad metadata raises before path is opened."""
    pieces = _pieces(frame, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
