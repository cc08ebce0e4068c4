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

import gc
import json
from itertools import accumulate, chain

import numpy as np

from .errors import ParseError, SchemaError
from .frames import GFrame

_TOP_FIELDS = {"hilbert_dim", "blocks", "metadata"}
_BLOCK_FIELDS = {"rows", "matrix"}
_META_FIELDS = {"name", "description"}
# numbers per conversion of the reader and per join of the writers
_RUN = 4096


def _runs(dims, n):
    """(j, k, a, b) for consecutive runs of whole blocks j..k-1, which
    hold rows a..b-1: a run ends at the first block end at least
    _RUN // (2n) rows past its start, so it holds about _RUN numbers, or
    one block that holds more."""
    step = max(1, _RUN // (2 * n))
    j = a = 0
    for k, b in enumerate(accumulate(dims), 1):
        if b - a >= step or k == len(dims):
            yield j, k, a, b
            j, a = k, b


def _entry(value, where):
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value)):
        raise SchemaError(f"{where}: complex entry must be a [re, im] pair")
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError as exc:
        raise SchemaError(f"{where}: integer entry exceeds binary64") from exc


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
    """One block object read whole, structure then entry by entry; raises
    naming the block's first error.  Each row's length is checked before
    its entries are read, so a huge n fails as a short row rather than as
    an allocation."""
    rows = []
    for r, row in enumerate(_block_matrix(blk, where)):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}.matrix[{r}]: expected {n} entries")
        rows.append([_entry(v, f"{where}.matrix[{r}][{c}]") for c, v in enumerate(row)])
    M = np.array(rows, dtype=np.complex128)
    if not np.isfinite(M).all():
        raise SchemaError(f"{where}: entries must be finite")
    return M


def _read_matrix(blocks, n):
    """(T, dims): the entries of every block in one m x n array, with the
    block heights; raises SchemaError naming the document's first error.

    The blocks' structure is checked, then every row's length, up to the
    first block that fails them.  T is allocated for the blocks before it,
    so a huge n fails as a short row rather than as an allocation.  Their
    entries are converted in runs of whole blocks, with one length, type
    and finite test and one np.array conversion per run.  A run that fails
    a test is read again block by block, and so is the block that failed
    the structure check: the first block _read_block rejects raises."""
    mats = []
    for j, blk in enumerate(blocks):
        try:
            mats.append(_block_matrix(blk, f"blocks[{j}]"))
        except SchemaError:
            break
    rows = list(chain.from_iterable(mats))
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {n}):
        # keep the blocks before the first with a bad row
        for j, mat in enumerate(mats):
            if not all(type(row) is list and len(row) == n for row in mat):
                break
        del mats[j:]
        rows = list(chain.from_iterable(mats))
    dims = tuple(map(len, mats))
    # with no block kept, no row has n entries and n may be any size
    T = np.empty((len(rows), n if rows else 0), dtype=np.complex128)
    # each contiguous (re, im) pair of the float view is one complex128
    flat = T.reshape(-1).view(np.float64)
    for j, k, a, b in _runs(dims, n):
        entries = list(chain.from_iterable(rows[a:b]))
        try:
            numbers = list(chain.from_iterable(entries))
            # a JSON container that is not a list is a string or an object,
            # whose items are strings, so every wrong shape fails one of the
            # two tests; np.array converts bools and numeric strings, which
            # the exact type test refuses (bool is a subclass of int)
            ok = (set(map(len, entries)) == {2}
                  and set(map(type, numbers)) <= {int, float})
            values = np.array(numbers, dtype=np.float64) if ok else None
        except (TypeError, OverflowError):
            # a number or null entry has no items or length, and an integer
            # beyond binary64 does not convert
            values = None
        # json.loads reads NaN, Infinity and overflowing literals as
        # non-finite floats
        if values is None or not np.isfinite(values).all():
            values = np.concatenate([_read_block(blocks[i], n, f"blocks[{i}]")
                                     for i in range(j, k)]).view(np.float64)
        flat[2 * n * a:2 * n * b] = values.ravel()
    if len(mats) < len(blocks):     # the block that failed the structure check
        _read_block(blocks[len(mats)], n, f"blocks[{len(mats)}]")
    return T, dims


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
    """Parse a frame-spec document; returns (GFrame, metadata dict).

    The entries are read into one matrix in runs; a run that fails is read
    again block by block, so the first error in the document is the one
    raised.  The read runs with the cyclic collector paused, and the
    collector is left as the caller had it: a JSON document holds no
    cycle, yet its lists set off hundreds of collections.  The document is
    dropped before the collector resumes, so no collection ever walks
    it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> tuple:
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

    frame = GFrame._from_matrix(*_read_matrix(doc["blocks"], n))
    return frame, _metadata(doc.get("metadata", {}))


# json.dumps(doc, separators=(",", ":"), sort_keys=True) lays a block out as
# {"matrix":[[[re,im],[re,im]],[[re,im],[re,im]]],"rows":d}; its matrix text
# is written directly, with the float.__repr__ json uses for finite floats,
# so that no more than one run's numbers are Python objects at a time
_IN_PAIR, _NEXT_PAIR, _NEXT_ROW = ",", "],[", "]],[["
_NEXT_BLOCK = ',{"matrix":[[['


def _separators(d: int, n: int) -> list:
    """The text after each number of a block of height d: the last closes
    the block and opens the next one."""
    row_seps = [_IN_PAIR, _NEXT_PAIR] * n
    row_seps[-1] = _NEXT_ROW
    seps = row_seps * d
    seps[-1] = f']]],"rows":{d}}}' + _NEXT_BLOCK
    return seps


def _run_texts(frame: GFrame):
    """The blocks' text after the first block's opening, in runs of whole
    blocks of about _RUN numbers, one join each, read from one float64 view
    of the matrix, with one separator list per block height."""
    n, dims = frame.hilbert_dim, frame.block_dims
    numbers = frame.matrix.view(np.float64)     # row i: re, im of each entry
    seps = {d: _separators(d, n) for d in set(dims)}
    for j, k, a, b in _runs(dims, n):
        text = "".join(chain.from_iterable(zip(
            map(float.__repr__, numbers[a:b].ravel().tolist()),
            chain.from_iterable(map(seps.__getitem__, dims[j:k])))))
        yield text if k < len(dims) else text[:-len(_NEXT_BLOCK)]


def _pieces(frame: GFrame, metadata: dict | None):
    """The document's text as an iterator of pieces: the runs of blocks, the
    text around them and the keys after the blocks.  The metadata is
    checked here, before the first piece is asked for."""
    rest = {"hilbert_dim": frame.hilbert_dim}
    if metadata:
        rest["metadata"] = _metadata(metadata)
    # "blocks" sorts first; the keys after it close the document
    tail = json.dumps(rest, separators=(",", ":"), sort_keys=True)
    return chain(['{"blocks":[' + _NEXT_BLOCK[1:]], _run_texts(frame),
                 ["]," + tail[1:] + "\n"])


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
    """Write serialize's text to path one run of blocks at a time, so the
    document is never whole in memory.  Bad metadata raises before path is
    opened."""
    pieces = _pieces(frame, metadata)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
