"""Tables written as text from numpy columns: CSV rows, JSON records and JSON float arrays.

A ``Table`` is column names plus columns: float64 arrays, NaN marking a
missing value, and ``Coded`` columns of a few distinct values formatted
once.  Its two templates (CSV rows, JSON records at a nesting level) are
written by ``_blocks``, and so are ``Arrays``, named float arrays written as
one JSON object of lists: all their values run through ``_blocks`` as one
column, cut at the array boundaries.  A short table is formatted row by
row.  In a longer one every row is the same bytes in a row-major buffer of
at most ``_CSV_BLOCK`` rows, each text and field at its own width, float
fields written by ``_format_e16``, the exact vectorised ``%.16e`` kernel,
and the NULs that pad the shorter fields dropped as each block is emitted.
Either way the text is byte-identical to formatting every field with Python.
"""

from __future__ import annotations

import itertools
import math
from json.encoder import encode_basestring
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

#: rows formatted per block; the row buffer and the formatter's temporaries
#: (about 100 B a row) scale with it, so it is kept well below the size of a
#: typical scan or shot file
_CSV_BLOCK = 1 << 12
#: tables of fewer rows are formatted row by row: below it that costs less
#: than laying the rows out as bytes
_LAYOUT_FROM = 64


def _words(text: str) -> np.ndarray:
    """ASCII text as 4-byte words (uint32 in native order), so that a word stored in
    a byte buffer writes its four characters."""
    return np.frombuffer(text.encode("ascii"), np.uint32)


#: bytes of a ``%.16e`` field without a sign: the lead digit and ".", 16 digits
#: and the exponent "e+dd"; a field with a sign slot has one byte more
_E16_WIDTH = 22
#: exact doubles 1e0 .. 1e22, each with its Dekker split by 2**27 + 1
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: the word that starts a field, per sign slot: "d." for d = 0 .. 9, and with
#: the slot "d." after a NUL, then "-d." for the same; the digits overwrite its tail
_LEADS = (
    _words("".join(f"{d}.\0\0" for d in range(10))),
    _words("".join(f"\0{d}.\0" for d in range(10)) + "".join(f"-{d}.\0" for d in range(10))),
)
#: ASCII "0000" .. "9999" as one 4-byte word per value, built from uint8
#: digits so that import allocates no large temporaries
_DIGITS4 = (
    np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    .reshape(-1, 4)
    .view(np.uint32)
    .ravel()
)
#: "e+16" .. "e-06" as one word per power 10**k, k = 0 .. 22, scaling the
#: decimal exponent 16 - k into 17 integer digits
_EXPONENTS = _words("".join(f"e{16 - k:+03d}" for k in range(23)))


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact product a * 10**k as p + err (Dekker's TwoProduct, no FMA)."""
    a_hi = a * 134217729.0
    a_lo = a_hi - a
    a_hi -= a_lo  # c - (c - a) for c = a * (2**27 + 1)
    np.subtract(a, a_hi, out=a_lo)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    p = _POW10.take(k)
    p *= a
    err = a_hi * b_hi
    err -= p
    err += np.multiply(a_hi, b_lo, out=a_hi)
    err += np.multiply(a_lo, b_hi, out=b_hi)
    err += np.multiply(a_lo, b_lo, out=b_lo)
    return p, err


def _format_e16(values: np.ndarray, field: np.ndarray) -> list[int]:
    """Write ``f"{v:.16e}"`` of each float64 value into its row of ``field``.

    ``field`` is a uint8 array of shape (len(values), _E16_WIDTH + sign),
    typically a slice of a row-major row buffer, whose last axis is
    contiguous; with ``sign`` 1 it has a sign slot, which holds "-" or a NUL,
    and with ``sign`` 0 no value may have its sign bit set.  Every byte of
    the field is written, NUL where the text is shorter.  The 17
    significant digits are the exact product |v| * 10**(16 - E) rounded half
    to even, which needs 10**(16 - E) to be an exact double: so
    1e-6 < |v| < 1e17 and zeros are written here, and every other value
    (NaN and inf included) is formatted by Python.

    Returns the indices of the values whose text is longer than the field,
    such as -1e-100, or 1e-100 without a sign slot: the caller writes those
    rows some other way.
    """
    width = field.shape[1]
    sign = width - _E16_WIDTH
    a = np.abs(values)
    fast = (a > 1e-6) & (a < 1e17)  # decimal exponents -6 .. 16; False for NaN
    slow = ~fast
    np.copyto(a, 1.0, where=slow)
    # log10 is off by at most a few ulps, so the floor of log10(a) - 1e-12 is
    # the decimal exponent E or one less (never 17); an exact product
    # p + err >= 1e17 marks the ones that are one less
    e = np.log10(a)
    e -= 1e-12
    np.floor(e, out=e)
    k = e.astype(np.intp)
    np.subtract(16, k, out=k)
    np.minimum(k, 22, out=k)  # E >= -6
    p, err = _times_pow10(a, k)
    big = np.flatnonzero(p >= 1e17)
    if big.size:
        short = big[(p[big] > 1e17) | (err[big] >= 0)]
        k[short] -= 1
        p[short], err[short] = _times_pow10(a[short], k[short])
    # p is an even integer >= 1e16, so adding rint(err) rounds half to even.
    # n stays below 10**17: no double in (1e-6, 1e17) lies within half a
    # 17th digit below a power of ten (the tests cover every such neighbour)
    n = p.astype(np.int64)
    n += np.rint(err).astype(np.int64)
    np.copyto(n, 0, where=slow)  # zeros come out right (a = 1 gives E = 0); the rest is overwritten below
    high = n // 10**8
    low = (n - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)  # below 10**9
    lead = high // 10**8
    high -= lead * 10**8
    if sign:
        lead += np.signbit(values) * np.int32(10)

    def word(at: int) -> np.ndarray:  # the field's bytes at .. at + 3 as one unaligned uint32 per row
        return field[:, at : at + 4].view(np.uint32)[:, 0]

    word(0)[...] = _LEADS[sign].take(lead, mode="clip")  # written first: the digits overwrite its tail
    for at, group in ((sign + 2, high), (sign + 10, low)):
        quotient = group // 10_000
        word(at)[...] = _DIGITS4.take(quotient, mode="clip")
        group -= quotient * 10_000
        word(at + 4)[...] = _DIGITS4.take(group, mode="clip")
    word(sign + 18)[...] = _EXPONENTS.take(k, mode="clip")
    wide = []
    for i in np.flatnonzero(slow & (values != 0.0)).tolist():
        text = f"{values[i]:.16e}".encode("ascii")
        if len(text) > width:
            wide.append(i)
        else:
            field[i] = np.frombuffer(text.ljust(width, b"\0"), np.uint8)
    return wide


class Coded(NamedTuple):
    """A column of a few distinct values, each formatted once.

    Row r holds ``values[codes[r]]``, a negative code counting from the end
    as in Python.  Without codes the values cycle, each for ``repeat`` rows:
    row r holds ``values[r // repeat % len(values)]``, over ``len(values) *
    repeat`` rows, or more where a table's first column is longer.
    """

    values: Sequence
    codes: np.ndarray | None = None
    repeat: int = 1

    def __len__(self) -> int:
        return len(self.values) * self.repeat if self.codes is None else len(self.codes)

    def codes_of(self, start: int, stop: int) -> np.ndarray:
        if self.codes is not None:
            return self.codes[start:stop]
        codes = np.arange(start, stop)
        if self.repeat > 1:
            codes //= self.repeat
        return codes if stop <= len(self) else codes % len(self.values)


#: ``SIGNS[z] == z`` for z = -1, 0, 1, so an array of signs is its own codes
SIGNS = (0, 1, -1)


class Table(NamedTuple):
    """Named columns, each a float64 array or a ``Coded`` column; the first sets the row count."""

    names: Sequence[str]
    columns: Sequence[np.ndarray | Coded]

    def csv_blocks(self, header: bool = True) -> Iterator[bytes]:
        """The header line unless ``header`` is false, then the rows, a block per ``_CSV_BLOCK`` at most."""
        if header:
            yield (",".join(self.names) + "\n").encode("ascii")
        yield from _blocks(self.columns, [""] + [","] * (len(self.columns) - 1) + ["\n"], "", _csv_value, {})

    def json_records(self, level: int) -> list[str]:
        """The rows as a JSON list of objects at nesting ``level``, in pieces."""
        pad, keys = "  " * (level + 1), [f'{"  " * (level + 2)}"{name}": ' for name in self.names]
        texts = [pad + "{\n" + keys[0], *(",\n" + key for key in keys[1:]), f"\n{pad}}},\n"]
        end = texts[-1][:-2] + "\n" + "  " * level + "]"  # the last row closes the list
        blocks = [b.decode("utf-8") for b in _blocks(self.columns, texts, "null", _json_value, {len(self.columns[0]): end})]
        return ["[\n", *blocks] if blocks else ["[]"]


class Arrays(NamedTuple):
    """One or more named 1-D float64 arrays, written as a JSON object of lists."""

    names: Sequence[str]
    arrays: Sequence[np.ndarray]

    def json_object(self, level: int) -> list[str]:
        """The arrays as a JSON object at nesting ``level`` whose values are lists, in pieces.

        Every value is formatted in one pass over the arrays joined end to
        end, which ``_blocks`` cuts at each array's last row.  NaN, like inf,
        has no text: the first non-finite value raises, in document order.
        """
        for values in self.arrays:
            if values.dtype != np.float64 or values.ndim != 1:
                raise TypeError(f"cannot render a {values.dtype} array of shape {values.shape} in a report")
        pad, ends, rows, text = "  " * (level + 1), {}, 0, "{\n"  # ends[0]: the text before the first value
        for i, (name, values) in enumerate(zip(self.names, self.arrays)):
            text += (",\n" if i else "") + f'{pad}"{name}": ' + ("[\n" if values.size else "[]")
            if values.size:
                ends[rows] = text
                rows += values.size
                text = "\n" + pad + "]"
        ends[rows] = text + "\n" + "  " * level + "}"
        head = ends.pop(0)
        blocks = _blocks([np.concatenate(self.arrays)], ["  " * (level + 2), ",\n"], None, _json_value, ends)
        return [head, *(b.decode("utf-8") for b in blocks)]


def _csv_value(value) -> str:
    return f"{value:.16e}" if isinstance(value, float) else str(value)


def _json_value(value) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"refusing to print non-finite value {value!r}")
    return _csv_value(value)


def _texts(values, value_text: Callable) -> list[str]:
    """A coded column's values as text, refusing a NUL: the writer drops the NULs that pad its fields."""
    texts = [value_text(value) for value in (values.tolist() if isinstance(values, np.ndarray) else values)]
    if "\0" in "".join(texts):
        raise ValueError("a table's text cannot hold a NUL character")
    return texts


def _rows(columns, texts: list[str], missing: str | None, value_text: Callable, start: int, stop: int, ends: dict) -> bytes:
    """Rows ``start`` to ``stop`` of ``_blocks``, formatted field by field, ``ends`` in place.

    A field without text is looked for again row by row, so that the error
    names the first one in the document, as the row-major layout does.
    """
    fields = [itertools.repeat(texts[0])]
    try:
        for column, text in zip(columns, texts[1:]):
            if isinstance(column, Coded):
                codes, values = column.codes_of(start, stop), column.values
                picked = values[codes] if isinstance(values, np.ndarray) else [values[c] for c in codes.tolist()]
                fields.append(_texts(picked, value_text))
            else:
                values = column[start:stop].tolist()
                fields.append([missing if v != v and missing is not None else value_text(v) for v in values])
            fields.append(itertools.repeat(text))
    except ValueError:
        for row in range(start, stop) if stop - start > 1 else ():
            _rows(columns, texts, missing, value_text, row, row + 1, {})
        raise
    if ends:
        fields[-1] = [texts[-1]] * (stop - start)
        for r in ends:
            if start < r <= stop:
                fields[-1][r - start - 1] = ends[r]
    return "".join(map("".join, zip(*fields))).encode("utf-8")


def _blocks(columns, texts: list[str], missing: str | None, value_text: Callable, ends: dict) -> Iterator[bytes]:
    """The rows ``texts[0] field texts[1] ... field texts[-1]`` as UTF-8, a block per ``_CSV_BLOCK`` rows at most.

    ``ends`` maps row counts r, in increasing order, to the text that ends
    row r - 1 in place of ``texts[-1]``, so that a JSON list's last row can
    close it; a block is cut after each such row.

    A coded field is ``value_text`` of its value, a float field ``%.16e``
    or, where it is NaN, ``missing`` (which None refuses).  Fewer than
    ``_LAYOUT_FROM`` rows are formatted row by row.  Otherwise every row is
    the same bytes in a row-major buffer: each text at its own width, a
    coded field at the width of its longest text, and a float field at
    ``_E16_WIDTH`` bytes, plus a sign slot where some value of the column
    has its sign bit set.  Shorter fields are padded with NULs, which are
    dropped as each block is emitted; a layout with no such slot skips that
    pass.  A float field whose text is longer than its slot, like inf, has
    its row formatted field by field.
    """
    rows = len(columns[0])
    if not rows:
        return
    if rows < _LAYOUT_FROM:
        yield _rows(columns, texts, missing, value_text, 0, rows, ends)
        return
    layout, coded, floats, holes = bytearray(), [], [], False  # a row's bytes, the fields at their offsets, any NUL slot
    for column, text in zip(columns, texts):
        layout += text.encode("utf-8")
        values = column.values if isinstance(column, Coded) else column
        if not isinstance(column, Coded):  # the field of a missing value sets the width
            signs = np.count_nonzero(np.signbit(values))
            holes |= 0 < signs < values.size
            empty = np.frombuffer((missing or "").encode("ascii").ljust(_E16_WIDTH + (signs > 0), b"\0"), np.uint8)
            floats.append((len(layout), column, empty))
            layout += bytes(empty.size)
            continue
        if isinstance(values, np.ndarray) and values.dtype == np.float64:  # each value formatted once
            table = np.zeros((values.size, _E16_WIDTH + np.signbit(values).any()), np.uint8)
            marked = ~np.isfinite(values)
            marked[_format_e16(values, table)] = True  # rows of the marked values by Python
            table = table.view(f"S{table.shape[1]}")[:, 0]
        else:  # NUL-padded to the longest text
            table, marked = np.array([t.encode("utf-8") for t in _texts(values, value_text)], "S"), np.zeros(len(values), bool)
        holes |= b"\0" in table.tobytes()
        coded.append((len(layout), column, table, marked if marked.any() else None))
        layout += bytes(table.itemsize)
    layout += texts[-1].encode("utf-8")
    # a block holds whole cycles of the longest cycling column that fits, so their fields, like the
    # constants, are written with the first block only
    cycles = [len(c) for c in columns if isinstance(c, Coded) and c.codes is None and len(c) <= _CSV_BLOCK]
    height = min(rows, _CSV_BLOCK - _CSV_BLOCK % max(cycles, default=1))
    buffer, stride = bytearray(layout * height), len(layout)  # the constants written once
    view, cells = memoryview(buffer), np.frombuffer(buffer, np.uint8).reshape(height, stride)
    for start in range(0, rows, height):
        block = cells[: min(height, rows - start)]
        stop = start + len(block)
        wide, nul = set(), holes  # rows formatted field by field: a float text longer than its slot, or inf
        for offset, column, table, marked in coded:
            if start and column.codes is None and height % len(column) == 0 and marked is None:
                continue  # whole cycles, as the first block wrote them
            codes = column.codes_of(start, stop)
            block[:, offset : offset + table.itemsize].view(table.dtype)[:, 0] = table.take(codes, mode="wrap")
            if marked is not None:
                wide.update(np.flatnonzero(marked.take(codes, mode="wrap")).tolist())
        for offset, column, empty in floats:
            values, field, absent = column[start:stop], block[:, offset : offset + empty.size], None
            if not np.isfinite(values).all():  # NaN is missing where it has a text; other rows by Python
                absent = np.isnan(values) & (missing is not None)
                wide.update(np.flatnonzero(~np.isfinite(values) & ~absent).tolist())
                values = np.where(np.isfinite(values), values, 0.0)
                nul |= absent.any()
            wide.update(_format_e16(values, field))
            if absent is not None:
                np.copyto(field, empty, where=absent[:, None])
        cuts = [0, *(r - start for r in ends if start < r < stop), stop - start]
        for a, b in zip(cuts, cuts[1:]):  # the block's rows a to b, then the end of row b - 1
            pieces = []
            for r in sorted(r for r in wide if a <= r < b):
                pieces += [view[a * stride : r * stride], _rows(columns, texts, missing, value_text, start + r, start + r + 1, {})]
                a = r + 1
            pieces.append(view[a * stride : b * stride])
            text = buffer if pieces[0].nbytes == len(buffer) else b"".join(pieces)  # the whole buffer is not copied
            text = text.replace(b"\0", b"") if nul else bytes(text)
            end = ends.get(start + b)
            yield text if end is None else text[: -len(texts[-1].encode("utf-8"))] + end.encode("utf-8")
