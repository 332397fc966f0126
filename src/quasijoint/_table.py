"""Tables written as text from numpy columns: CSV rows, JSON records and JSON float arrays.

A ``Table`` is column names plus columns: float64 arrays, NaN marking a
missing value, and ``Coded`` columns of a few distinct values formatted
once.  Its three templates (CSV rows, JSON records at a nesting level, a
one-column JSON float array) are all written by ``_blocks``.  A short table
is formatted row by row.  In a longer one every row is a fixed number of
4-byte words in a word-major buffer of at most ``_CSV_BLOCK`` rows, float
fields are written by ``_format_e16``, the exact vectorised ``%.16e``
kernel, and the NULs that pad the words are dropped as each block is
emitted.  Either way the text is byte-identical to formatting every field
with Python.
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
#: than laying a row out as words
_WORDS_FROM = 64


def _words(text: str) -> np.ndarray:
    """ASCII text as 4-byte words (uint32 in native order), so that words written in
    a row buffer come out of ``tobytes`` as the text."""
    return np.frombuffer(text.encode("ascii"), np.uint32)


#: words of one ``%.16e`` field: [separator|sign|lead|"."], the 16 digits after
#: the point as four words of four, and the exponent "e+dd"; the widest text
#: that fits after the separator is 23 characters
_E16_WORDS = 6
#: byte 0 of a field's first word, the separator the caller sets
_SEPARATOR_MASK = np.frombuffer(b"\xff\0\0\0", np.uint32)[0]
#: exact doubles 1e0 .. 1e22, each with its Dekker split by 2**27 + 1
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: bytes 1..3 of a field's first word, "d." for d = 0 .. 9, then "-d." for the same
_LEAD_WORDS = _words("".join(f"\0\0{d}." for d in range(10)) + "".join(f"\0-{d}." for d in range(10)))
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
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * _POW10.take(k)
    err = a_hi * b_hi
    err -= p
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    return p, err


def _format_e16(values: np.ndarray, out: np.ndarray) -> list[int]:
    """Write ``f"{v:.16e}"`` of each float64 value as the ``_E16_WORDS`` words of its column of ``out``.

    ``out`` is a uint32 array of shape (_E16_WORDS, len(values)) whose rows
    are contiguous, typically rows of a word-major row buffer.  Byte 0 of
    each column's first word, the separator, is left as the caller set it;
    every other byte of the column is written, NUL where the text is
    shorter (no sign, or a short Python-formatted field).  The 17
    significant digits are the exact product |v| * 10**(16 - E) rounded half
    to even, which needs 10**(16 - E) to be an exact double: so
    1e-6 < |v| < 1e17 and zeros are written here, and every other value
    (NaN and inf included) is formatted by Python.

    Returns the indices of the values whose text has 24 characters, a
    negative value with a three-digit exponent such as -1e-100: it does not
    fit after the separator, so their columns hold only the separator and
    NULs, and the caller writes those rows some other way.
    """
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
    lead += np.signbit(values) * np.int32(10)
    first = out[0]
    first &= _SEPARATOR_MASK
    first |= _LEAD_WORDS.take(lead)
    for row, group in ((1, high), (3, low)):
        quotient = group // 10_000
        _DIGITS4.take(quotient, out=out[row], mode="clip")
        group -= quotient * 10_000
        _DIGITS4.take(group, out=out[row + 1], mode="clip")
    _EXPONENTS.take(k, out=out[5], mode="clip")
    wide = []
    for i in np.flatnonzero(slow & (values != 0.0)).tolist():
        text = f"{values[i]:.16e}".encode("ascii")
        if len(text) >= 4 * _E16_WORDS:
            wide.append(i)
            text = b""
        field = out[:1, i].tobytes()[:1] + text.ljust(4 * _E16_WORDS - 1, b"\0")
        out[:, i] = np.frombuffer(field, np.uint32)
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
        yield from _blocks(self.columns, [""] + [","] * (len(self.columns) - 1) + ["\n"], "", _csv_value)

    def json_records(self, level: int) -> list[str]:
        """The rows as a JSON list of objects at nesting ``level``, in pieces."""
        pad, keys = "  " * (level + 1), [f'{"  " * (level + 2)}"{name}": ' for name in self.names]
        texts = [pad + "{\n" + keys[0], *(",\n" + key for key in keys[1:]), f"\n{pad}}},\n"]
        return _json_list(self.columns, texts, level)

    def json_values(self, level: int) -> list[str]:
        """The one column as a JSON list at nesting ``level``, in pieces; NaN, like inf, has no text."""
        return _json_list(self.columns, ["  " * (level + 1), ",\n"], level, None)


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
    """A coded column's values as text, refusing a NUL: the word writer drops the NULs that pad its words."""
    texts = [value_text(value) for value in (values.tolist() if isinstance(values, np.ndarray) else values)]
    if "\0" in "".join(texts):
        raise ValueError("a table's text cannot hold a NUL character")
    return texts


def _json_list(columns, texts: list[str], level: int, missing: str | None = "null") -> list[str]:
    """The rows of a template ending in ",\\n" as the pieces of one JSON list."""
    blocks = [block.decode("utf-8") for block in _blocks(columns, texts, missing, _json_value)]
    if not blocks:
        return ["[]"]
    blocks[-1] = blocks[-1][:-2]  # the last row closes the list instead
    return ["[\n", *blocks, "\n" + "  " * level + "]"]


def _padded(text: bytes, size: int = 0) -> bytes:
    """``text`` padded with NULs to whole words, at least ``size`` bytes."""
    return text.ljust(max(size, -(-len(text) // 4) * 4), b"\0")


def _rows(columns, texts: list[str], missing: str | None, value_text: Callable, start: int, stop: int) -> bytes:
    """Rows ``start`` to ``stop`` of ``_blocks``, formatted field by field."""
    fields = [itertools.repeat(texts[0])]
    for column, text in zip(columns, texts[1:]):
        if isinstance(column, Coded):
            codes, values = column.codes_of(start, stop), column.values
            picked = values[codes] if isinstance(values, np.ndarray) else [values[c] for c in codes.tolist()]
            fields.append(_texts(picked, value_text))
        else:
            values = column[start:stop].tolist()
            fields.append([missing if v != v and missing is not None else value_text(v) for v in values])
        fields.append(itertools.repeat(text))
    return "".join(map("".join, zip(*fields))).encode("utf-8")


def _blocks(columns, texts: list[str], missing: str | None, value_text: Callable) -> Iterator[bytes]:
    """The rows ``texts[0] field texts[1] ... field texts[-1]`` as UTF-8, a block per ``_CSV_BLOCK`` rows at most.

    A coded field is ``value_text`` of its value, a float field ``%.16e``
    or, where it is NaN, ``missing`` (which None refuses).  Fewer than
    ``_WORDS_FROM`` rows are formatted row by row.  Otherwise a row is laid
    out as words: the text before a coded field leads each of its values
    (and the row's last text ends them, after the last column), the last
    byte of the text before a float field is its separator, and any other
    text is constant, written once.  A 24-character float field does not
    fit after its separator, so its row, like a row holding inf, is
    formatted field by field.
    """
    rows = len(columns[0])
    if not rows:
        return
    if rows < _WORDS_FROM:
        yield _rows(columns, texts, missing, value_text, 0, rows)
        return
    layout, coded, floats = [], [], []  # a row's words holding its constant text; the fields at their offsets
    pending = texts[0].encode("utf-8")
    for i, column in enumerate(columns):
        after = texts[i + 1].encode("utf-8")
        values = column.values if isinstance(column, Coded) else column
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64):  # coded by texts
            end, after = (after, b"") if i == len(columns) - 1 else (b"", after)
            values = [pending + text.encode("utf-8") + end for text in _texts(values, value_text)]
            width = max(1, -(-max(map(len, values)) // 4))
            table = np.array(values, f"S{4 * width}").view(np.uint32).reshape(-1, width).T
            coded.append((len(b"".join(layout)) // 4, column, table, None))
            layout.append(bytes(4 * width))
            pending = after
            continue
        layout.append(_padded(pending[:-1]))
        field = _padded(pending[-1:], 4 * _E16_WORDS)
        if isinstance(column, Coded):  # its %.16e fields written once; rows of the marked ones by Python
            table = np.repeat(np.frombuffer(field, np.uint32)[:, None], values.size, axis=1)
            marked = ~np.isfinite(values)
            marked[_format_e16(values, table)] = True
            coded.append((len(b"".join(layout)) // 4, column, table, marked if marked.any() else None))
        else:
            empty = np.frombuffer(_padded(field[:1] + (missing or "").encode("ascii"), 4 * _E16_WORDS), np.uint32)
            floats.append((len(b"".join(layout)) // 4, column, empty[:, None]))
        layout.append(field)
        pending = after
    layout.append(_padded(pending))
    # a block holds whole cycles of the longest cycling column that fits, so their words, like the
    # constants, are written with the first block only
    cycles = [len(c) for c in columns if isinstance(c, Coded) and c.codes is None and len(c) <= _CSV_BLOCK]
    height = min(rows, _CSV_BLOCK - _CSV_BLOCK % max(cycles, default=1))
    words = np.empty((len(b"".join(layout)) // 4, height), np.uint32)
    words[...] = np.frombuffer(b"".join(layout), np.uint32)[:, None]
    for start in range(0, rows, height):
        block = words[:, : min(height, rows - start)]
        stop = start + block.shape[1]
        wide = set()  # rows formatted field by field: a 24-character float field, or inf
        for offset, column, table, marked in coded:
            if start and column.codes is None and height % len(column) == 0 and marked is None:
                continue  # whole cycles, as the first block wrote them
            codes = column.codes_of(start, stop)
            table.take(codes, axis=1, out=block[offset : offset + len(table)], mode="wrap")
            if marked is not None:
                wide.update(np.flatnonzero(marked.take(codes, mode="wrap")).tolist())
        for offset, column, empty in floats:
            values, field, absent = column[start:stop], block[offset : offset + _E16_WORDS], None
            if not np.isfinite(values).all():  # NaN is missing where it has a text; other rows by Python
                absent = np.isnan(values) & (missing is not None)
                wide.update(np.flatnonzero(~np.isfinite(values) & ~absent).tolist())
                values = np.where(np.isfinite(values), values, 0.0)
            wide.update(_format_e16(values, field))
            if absent is not None:
                np.copyto(field, empty, where=absent)
        pieces, done = [], 0
        for r in sorted(wide):
            pieces += [block[:, done:r].T.tobytes(), _rows(columns, texts, missing, value_text, start + r, start + r + 1)]
            done = r + 1
        pieces.append(block[:, done:].T.tobytes())
        text = b"".join(pieces)
        # translate drops NULs at a table lookup per byte, replace at about a memchr and a
        # memcpy per NUL, so replace wins on rows with less than one NUL in 15 bytes (a scan's)
        sparse = 15 * block[:, 0].tobytes().count(b"\0") < 4 * len(block)
        yield text.replace(b"\0", b"") if sparse else text.translate(None, b"\0")
