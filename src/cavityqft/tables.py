"""CSV writer for tables of columns, shared by the CLI and the scheduler.

A table is a dict of columns, each a numpy array or a list. A float cell is
written as fmt(x) and any other cell as str(x); the cells of an array are
its .tolist() elements, except that a bytes array holds ASCII text and a
masked cell is empty. Every column becomes a (rows, width) uint8 matrix
and a mask of the bytes in it that belong to the cells. The whole table is
joined into one matrix, compacted with the masks and decoded once.
"""
from __future__ import annotations

import numpy as np

_POW10 = 10.0 ** np.arange(23)  # 1e0 .. 1e22, all exact doubles
_INT_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def fmt(x: float) -> str:
    return f"{x:.11e}"


def _text_cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Right-aligned cells of the UTF-8 texts and their byte lengths."""
    data = [t.encode() for t in texts]
    lengths = np.array([len(d) for d in data], dtype=np.intp)
    width = max(int(lengths.max(initial=0)), 1)
    padded = np.array([d.rjust(width, b"\0") for d in data], dtype=f"S{width}")
    return padded.view(np.uint8).reshape(len(data), width), lengths


def _put_digits(out: np.ndarray, cols, t: np.ndarray) -> None:
    """Write the len(cols) lowest decimal digits of t into out[:, cols]."""
    for col in reversed(cols):
        quotient = t // 10  # numpy divides by a constant several times faster than it takes %
        out[:, col] = t - quotient * 10 + ord("0")
        t = quotient


def float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-aligned cells equal to fmt(v) for each v of a float64 array, and their lengths.

    The 12 significant digits of |v| are rint(m), m = |v| * 10**(11 - e) with
    e = floor(log10 |v|), formed with at most two exact powers of ten, so m
    is within about 2.2e-4 of the exact product. Where m lies in
    [1e11, 1e12) more than 1e-3 away from a rounding tie, rint(m) equals the
    correctly rounded digits (Gay 1990); rint(m) = 1e12 carries into the
    exponent. Zeros are written directly. Every other value (near ties,
    |11 - e| > 44, inf, nan) goes through fmt.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        fast = np.abs(11.0 - e) <= 44.0  # False for 0, inf and nan
        s = np.where(fast, 11.0 - e, 0.0).astype(np.intp)
        s1 = np.clip(s, -22, 22)
        s2 = s - s1
        m = a * _POW10[np.maximum(s1, 0)] / _POW10[np.maximum(-s1, 0)]
        m = m * _POW10[np.maximum(s2, 0)] / _POW10[np.maximum(-s2, 0)]
        fast &= (m >= 1e11) & (m < 1e12) & (np.abs(m - np.floor(m) - 0.5) > 1e-3)
    q = np.where(fast, np.rint(m), 0.0).astype(np.int64)  # zeros print as 0 digits
    e = np.where(fast, e, 0.0).astype(np.int64)
    carry = q == 10**12
    q[carry] = 10**11
    e[carry] += 1

    # Fast cells are "-d.ddddddddddde+XX" in columns 1..18, with the sign
    # inside the cell only where it is negative; |e| <= 56 here, so two
    # exponent digits. Column 0 is for the longest fallback, "-d.ddddddddddde-XXX".
    out = np.empty((len(q), 19), np.uint8)
    high = q // 10**6
    _put_digits(out, (2, 4, 5, 6, 7, 8), high.astype(np.uint32))
    _put_digits(out, range(9, 15), (q - high * 10**6).astype(np.uint32))
    _put_digits(out, (17, 18), np.abs(e).astype(np.uint32))
    out[:, 3] = ord(".")
    out[:, 15] = ord("e")
    out[:, 16] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 1] = ord("-")
    lengths = 17 + np.signbit(x).astype(np.intp)

    slow = np.flatnonzero(~fast & (a != 0.0))
    if slow.size:
        matrix, slow_lengths = _text_cells([fmt(v) for v in x[slow].tolist()])
        out[slow, 19 - matrix.shape[1] :] = matrix
        lengths[slow] = slow_lengths
    return out, lengths


def _int_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-aligned decimal cells of an integer array and their lengths."""
    neg = x < 0
    a = (np.abs(x.astype(np.int64)) if x.dtype.kind == "i" else x).astype(np.uint64)
    lengths = np.maximum(np.searchsorted(_INT_POW10, a, side="right"), 1) + neg
    width = int(lengths.max(initial=1))
    out = np.empty((len(a), width), np.uint8)
    _put_digits(out, range(width), a)
    out[np.flatnonzero(neg), width - lengths[neg]] = ord("-")
    return out, lengths


def _right_aligned(matrix: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The matrix cut to its longest cell, and the mask of each row's last `length` bytes."""
    width = int(lengths.max(initial=0))
    matrix = matrix[:, matrix.shape[1] - width :]
    if np.all(lengths == width):
        return matrix, None
    return matrix, np.arange(width) >= (width - lengths)[:, None]


def _cells(column) -> tuple[np.ndarray, np.ndarray | None]:
    """(rows, width) uint8 matrix of the cells and the mask of their bytes (None: all)."""
    if isinstance(column, np.ma.MaskedArray):
        matrix, keep = _cells(column.data)
        if keep is None:
            keep = np.ones(matrix.shape, dtype=bool)
        keep &= ~np.ma.getmaskarray(column)[:, None]
        return matrix, keep
    if isinstance(column, np.ndarray):
        column = np.ascontiguousarray(column)  # a record field is a strided view
        if column.dtype == np.float64:
            return _right_aligned(*float_cells(column))
        if column.dtype.kind in "iu":
            return _right_aligned(*_int_cells(column))
        if column.dtype.kind == "S":
            # A bytes cell is left-aligned in its item and ends at its last
            # nonzero byte: numpy drops trailing NULs, but not inner ones.
            width = column.itemsize
            matrix = column.view(np.uint8).reshape(len(column), width)
            if matrix[:, -1].all():  # no cell is shorter than the width
                return matrix, None
            return matrix, np.arange(width) < np.char.str_len(column)[:, None]
        column = pylist(column)
    if column and all(isinstance(v, float) for v in column):
        return _right_aligned(*float_cells(np.array(column, dtype=np.float64)))
    texts = [fmt(v) if isinstance(v, float) else str(v) for v in column]
    return _right_aligned(*_text_cells(texts))


def to_csv(columns: dict) -> str:
    """The table as CSV text: a header line of the column names, then one line per row."""
    cells = [_cells(column) for column in columns.values()]
    rows = cells[0][0].shape[0]
    table = np.empty((rows, sum(m.shape[1] + 1 for m, _ in cells)), np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    start = 0
    for matrix, mask in cells:
        stop = start + matrix.shape[1]
        table[:, start:stop] = matrix
        if mask is not None:
            keep[:, start:stop] = mask
        table[:, stop] = ord(",")
        start = stop + 1
    table[:, -1] = ord("\n")
    return ",".join(columns) + "\n" + str(table[keep], "utf-8")


def pylist(column) -> list:
    """The cells of a column as Python values; masked cells are None."""
    if not isinstance(column, np.ndarray):
        return list(column)
    if column.dtype.kind == "S":
        column = column.astype(str)
    return column.tolist()
