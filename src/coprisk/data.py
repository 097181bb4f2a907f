"""The column-store Sample and the CSV writer behind every artifact.

The CSV dialect is fixed: a header row, LF line endings, floats written as
shortest round-trip decimals so that write -> read reproduces the in-memory
arrays bit for bit, integers and flags as integers.  Datasets use the header
``t,delta,z1,...``.  write_dataset_csv and the command line's four artifact
layouts (surface, theta series, Monte Carlo replicates and summary) go
through one column-wise writer, _write_csv, which takes plain columns.

A float's text is ``repr``'s, byte for byte, but found for a whole block of
values at once: a vectorised shortest round-trip formatter in long double,
with ``repr`` itself for each value it cannot decide within its error bound.

_write_dataset writes a dataset in one process or, when _split_row splits a
large one, on two CPUs (_write_dataset_forked): a child forked on the
package's one fork-join path (_fork._forked) writes the tail rows to an
anonymous memory file while the parent writes the head rows, and the parent
appends the child's bytes.  A row's text does not depend on the rows around
it, so the file is the one write_dataset_csv writes.

Working set: the writer and the covariate mean work ``_BLOCK_ROWS`` rows at
a time, so each temporary is block-sized, its columns under glibc's 128 KiB
mmap threshold, and the heap reuses it block after block instead of mapping
fresh pages.  A forked write holds the child's text, the tail rows' bytes,
in memory until the parent appends it; its block temporaries live in the
child.  The one row-sized temporary is the percentiles' duration copy.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._fork import _forked, _worker_count

__all__ = ["Sample", "read_dataset_csv", "write_dataset_csv"]


# rows per block of the CSV writer
_BLOCK_ROWS = 2048


class Sample:
    """Immutable column store of competing-risks records.

    Keeps durations, causes (1 or 2) and covariates as read-only numpy
    arrays, one row per record; ``len`` is the number of records.  At least
    two covariate columns are required; the first two are the
    cause-specific ones used by the cross-derivative estimator.
    """

    __slots__ = ("t", "delta", "z")

    def __init__(self, t, delta, z) -> None:
        t = np.ascontiguousarray(t, dtype=float)
        delta = np.asarray(delta)
        # int64 would truncate a cause of 1.5 to 1, so any other dtype must hold 1 and 2 alone
        if delta.dtype.kind not in "iu" and not np.isin(delta, (1, 2)).all():
            raise ValueError("delta must be 1 or 2")
        delta = np.ascontiguousarray(delta, dtype=np.int64)
        z = np.ascontiguousarray(z, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("t must be a nonempty 1-d array")
        if delta.shape != t.shape:
            raise ValueError("delta must match t in shape")
        if z.ndim != 2 or z.shape[0] != t.size:
            raise ValueError("z must be (n, d) with one row per observation")
        if z.shape[1] < 2:
            raise ValueError("need at least two covariate columns")
        # min and max propagate NaN, which fails every test, with no row-sized mask
        if not (t.min() > 0.0 and t.max() < np.inf):
            raise ValueError("durations must be finite and positive")
        if not (delta.min() >= 1 and delta.max() <= 2):
            raise ValueError("delta must be 1 or 2")
        if not (z.min() > -np.inf and z.max() < np.inf):
            raise ValueError("covariates must be finite")
        for arr in (t, delta, z):
            arr.setflags(write=False)
        self.t = t
        self.delta = delta
        self.z = z

    @property
    def d(self) -> int:
        return self.z.shape[1]

    def __len__(self) -> int:
        return self.t.size

    def mean_covariates(self) -> np.ndarray:
        """Sample average of each covariate column, ``z.mean(axis=0)`` bit for
        bit: numpy adds a C-ordered array's rows one after another from +0.0,
        and so does this running cumulative sum, a block of rows at a time."""
        n = len(self)
        run = np.zeros((_BLOCK_ROWS + 1, self.d))  # row 0 carries the sum so far
        for lo in range(0, n, _BLOCK_ROWS):
            k = min(_BLOCK_ROWS, n - lo)
            run[1 : k + 1] = self.z[lo : lo + k]
            np.cumsum(run[: k + 1], axis=0, out=run[: k + 1])
            run[0] = run[k]
        return run[0] / n


def _fmt(x: float) -> str:
    """Shortest round-trip decimal of a float, taken from a Python float
    (numpy scalars repr as ``np.float64(...)``)."""
    return repr(float(x))


# Shortest round-trip text in bulk.  ``repr`` runs David Gay's correctly
# rounded shortest conversion (Gay 1990) once per value.  The same digits
# can be found for a whole array with fixed-width arithmetic and an error
# bound, as Ryu does (Adams 2018): scale |x| by a power of ten into
# [1e16, 1e17) in long double, so that the 17-digit candidate is the nearest
# integer, the 16-digit one the nearest multiple of 10 and every shorter one
# the nearest multiple of 100, and keep the shortest that lies within half an
# ulp of x.  Each value becomes a fixed-width cell of ASCII with NUL padding,
# built from 8-byte words, and the NULs are dropped once per block of rows.

_POW10_LO, _POW10_HI = -292, 324  # 10**s scales every normal double into [1e16, 1e17)
_EXP_LO, _EXP_HI = -308, 308  # decimal exponents of normal doubles
_FLOAT_CELL = 48  # six words; byte 0 is left for the separator

# The scaled value y = |x| * 10**s carries two roundings to long double,
# the table entry's and the product's, each within half a long-double eps,
# so |y - exact| <= 1e17 * eps (to first order) in units of the 17th digit:
# about 0.011 on x86's 80-bit format.  The decisions compare doubles below
# 100 that are exact or within a few double eps, which the second term
# covers.  Where long double is no wider than double the band is about 22
# units, wider than any decision's distance from its tie (at most 5), so
# every value falls back to repr.
_DIGIT_BAND = 1e17 * float(np.finfo(np.longdouble).eps) + 1e3 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class _Tables:
    pow10: np.ndarray  # long double 10**s, s in [_POW10_LO, _POW10_HI], each rounded once
    pow10_double: np.ndarray  # about 10**k in double, k in [_EXP_LO, _EXP_HI]: picks the decade
    ascii4: np.ndarray  # ASCII of 0000..9999 as uint32 words
    zeros4: np.ndarray  # trailing decimal zeros of 0..9999 (four for 0)
    keep: np.ndarray  # words keeping their first j bytes, j in 0..8
    head: np.ndarray  # first word of a float cell, see _float_cells
    tail: np.ndarray  # fourth word of a float cell


def _words(texts) -> np.ndarray:
    """Byte strings of at most 8 bytes as NUL-padded uint64 words."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=np.uint64)


def _longdouble_powers_of_ten() -> np.ndarray:
    bits = np.finfo(np.longdouble).nmant + 1
    mants, exps = [], []
    for s in range(_POW10_LO, _POW10_HI + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        e = num.bit_length() - den.bit_length() - bits
        q, r = divmod(num << -e if e < 0 else num, den << e if e > 0 else den)
        if q >> bits:  # the quotient came out one bit too long
            e += 1
            q, r = divmod(num << -e if e < 0 else num, den << e if e > 0 else den)
        if 2 * r > den or (2 * r == den and q & 1):
            q += 1
        mants.append(q)
        exps.append(e)
    # each 32-bit chunk is exact in double, and so is their sum in long double
    pow10 = np.zeros(len(mants), dtype=np.longdouble)
    for shift in range(32 * ((bits - 1) // 32), -1, -32):
        chunk = np.array([(m >> shift) & 0xFFFFFFFF for m in mants], dtype=float)
        pow10 += np.ldexp(chunk.astype(np.longdouble), shift)
    return np.ldexp(pow10, np.array(exps))


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built on first use."""
    quads = np.arange(10_000)
    ascii4 = np.stack([quads // 1000, quads // 100 % 10, quads // 10 % 10, quads % 10], axis=1) + ord("0")
    # sign, "0" before the point, lead digit (written later), point after it
    heads = [
        b"\0\0\0\0" + (b"\0", b"-")[neg] + (b"\0", b"0")[small] + b"\0" + (b"\0", b".")[point]
        for neg, small, point in np.ndindex(2, 2, 2)
    ]
    # "e+308" by exponent (a hundreds digit only when there is one), then
    # the point by decimal point position: zeros after it, or ".0"
    tails = [
        b"\0e%+04d" % e if abs(e) >= 100 else b"\0e%c\0%02d" % (b"+-"[e < 0], abs(e))
        for e in range(_EXP_LO, _EXP_HI + 1)
    ]
    tails += [b"." + b"0" * (-p if p < 0 else trailing) for p in range(-3, 17) for trailing in (0, 1)]
    tables = _Tables(
        pow10=_longdouble_powers_of_ten(),
        pow10_double=10.0 ** np.arange(_EXP_LO, _EXP_HI + 1),
        ascii4=np.ascontiguousarray(ascii4, dtype=np.uint8).view(np.uint32).ravel(),
        zeros4=sum((quads % 10**k == 0).astype(np.uint8) for k in range(1, 5)),
        keep=_words(b"\xff" * j for j in range(9)),
        head=_words(heads),
        tail=_words(tails),
    )
    for table in vars(tables).values():
        table.setflags(write=False)
    return tables


def _digits17(c: np.ndarray):
    """The 17 decimal digits of integers below 1e17: the leading digit in
    ASCII, the 16 after it in ASCII as two words, and the count of
    significant digits (17 less the trailing zeros)."""
    hi = c // 10**8
    lo = c - hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    quads = np.empty((c.size, 4), dtype=np.int64)
    quads[:, 0] = hi // 10**4
    quads[:, 1] = hi - quads[:, 0] * 10**4
    quads[:, 2] = lo // 10**4
    quads[:, 3] = lo - quads[:, 2] * 10**4
    zeros = _tables().zeros4[quads]
    trailing = zeros[:, 2] + (quads[:, 2] == 0) * (zeros[:, 1] + (quads[:, 1] == 0) * zeros[:, 0])
    n = 17 - (zeros[:, 3] + (quads[:, 3] == 0) * trailing).astype(np.int64)
    return lead.astype(np.uint8) + ord("0"), _tables().ascii4[quads].view(np.uint64), n


def _keep16(count: np.ndarray, tables: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """Masks keeping the first `count` (0..16) bytes of two words."""
    return tables.keep[np.clip(count, 0, 8)], tables.keep[np.clip(count - 8, 0, 8)]


def _fallback(cells: np.ndarray, x: np.ndarray, keep: np.ndarray) -> None:
    """Write ``repr`` of the values not kept over their cells, after byte 0."""
    rest = np.flatnonzero(~keep)
    if rest.size:
        width = cells.shape[1] - 1
        text = np.array(list(map(repr, x[rest].tolist())), dtype=f"S{width}")
        cells[rest, 1:] = text.view(np.uint8).reshape(rest.size, width)


def _scaled(x: np.ndarray):
    """The fast-path mask, the decade k of |x|, and |x| * 10**(16 - k) as
    its integer part, its fraction and half an ulp of x in those units."""
    t = _tables()
    bits = x.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    mantissa = bits & (2**52 - 1)
    fast = (biased - 1 < 0x7FE) & (mantissa != 0)  # normal, finite, not a power of two
    e2 = np.where(fast, biased.astype(np.int64) - 1023, 0)  # |x| in [2**e2, 2**(e2 + 1))
    ax = np.where(fast, np.abs(x), 1.5)
    k = (e2 * 78913) >> 18  # floor(e2 * log10(2)) for |e2| < 1100, so 10**k <= |x| < 2 * 10**(k+1)
    k += ax >= t.pow10_double[k + 1 - _EXP_LO]  # next to a power of ten the table may misjudge
    y = ax.astype(np.longdouble) * t.pow10[16 - k - _POW10_LO]
    whole = y.astype(np.uint64)
    frac = (y - whole).astype(float)
    half_ulp = y.astype(float) / (mantissa | (1023 << 52)).view(float) * 2.0**-53
    return fast, k, whole, frac, half_ulp


def _shortest(x: np.ndarray):
    """The mask of values decided, k, and the shortest digits as a 17-digit
    integer padded with zeros (10**16 where not decided)."""
    fast, k, whole, frac, half_ulp = _scaled(x)
    mod10 = whole - whole // 10 * 10
    mod100 = whole - whole // 100 * 100
    d10 = mod10 + frac  # distance down to the multiple of 10 below
    d100 = mod100 + frac
    up1, up10, up100 = frac > 0.5, d10 > 5.0, d100 > 50.0
    dist10 = np.where(up10, 10.0 - d10, d10)
    dist100 = np.where(up100, 100.0 - d100, d100)
    at16 = dist10 < half_ulp
    at15 = dist100 < half_ulp
    digits = np.where(
        at15,
        whole - mod100 + up100 * np.uint64(100),
        np.where(at16, whole - mod10 + up10 * np.uint64(10), whole + up1),
    )
    near = (np.abs(dist100 - half_ulp) < _DIGIT_BAND) | (np.abs(dist10 - half_ulp) < _DIGIT_BAND)
    near |= np.abs(np.where(at16, d10 - 5.0, frac - 0.5)) < _DIGIT_BAND
    keep = fast & ~near & (digits - 10**16 < 9 * 10**16)  # a misjudged decade leaves [1e16, 1e17)
    return keep, k, np.where(keep, digits, 10**16)


def _float_cells(x, cells: np.ndarray) -> None:
    """Write ``repr(float(v))`` of each value over its row of ``cells``, a
    (len(x), 48) uint8 array or a view of one, as NUL-padded ASCII.

    A cell is six 8-byte words, read left to right with the NULs dropped:
    the sign, "0" for a value below 1, the lead digit, and the point after
    it in exponent form; two words of the next 16 digits where they come
    before the point, or all of them in exponent form; the point, the zeros
    after it and the lead digit for a value below 1, ".0" for an integral
    value, or the exponent; two words of the digits after the point.
    Zeros, subnormals, non-finite values, exact powers of two (whose
    rounding interval is lopsided) and values with a rounding decision
    within ``_DIGIT_BAND`` of a tie or an interval end go through repr.
    This assumes that long-double arithmetic rounds to nearest at its own
    precision; where long double is no wider than double, every value goes
    through repr.  Each step's temporaries are freed before the next's.
    """
    x = np.ascontiguousarray(x, dtype=float)
    t = _tables()
    keep, k, digits = _shortest(x)
    lead, words, n = _digits17(digits)
    point = k + 1  # |x| = 0.d1d2... * 10**point
    sci = (point < -3) | (point > 16)
    small = ~sci & (point <= 0)
    # of the 16 digits after the lead one: those shown, and those before the point
    shown1, shown2 = _keep16(n - 1, t)
    ahead1, ahead2 = _keep16(np.where(sci, n - 1, np.clip(point - 1, 0, 16)), t)

    cell_words = cells.view(np.uint64)
    cell_words[:, 0] = t.head[(x < 0) * 4 + small * 2 + (sci & (n > 1))]
    cell_words[:, 1] = words[:, 0] & ahead1
    cell_words[:, 2] = words[:, 1] & ahead2
    positional = _EXP_HI - _EXP_LO + 1 + 2 * (point + 3) + (point >= n)
    cell_words[:, 3] = t.tail[np.where(sci, point - 1 - _EXP_LO, positional)]
    cell_words[:, 4] = words[:, 0] & shown1 & ~ahead1
    cell_words[:, 5] = words[:, 1] & shown2 & ~ahead2
    cells[:, 6] = np.where(small, 0, lead)
    cells[:, 31] = np.where(small, lead, 0)
    _fallback(cells, x, keep)


def _text_cells(column) -> np.ndarray:
    """Each value of an integer or bool (as 0/1) array, or of a plain
    sequence (strings as they are), as a NUL-padded row of ASCII."""
    if isinstance(column, np.ndarray):  # each distinct integer's str, looked up per row
        values, at = np.unique(column.astype(np.int64, copy=False), return_inverse=True)
        text = values.astype(bytes)[at]
    else:
        text = [v if isinstance(v, str) else _fmt(v) if isinstance(v, float) else str(int(v)) for v in column]
        text = np.array(text, dtype=bytes)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _write_rows(fh, columns) -> None:
    """Write the rows of equal-length columns to a binary file.

    A float array becomes ``repr`` of each value, byte for byte: shortest
    round-trip decimals, found in bulk with a ``repr`` fallback (see
    ``_float_cells``).  Any other column goes through ``_text_cells``.
    Each block of rows is laid out in one byte matrix, reused from block to
    block, of NUL-padded cells with their separators, and written with the
    NULs dropped, so that a large sample never exists as text all at once.
    A row's text does not depend on the rows around it.
    """
    cells = np.empty((0, 0), dtype=np.uint8)
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[lo : lo + _BLOCK_ROWS] for col in columns]
        text = [None if isinstance(c, np.ndarray) and c.dtype.kind == "f" else _text_cells(c) for c in block]
        ends = np.cumsum([_FLOAT_CELL if c is None else 1 + c.shape[1] for c in text])
        if cells.shape != (len(block[0]), ends[-1] + 1):
            raw = bytearray(len(block[0]) * int(ends[-1] + 1))
            cells = np.frombuffer(raw, dtype=np.uint8).reshape(len(block[0]), -1)
            cells[:, -1] = ord("\n")
        for col, txt, end in zip(block, text, ends):
            if txt is None:
                _float_cells(col, cells[:, end - _FLOAT_CELL : end])
            else:
                cells[:, end - txt.shape[1] : end] = txt
        cells[:, ends[:-1]] = ord(",")  # each cell but the first starts with its separator
        fh.write(raw.translate(None, b"\0"))


def _write_csv(path, header, columns) -> None:
    """Write a header row and equal-length columns with LF endings, each
    row as _write_rows writes it."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, columns)


def _dataset_header(d: int) -> list[str]:
    """The ``t,delta,z1,...`` header of a dataset with d covariates."""
    return ["t", "delta"] + [f"z{j + 1}" for j in range(d)]


def _dataset_table(sample: Sample):
    """The header and columns of a sample."""
    return _dataset_header(sample.d), [sample.t, sample.delta, *sample.z.T]


def write_dataset_csv(sample: Sample, path) -> None:
    """Write a sample using the ``t,delta,z1,...`` schema with LF endings."""
    _write_dataset(sample, path, 1)


# Below this many rows a dataset is written in one process: the fork, the
# child's exit and the join cost about as much as the second CPU saves.  A
# fresh `coprisk simulate` on a 2-vCPU host broke even at 16,384 rows (12 of
# 30 alternating pairs faster) and gained from 24,576 rows on (20 of 30).
_SPLIT_MIN_ROWS = 20_000
# The parent's share of the rows of a forked write: it writes the header and
# these rows while the child writes the rest.  At 100,000 rows on a 2-vCPU
# host (medians of 12 fresh processes), share 0.5 (49,152 rows) had the
# parent wait 1.5 ms for the child at the join, 0.45 had it wait 10 ms, and
# at 0.55 the child ended 10 ms before the parent; the write took 61, 69 and
# 63 ms.  A fresh `coprisk estimate` at share 0.52 (51,200 rows) was faster
# than at 0.5 in 6 of 20 alternating pairs.
_HEAD_SHARE = 0.5


def _split_row(n: int, workers: int) -> int:
    """The row from which a forked child writes an n-row dataset, a block
    boundary near ``_HEAD_SHARE`` of n; n, no child, below
    ``_SPLIT_MIN_ROWS`` rows, on one worker (see _fork._worker_count) or
    where there is no os.memfd_create."""
    if n < _SPLIT_MIN_ROWS or not hasattr(os, "memfd_create") or _worker_count(workers, 2) < 2:
        return n
    return round(n * _HEAD_SHARE / _BLOCK_ROWS) * _BLOCK_ROWS


def _write_tail(fd: int, columns) -> None:
    """A forked writer's task: the rows of ``columns`` to the open file ``fd``."""
    with open(fd, "wb", closefd=False) as fh:
        _write_rows(fh, columns)


def _write_dataset_forked(sample: Sample, path, split: int) -> None:
    """Write a sample as write_dataset_csv does, in two processes.

    A forked child writes rows [split, n) to an anonymous memory file while
    this process writes the header and rows [0, split) to ``path``; the
    child's bytes are appended once it is joined.  An exception from the
    child is raised here with the child reaped, and one raised here kills
    and reaps the child first.
    """
    header, columns = _dataset_table(sample)
    _tables()  # built once, before the fork, not in both processes
    tail = os.memfd_create("dataset-tail")
    try:
        with _forked([functools.partial(_write_tail, tail, [col[split:] for col in columns])]) as join:
            _write_csv(path, header, [col[:split] for col in columns])
            join()
        # not opened for appending: sendfile fails with EINVAL on such a file
        with open(path, "r+b") as fh:
            size, sent = os.fstat(tail).st_size, 0
            fh.seek(0, os.SEEK_END)
            while sent < size:
                sent += os.sendfile(fh.fileno(), tail, sent, size - sent)
    finally:
        os.close(tail)


def _write_dataset(sample: Sample, path, workers: int) -> None:
    """Write a sample as write_dataset_csv does, forked where _split_row
    splits it on ``workers`` (see _fork._worker_count)."""
    split = _split_row(len(sample), workers)
    if split == len(sample):
        _write_csv(path, *_dataset_table(sample))
    else:
        _write_dataset_forked(sample, path, split)


def read_dataset_csv(path) -> Sample:
    """Read a dataset written by write_dataset_csv (or matching its schema).

    The rows are parsed in one np.loadtxt pass: a value that is not a float,
    a cause that is not an integer literal, a ``#`` anywhere, or a row wider
    or narrower than the header raises ValueError.  Blank lines are skipped.
    """
    with open(path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: empty dataset file")
        header = line.rstrip("\r\n").split(",")
        if header != _dataset_header(len(header) - 2) or len(header) < 4:
            raise ValueError(f"{path}: bad header {header!r}, want t,delta,z1,z2,...")
        dtype = np.dtype([("t", float), ("delta", np.int64), ("z", float, (len(header) - 2,))])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError as exc:  # numpy appends advice on its usecols argument
                raise ValueError(f"{path}: {str(exc).partition(';')[0]}") from None
    if rows.size == 0:
        raise ValueError(f"{path}: no data rows")
    return Sample(rows["t"], rows["delta"], rows["z"])
