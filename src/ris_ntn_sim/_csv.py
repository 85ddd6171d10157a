"""CSV rows from column arrays, a batch at a time, with every float spelled as '%.17g'.

A row is a head, the text before its numeric fields (``arch,elements,``, or
``arch,elements,mean,`` where the trial column is text), then an optional
trial index, four float64 values and a uint64 seed. Each field is written
into fixed character positions of a NUL-padded uint8 matrix; dropping the
NULs gives the batch's bytes.

The floats are exact. The 17 correctly rounded significant digits of x are
the integer nearest x * 10^(16 - E), computed as the double-double product of
x with an exactly rounded power of ten hi + lo, using Veltkamp's split and
Dekker's exact product (Dekker, "A floating-point technique for extending
the available precision", 1971), to within 1e-14. E, the decimal exponent,
comes from log10 and is corrected once where the scaled value falls outside
[10^16, 10^17). A value whose 17th digit lies within TIE_MARGIN of a rounding
tie goes through Python's correctly rounded '%.17g' instead (Gay, "Correctly
rounded binary-decimal and decimal-binary conversions", 1990), and so do
zeros, non-finite values and values outside the power-of-ten table.

A batch of fewer than SMALL_BATCH rows formats each of its values on its
own, with '%.17g' or '%d': there the fixed cost of the array path, about a
hundred numpy calls, exceeds that of formatting each value.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

# Rows formatted at a time: memory follows this, not the record count.
BATCH_ROWS = 1024

# Batches with fewer rows format each value on its own, with '%.17g' or '%d'.
SMALL_BATCH = 48

# A 17th digit this close to a rounding tie goes to '%.17g'; the product's
# error is below 1e-14 of a unit in that digit.
TIE_MARGIN = 1e-6

# Decimal exponents E whose values take the array path. The table holds
# 10^(16 - E) one step further each way, for the log10 correction; within
# it the Veltkamp splits of x and of 10^(16 - E) cannot overflow and lo stays
# a normal double.
EXP_MIN, EXP_MAX = -282, 298
_TABLE_MIN = EXP_MIN - 1

# Veltkamp's splitting constant for doubles, 2^27 + 1.
_SPLIT = 134217729.0

# The text of a float: sign, the "0.000" prefix of a fixed-point value below
# 1, 17 digits with a decimal point among them, and the "e+NNN" suffix; a
# comma follows. Each part is contiguous, so the NULs of a row come in runs,
# which dropping them handles several times faster than scattered ones.
FLOAT_WIDTH = 29
_BODY = slice(6, 24)
_SUFFIX = slice(24, 29)
_FLOAT_TEMPLATE = b"%%-%d.17g," % FLOAT_WIDTH

# A uint64 has at most 20 decimal digits: five groups of four.
_INT_WIDTH = 20
_INT_TEMPLATE = b"%%-%dd" % _INT_WIDTH
_POWERS = 10 ** np.arange(_INT_WIDTH, dtype=np.uint64)
# Digit positions 0 .. 19, as a column against per-value rows.
_RANKS = np.arange(_INT_WIDTH, dtype=np.uint8)[:, None]


class Batch(NamedTuple):
    """Column arrays of consecutive rows; heads are (text, row count) runs in row order.

    A head holds no NUL byte.
    """

    heads: list[tuple[bytes, int]]
    trials: np.ndarray  # int64; -1 where the head already holds the trial column
    values: np.ndarray  # (rows, 4) float64
    seeds: np.ndarray  # uint64


class _Tables(NamedTuple):
    pow10: np.ndarray  # (4, exponents) float64: hi, lo and hi's Veltkamp halves
    quads: np.ndarray  # (10000,) uint32: the four bytes of "0000" .. "9999"
    layouts: np.ndarray  # (exponents + 1, 16) uint8: how a value with that exponent is spelled


@functools.cache
def _tables() -> _Tables:
    """Built from Python ints on first use (about 3 ms), not at import."""
    pow10 = []
    for e in range(_TABLE_MIN, EXP_MAX + 2):
        k = 16 - e
        if k >= 0:
            hi = float(10**k)  # int -> float rounds correctly
            lo = float(10**k - int(hi))
        else:
            q = 10**-k
            hi = 1 / q  # int / int rounds correctly
            a, b = hi.as_integer_ratio()
            lo = (b - a * q) / (b * q)
        pow10.append((hi, lo))
    hi, lo = np.array(pow10).T
    c = _SPLIT * hi
    upper = c - (c - hi)

    # uint16 keeps the temporaries small: they would otherwise add to the peak memory
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    quads = (np.arange(10_000, dtype=np.uint16)[:, None] // places % 10).astype(np.uint8) + ord("0")

    # per exponent, up to the carry past the table: the prefix of a fixed-point
    # value below 1, the digit the decimal point follows (17: none), the count
    # of integer digits and the exponent suffix, each NUL-padded
    layouts = []
    for e in range(_TABLE_MIN, EXP_MAX + 3):
        if -4 <= e < 0:
            prefix, point, whole, suffix = b"0." + b"0" * (-e - 1), 17, 0, b""
        elif 0 <= e < 17:
            prefix, point, whole, suffix = b"", e, e + 1, b""
        else:
            prefix, point, whole, suffix = b"", 0, 0, b"e%+03d" % e
        layouts.append(prefix.ljust(5, b"\0") + bytes([point, whole, 0]) + suffix.ljust(8, b"\0"))
    return _Tables(np.stack([hi, lo, upper, hi - upper]), quads.view(np.uint32).ravel(),
                   np.frombuffer(b"".join(layouts), np.uint8).reshape(-1, 16))


def _spell(v: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """(20, len(v)) uint8: row k holds digit k of each nonnegative integer below 2^64, zero-padded."""
    groups = np.empty((_INT_WIDTH // 4, len(v)), v.dtype)
    for g in range(_INT_WIDTH // 4 - 1, 0, -1):
        q = v // 10_000  # numpy divides by a scalar faster than divmod does
        groups[g] = v - q * 10_000
        v = q
    groups[0] = v  # below 2^64 / 10^16 < 10^4
    spelled = np.empty((_INT_WIDTH, len(v)), np.uint8)
    spelled.reshape(5, 4, -1)[...] = (
        np.take(quads, groups).view(np.uint8).reshape(5, -1, 4).transpose(0, 2, 1))
    return spelled


def _scaled(a: np.ndarray, e: np.ndarray, pow10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e) as a normalized double-double (s, r), to within 1e-14."""
    hi, lo, hi_upper, hi_lower = np.take(pow10, e - _TABLE_MIN, axis=1)
    c = _SPLIT * a
    upper = c - (c - a)
    lower = a - upper
    p = a * hi
    # Dekker: p + err is a * hi exactly
    err = ((upper * hi_upper - p) + upper * hi_lower + lower * hi_upper) + lower * hi_lower
    t = err + a * lo
    s = p + t  # |p| > |t|, so Fast2Sum is exact
    return s, t - (s - p)


def _below(s: np.ndarray, r: np.ndarray, bound: float) -> np.ndarray:
    """Whether s + r < bound, for a normalized double-double with s above 2^52.

    s - bound is exact (Sterbenz) wherever |s - bound| is not far above |r|.
    """
    return (s - bound) + r < 0


def _rounded(x: np.ndarray, pow10: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, exact): |x| rounded to 17 significant digits is n * 10^(e - 16), 10^16 <= n < 10^17.

    exact is false where the array path does not apply; n and e are then meaningless.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    exact = (e >= EXP_MIN) & (e <= EXP_MAX)  # False for zero, inf and nan
    e = np.where(exact, e, 0.0).astype(np.int64)
    a = np.where(exact, a, 1.0)
    s, r = _scaled(a, e, pow10)
    below = _below(s, r, 1e16)
    step = (~_below(s, r, 1e17)).astype(np.int64) - below
    wrong = np.flatnonzero(step)
    if wrong.size:  # log10 misses only right at powers of ten
        e[wrong] += step[wrong]
        s[wrong], r[wrong] = _scaled(a[wrong], e[wrong], pow10)
        below[wrong] = _below(s[wrong], r[wrong], 1e16)

    # s >= 10^16 > 2^53 is an integer, so r carries the whole fraction
    whole = np.floor(r)
    fraction = r - whole
    n = s.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    # below 10^16 would take a second correction; n = 10^17 carries into the next exponent
    exact &= ~below & (n <= 10**17) & (np.abs(fraction - 0.5) >= TIE_MARGIN)
    carry = n == 10**17
    return np.where(carry, 10**16, n), e + carry, exact


def _exact_fields(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write '%.17g' of x into the columns of out; return the indices left to the fallback."""
    tables = _tables()
    n, e, exact = _rounded(x, tables.pow10)
    digits = _spell(n, tables.quads)[3:]
    layout = np.take(tables.layouts, e - _TABLE_MIN, axis=0).T
    point, whole_digits = layout[5], layout[6]
    significant = (_RANKS[:17] * (digits != ord("0"))).max(axis=0) + 1
    # trailing zeros of the fraction go, the integer digits of a fixed-point value stay
    digits *= _RANKS[:17] < np.maximum(significant, whole_digits)
    body = out[_BODY]
    body[0] = digits[0]
    body[1:17] = digits[:16] + (_RANKS[1:17] <= point) * (digits[1:] - digits[:16])
    body[17] = digits[16]
    body[np.minimum(point + 1, 17), np.arange(len(x))] = (significant > point + 1) * ord(".")
    out[0] = np.signbit(x) * ord("-")
    out[1:6] = layout[:5]
    out[_SUFFIX] = layout[8:13]
    return np.flatnonzero(~exact)


def _printf(values: list, template: bytes, width: int) -> np.ndarray:
    """(width, len(values)) uint8: column i is template % values[i], NUL-padded.

    One '%' call formats them all; the templates pad with spaces, which
    '%.17g' and '%d' never write themselves.
    """
    text = (template * len(values)) % tuple(values)
    return np.frombuffer(text.replace(b" ", b"\0"), np.uint8).reshape(-1, width).T


def _float_fields(x: np.ndarray, array_path: bool) -> np.ndarray:
    """(FLOAT_WIDTH + 1, len(x)) uint8: column i is '%.17g' of x[i] and a comma, NUL-padded.

    Without array_path every value takes the fallback.
    """
    if not array_path:
        return _printf(x.tolist(), _FLOAT_TEMPLATE, FLOAT_WIDTH + 1)
    out = np.zeros((FLOAT_WIDTH + 1, len(x)), np.uint8)
    out[FLOAT_WIDTH] = ord(",")
    slow = _exact_fields(x, out)
    if slow.size:
        out[:, slow] = _printf(x[slow].tolist(), _FLOAT_TEMPLATE, FLOAT_WIDTH + 1)
    return out


def _int_fields(v: np.ndarray, array_path: bool) -> np.ndarray:
    """(20, len(v)) uint8: column i is the decimal digits of the uint64 v[i], NUL-padded.

    Without array_path each value is formatted with '%d'.
    """
    if not array_path:
        return _printf(v.tolist(), _INT_TEMPLATE, _INT_WIDTH)
    # leading zeros go, but a zero keeps its last digit
    lengths = np.maximum(np.searchsorted(_POWERS, v, side="right"), 1)
    digits = _spell(v, _tables().quads)
    digits *= _RANKS >= _INT_WIDTH - lengths
    return digits


def run_batches(labels: list[tuple[str, int]], runs) -> Iterator[Batch]:
    """SweepRecords runs joined into batches of at most BATCH_ROWS rows.

    labels holds each cell's (arch, elements). A run is (cell, trials,
    values, seeds) of at most BATCH_ROWS rows, trials a range of trial
    indices or the names that fill the trial column of the cell's aggregate
    rows. Short runs are joined because each format_batch call costs about a
    hundred numpy calls.
    """
    cell_heads = [f"{label},{m},".encode() for label, m in labels]
    heads, trials, values, seeds, rows = [], [], [], [], 0
    for c, run_trials, run_values, run_seeds in runs:
        if rows + len(run_seeds) > BATCH_ROWS:
            yield _concatenate(heads, trials, values, seeds)
            heads, trials, values, seeds, rows = [], [], [], [], 0
        if isinstance(run_trials, range):
            heads.append((cell_heads[c], len(run_trials)))
            trials.append(np.arange(run_trials.start, run_trials.stop))
        else:
            heads.extend((cell_heads[c] + f"{name},".encode(), 1) for name in run_trials)
            trials.append([-1] * len(run_trials))
        values.append(run_values)
        seeds.append(run_seeds)
        rows += len(run_seeds)
    if rows:
        yield _concatenate(heads, trials, values, seeds)


def _concatenate(heads, trials, values, seeds) -> Batch:
    return Batch(heads, *(np.concatenate(parts) for parts in (trials, values, seeds)))


def format_batch(batch: Batch) -> bytes:
    """The CSV bytes of a batch's rows, newline-terminated, in row order.

    The rows are built column-major, one character position of every row
    at a time, so each numpy call runs over the whole batch.
    """
    n = len(batch.seeds)
    # the floats first: their temporaries are the largest, and columns does not exist yet
    fields = _float_fields(batch.values.T.ravel(), n >= SMALL_BATCH)
    width = max(len(head) for head, _ in batch.heads)
    floats = 4 * (FLOAT_WIDTH + 1)
    columns = np.zeros((width + _INT_WIDTH + 1 + floats + _INT_WIDTH + 1, n), np.uint8)
    heads, counts = zip(*batch.heads)
    heads = np.frombuffer(b"".join(head.ljust(width, b"\0") for head in heads), np.uint8)
    columns[:width] = np.repeat(heads.reshape(-1, width).T, counts, axis=1)

    ints = _int_fields(np.concatenate([batch.trials.astype(np.uint64), batch.seeds]),
                       n >= SMALL_BATCH)
    numeric = batch.trials >= 0
    col = width
    columns[col:col + _INT_WIDTH] = ints[:, :n] * numeric
    columns[col + _INT_WIDTH] = numeric * ord(",")
    col += _INT_WIDTH + 1
    columns[col:col + floats].reshape(4, FLOAT_WIDTH + 1, n)[...] = (
        fields.reshape(FLOAT_WIDTH + 1, 4, n).transpose(1, 0, 2))
    col += floats
    columns[col:col + _INT_WIDTH] = ints[:, n:]
    columns[-1] = ord("\n")
    # dropping the character positions that are NUL in every row first halves
    # the rest; each step releases the larger array before it
    rows = columns[columns.any(axis=1)]
    del columns, fields, ints
    rows = np.ascontiguousarray(rows.T)
    return rows[rows != 0].tobytes()
