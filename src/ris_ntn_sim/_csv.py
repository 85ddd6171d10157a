"""CSV rows from column arrays, a batch at a time, with every float spelled as '%.17g'.

A row is its cell's head, the text ``arch,elements,``, then the trial field
(a trial index, or ``mean`` or ``stderr`` for a cell's aggregate rows), four
float64 values and a uint64 seed.

A row run is a sequence of consecutive rows of one cell whose four values
have equal bits, so 0.0 and -0.0, and NaNs with different payloads, stay
apart; every trial of a pure line-of-sight cell is one run. A batch of fewer
than SMALL_BATCH runs is one join of per-row texts: the head, the row's
trial text, the run's values spelled once with '%.17g' and the row's seed
text. Other batches take the array path: each field is written into fixed
character positions of a NUL-padded uint8 matrix, and dropping the NULs
gives the batch's bytes.

The array path's floats are exact. The 17 correctly rounded significant
digits of x are the integer nearest x * 10^(16 - E), computed as the
double-double product of x with an exactly rounded power of ten hi + lo,
using Veltkamp's split and Dekker's exact product (Dekker, "A floating-point
technique for extending the available precision", 1971), to within 1e-14.
E, the decimal exponent, comes from log10 and is corrected once where the
scaled value falls outside [10^16, 10^17). A value whose 17th digit lies
within TIE_MARGIN of a rounding tie goes through Python's correctly rounded
'%.17g' instead (Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990), and so do zeros, non-finite values and values outside
the power-of-ten table.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# Rows formatted at a time: memory follows this, not the record count. Not a
# power of two: at a power-of-two stride, transposing the batch's (~131, rows)
# uint8 matrix hits cache-set aliasing (on an Intel Xeon with numpy 2.4, 198 us
# at 1024 rows against 70 us at 1000).
BATCH_ROWS = 1000

# Batches with fewer row runs are joined from per-row texts: below this count
# the array path's fixed cost, about a hundred numpy calls, exceeds the join's.
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
_POWERS = 10 ** np.arange(_INT_WIDTH, dtype=np.uint64)
# Digit positions 0 .. 19, as a column against per-value rows.
_RANKS = np.arange(_INT_WIDTH, dtype=np.uint8)[:, None]
# The trial field of a cell's aggregate rows, indexed by their trial -2 and -1.
AGGREGATES = ("mean", "stderr")
_AGGREGATE_FIELDS = np.frombuffer(b"".join(name.encode().ljust(_INT_WIDTH, b"\0")
                                           for name in AGGREGATES), np.uint8).reshape(2, -1).T


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


def _float_fields(x: np.ndarray) -> np.ndarray:
    """(FLOAT_WIDTH + 1, len(x)) uint8: column i is '%.17g' of x[i] and a comma, NUL-padded."""
    out = np.zeros((FLOAT_WIDTH + 1, len(x)), np.uint8)
    out[FLOAT_WIDTH] = ord(",")
    slow = _exact_fields(x, out)
    if slow.size:
        # one '%' call for all; the template pads with spaces, which '%.17g' never writes
        text = (_FLOAT_TEMPLATE * len(slow)) % tuple(x[slow].tolist())
        padded = np.frombuffer(text.replace(b" ", b"\0"), np.uint8)
        out[:, slow] = padded.reshape(-1, FLOAT_WIDTH + 1).T
    return out


def _int_fields(v: np.ndarray) -> np.ndarray:
    """(20, len(v)) uint8: column i is the decimal digits of the uint64 v[i], NUL-padded."""
    # leading zeros go, but a zero keeps its last digit
    lengths = np.maximum(np.searchsorted(_POWERS, v, side="right"), 1)
    digits = _spell(v, _tables().quads)
    digits *= _RANKS >= _INT_WIDTH - lengths
    return digits


def row_texts(trials: np.ndarray, seeds: np.ndarray) -> tuple[list[bytes], list[bytes]]:
    """Each row's trial text (``12,``, ``mean,`` or ``stderr,``) and seed text (``123\\n``)."""
    # one '%' call per column, each text ended by a NUL to split on
    trial_texts = (b"%d,\0" * len(trials) % tuple(trials.tolist())).split(b"\0")[:-1]
    for i in np.flatnonzero(trials < 0).tolist():
        trial_texts[i] = AGGREGATES[trials[i]].encode() + b","
    return trial_texts, (b"%d\n\0" * len(seeds) % tuple(seeds.tolist())).split(b"\0")[:-1]


def _joined(heads: list[bytes], cells: np.ndarray, trials: np.ndarray, values: np.ndarray,
            seeds: np.ndarray, starts: np.ndarray, texts) -> bytes:
    """format_batch's bytes as one join of per-row pieces, for rows whose runs begin at starts."""
    if texts is None:
        trial_texts, seed_texts = row_texts(trials, seeds)
        offsets = starts.tolist()
    else:
        trial_texts, seed_texts = texts()
        offsets = (trials[starts] % len(trial_texts)).tolist()
    bounds = [*starts.tolist(), len(seeds)]
    pieces = [b""] * (4 * len(seeds))
    for a, b, offset, cell, run in zip(bounds, bounds[1:], offsets, cells[starts].tolist(),
                                       values[starts].tolist()):
        k = b - a
        pieces[4 * a:4 * b:4] = [heads[cell]] * k
        pieces[4 * a + 1:4 * b:4] = trial_texts[offset:offset + k]
        pieces[4 * a + 2:4 * b:4] = [b"%.17g,%.17g,%.17g,%.17g," % tuple(run)] * k
        pieces[4 * a + 3:4 * b:4] = seed_texts[offset:offset + k]
    return b"".join(pieces)


def format_batch(heads: list[bytes], cells: np.ndarray, trials: np.ndarray,
                 values: np.ndarray, seeds: np.ndarray, texts=None) -> bytes:
    """The CSV bytes of consecutive rows, newline-terminated, in row order.

    heads holds each cell's ``arch,elements,`` text, with no NUL byte; row i
    belongs to cell cells[i] and has trial index trials[i], or -2 and -1 for
    the cell's 'mean' and 'stderr' rows, (rows, 4) float64 values and a
    uint64 seed. A batch of fewer than SMALL_BATCH row runs is joined from
    per-row texts. A row's trial and seed texts depend only on its position
    in its cell: texts, if given, returns row_texts of the T + 2 positions of
    a cell, and is called only when the batch joins; otherwise they are
    row_texts of the batch's own rows. Other batches are built column-major,
    one character position of every row at a time, so each numpy call runs
    over the whole batch.
    """
    bits = values.view(np.uint64)
    # a row's four bool flags, viewed as one uint32, are nonzero if any is
    new = (bits[1:] != bits[:-1]).view(np.uint32)[:, 0] != 0
    new |= cells[1:] != cells[:-1]
    starts = np.flatnonzero(np.concatenate(([True], new)))
    if len(starts) < SMALL_BATCH:
        return _joined(heads, cells, trials, values, seeds, starts, texts)

    n = len(seeds)
    # the floats first: their temporaries are the largest, and columns does not exist yet
    fields = _float_fields(values.T.ravel())
    width = max(map(len, heads))
    floats = 4 * (FLOAT_WIDTH + 1)
    columns = np.zeros((width + _INT_WIDTH + 1 + floats + _INT_WIDTH + 1, n), np.uint8)
    table = np.frombuffer(b"".join(head.ljust(width, b"\0") for head in heads), np.uint8)
    np.take(table.reshape(-1, width).T, cells, axis=1, out=columns[:width])

    ints = _int_fields(np.concatenate([trials.astype(np.uint64), seeds]))
    col = width
    columns[col:col + _INT_WIDTH] = ints[:, :n]
    # trials -2 and -1 were spelled as wrapped uint64s; the aggregate names replace them
    aggregates = np.flatnonzero(trials < 0)
    columns[col:col + _INT_WIDTH, aggregates] = _AGGREGATE_FIELDS[:, trials[aggregates]]
    columns[col + _INT_WIDTH] = ord(",")
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
