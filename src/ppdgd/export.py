"""CSV export: float columns as '%.17g' text, formatted in numpy.

write_csv writes every value as '%.17g' % v would, byte for byte, so it reads
back exactly; it formats a block of rows per numpy pass instead of calling
Python's '%' once per row. For each value v the pass finds

- the decimal exponent E = floor(log10 |v|), corrected by one wherever the
  scaled value below falls outside [1e16, 1e17), since log10 can misjudge E
  next to a power of ten;
- the 17 significant digits N = round-half-even(|v| 10^(16 - E)). The
  product is taken in double-double arithmetic (Dekker's exact product with
  a table of 10^k as hi + lo) and is exact to about 4e-15, so N is decided
  wherever the fraction is not within 1e-6 of 1/2; a carry to 10^17 becomes
  N = 10^16 and E + 1;
- its text as %g lays it out: trailing zeros stripped, fixed notation for
  -4 <= E < 17, else d.ddde+XX with at least two exponent digits.

Each value's text is one row of a 32-byte template, four uint64 words filled
from tables: the sign and "0.000" prefix with the first digit and its '.',
the 16 tail digits written as 4-digit ASCII groups, and the exponent with the
separator. Only fixed notation with 1 <= E <= 15 puts its '.' among the tail
digits: for those values alone the tail moves one byte right past digit E,
its last byte into the exponent's first slot, which fixed notation leaves
free, and the '.' fills the gap. A table row per layout class (sign, E,
digits kept) zeroes the slots the class does not use, and deleting the zero
bytes leaves the text of the block. Zero is the one-digit "0". Values the pass
cannot decide (inf, nan, |v| outside [1e-280, 1e280) such as subnormals, and
near-ties at the 17th digit) keep Python's '%.17g' and are spliced in.
"""

from __future__ import annotations

import numpy as np

# values per numpy pass: larger blocks cost more in page faults on their
# temporaries than they save in numpy calls
BLOCK_VALUES = 16384

_LIMIT = 1e280     # range [1 / _LIMIT, _LIMIT): 16 - E stays in the table, the split finite
_K_MIN = -300      # table of 10^k for k in [_K_MIN, -_K_MIN]
_TIE = 1e-6        # a fraction this close to 1/2 is left to Python
_LO, _HI = 10 ** 16, 10 ** 17

# Template slots: the sign, "0.000" of -4 <= E < 0, the first digit and its
# '.', the 16 tail digits, then "e", the exponent's sign and three digits, the
# separator and two pad bytes
_WIDTH = 32
_EXP = 24
_X_CLASSES = 23    # E = -4 .. 16 in fixed notation, then scientific below and from 100
_E_SPAN = 400      # the exponent tables cover E in [-_E_SPAN, _E_SPAN)


def _split(x):
    """Dekker's split x = h + l into halves of 26 and 27 significant bits."""
    c = x * 134217729.0   # 2^27 + 1
    h = c - (c - x)
    return h, x - h


def _powers_of_ten():
    """Rows (hi, lo, hi's split) with 10^k = hi + lo for k in [_K_MIN, -_K_MIN],
    each part correctly rounded.

    Python's int-to-float conversion and int / int division round correctly,
    so exact integer remainders give lo without a rational type.
    """
    hi, lo = [], []
    for k in range(_K_MIN, -_K_MIN + 1):
        if k >= 0:
            n = 10 ** k
            h = float(n)
            lo.append(float(n - int(h)))
        else:
            d = 10 ** -k
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        hi.append(h)
    hi = np.array(hi)
    return np.column_stack((hi, lo) + _split(hi))


def _layout_masks():
    """Slots kept by each layout class (sign, class of E, digits kept after the
    first), and an empty last class for the values spliced in.

    Fixed notation with 1 <= E <= 15 has its tail shifted one byte right past
    its E-th digit, where the '.' goes (see _format), so a class with digits
    after that '.' keeps up to byte 8 + digits kept.
    """
    sign, xc, k, j = np.ix_(range(2), range(_X_CLASSES), range(17), range(_WIDTH))
    e = xc - 4    # in fixed notation
    fixed = (xc >= 4) & (xc < 21)
    sci = xc >= 21
    dotted = (e >= 1) & (e <= 15) & (k > e)
    last = 7 + np.where(fixed, np.maximum(k, e), k) + dotted
    masks = (
        (j == 0) & (sign == 1)
        | (j >= 1) & (j < 6 - xc) & (xc < 4)    # "0." and -E - 1 zeros
        | (j == 6)    # first digit
        | (j == 7) & ((xc == 4) | sci) & (k > 0)    # its '.'
        | (j >= 8) & (j <= last)    # tail digits
        | sci & np.isin(j, (_EXP, _EXP + 1, _EXP + 3, _EXP + 4))   # e+XX
        | (xc == 22) & (j == _EXP + 2)    # a third exponent digit from 100
        | (j == _EXP + 5)    # separator
    )
    return np.vstack([masks.reshape(-1, _WIDTH), np.zeros(_WIDTH, bool)])


def _digit_quads():
    """Each 4-digit group's ASCII digits as a uint32, and the digits up to its
    last nonzero one (-12 for 0000, so 12 more stays <= 0)."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = (digits + ord("0")).astype(np.uint8)
    nonzero = digits[:, ::-1] != 0
    last = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero, axis=1), -12)
    return text.view(np.uint32).ravel(), last


def _dot_shifts():
    """For 1 <= E <= 15, which template byte each of bytes 8 .. 24 takes: the
    tail up to digit E stays, the '.' of byte 7 follows, the rest moves one on."""
    e, p = np.ix_(range(16), range(8, _EXP + 1))
    return np.where(p < 8 + e, p, np.where(p == 8 + e, 7, p - 1))


def _words(texts):
    return np.frombuffer(b"".join(texts), np.uint64)


# the tables take a few ms to build; ppdgd imports this module on its first write
_POWERS = _powers_of_ten()
_MASKS = _layout_masks()
_KEEP = np.where(_MASKS, 0xFF, 0).astype(np.uint8).view(np.uint64)
_LENGTHS = _MASKS.sum(axis=1)
_EMPTY = len(_MASKS) - 1
_PREFIX = _words(b"-0.000%d." % d for d in range(10))
_QUADS, _LAST = _digit_quads()
_SHIFTS = _dot_shifts()
_EXPONENTS = np.arange(-_E_SPAN, _E_SPAN)
_SUFFIX = _words(b"e%+04d%s\0\0" % (e, sep) for e in _EXPONENTS for sep in (b",", b"\n"))
_CLASS = 17 * np.where((_EXPONENTS >= -4) & (_EXPONENTS < 17), _EXPONENTS + 4,
                       np.where(np.abs(_EXPONENTS) < 100, 21, 22))


def _scaled(a, E):
    """Integer part and fraction of a * 10^(16 - E), exact to about 4e-15."""
    p_hi, p_lo, p_hh, p_hl = np.take(_POWERS, 16 - _K_MIN - E, axis=0).T
    p = a * p_hi
    ah, al = _split(a)
    t = (((ah * p_hh - p) + ah * p_hl + al * p_hh) + al * p_hl) + a * p_lo
    f = np.floor(t)
    return p.astype(np.int64) + f.astype(np.int64), t - f


def _digits(v):
    """The 17 significant digits N and exponent E of each value of v, zero for
    zero, and which values the pass leaves to Python's '%.17g'."""
    a = np.abs(v)
    ok = (a >= 1 / _LIMIT) & (a < _LIMIT)
    a = np.where(ok, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    q, r = _scaled(a, E)
    off = np.flatnonzero((q < _LO) | (q >= _HI))
    if off.size:   # log10 misjudged E: step once towards the range
        E[off] += np.where(q[off] < _LO, -1, 1)
        q[off], r[off] = _scaled(a[off], E[off])
        off = off[(q[off] < _LO) | (q[off] >= _HI)]
        q[off], r[off] = _LO, 0.5   # still outside: left to Python, as a tie is
    slow = np.abs(r - 0.5) < _TIE
    special = np.flatnonzero(~ok)
    slow[special] = v[special] != 0
    N = q + (r > 0.5)
    N[special] = 0
    carry = np.flatnonzero(N == _HI)
    N[carry] = _LO
    E[carry] += 1
    return N, E, slow


def _format(v, ncols) -> bytes:
    """Text of the values v, rows of ncols flattened, with ',' and '\\n' separators."""
    n = v.size
    N, E, slow = _digits(v)
    hi = N // 10 ** 8
    lo = N - hi * 10 ** 8
    lead = hi // 10 ** 8
    hi -= lead * 10 ** 8
    groups = np.empty((n, 4), np.int64)
    groups[:, 0] = hi // 10 ** 4
    groups[:, 1] = hi - groups[:, 0] * 10 ** 4
    groups[:, 2] = lo // 10 ** 4
    groups[:, 3] = lo - groups[:, 2] * 10 ** 4
    last = np.take(_LAST, groups)
    kept = np.maximum(np.maximum(last[:, 0], last[:, 1] + 4),
                      np.maximum(last[:, 2] + 8, last[:, 3] + 12))

    words = np.empty((n, _WIDTH // 8), np.uint64)
    words[:, 0] = np.take(_PREFIX, lead)
    words.view(np.uint32)[:, 2:6] = np.take(_QUADS, groups)
    shift = np.flatnonzero((E >= 1) & (E <= 15))
    E += _E_SPAN
    suffix = 2 * E
    suffix[ncols - 1::ncols] += 1
    words[:, 3] = np.take(_SUFFIX, suffix)
    if shift.size:   # a '.' may go among the tail digits: shift them past it
        chars = words.view(np.uint8)
        chars[shift, 8:_EXP + 1] = chars[shift[:, None], _SHIFTS[E[shift] - _E_SPAN]]
    code = np.take(_CLASS, E) + kept
    code[np.signbit(v)] += _X_CLASSES * 17
    code[slow] = _EMPTY
    words &= np.take(_KEEP, code, axis=0)
    text = words.tobytes().translate(None, b"\0")
    if not slow.any():
        return text
    ends = np.cumsum(np.take(_LENGTHS, code))
    parts, start = [], 0
    for i in np.flatnonzero(slow):
        sep = b"\n" if i % ncols == ncols - 1 else b","
        parts += [text[start:ends[i]], b"%.17g%s" % (v[i], sep)]
        start = ends[i]
    return b"".join(parts + [text[start:]])


def write_csv(path, header, columns) -> None:
    """Write CSV rows of equal-length columns, each 1-D or a 2-D block of columns.

    Every value is '%.17g' text, byte for byte, so it reads back exactly.
    Rows are formatted about BLOCK_VALUES values at a time, one numpy pass and
    one write per block, which bounds the memory held.
    """
    ncols = np.column_stack([c[:1] for c in columns]).shape[1]
    rows = max(1, BLOCK_VALUES // ncols)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for a in range(0, len(columns[0]), rows):
            block = np.column_stack([c[a:a + rows] for c in columns])
            fh.write(_format(block.ravel(), ncols))
