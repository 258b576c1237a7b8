"""CSV text of float64 arrays, byte-identical to Python's ``'%.16e' % x``.

``format_e16`` renders a whole array at once.  Each finite nonzero |x| is
scaled by a double-double 10^(16-E) (Dekker's exact product), which gives
y = |x|·10^(16-E) as yh + yl with an absolute error near 1e-14.  E is fixed
by comparing y with 10^16 and 10^17, and the 17 digits are round(y): yh is
an integer, and the fraction of yl decides the rounding.  Where that
fraction lies within ``_TIE_BAND`` of ½ the computed y cannot decide, so
the element, like a non-finite one, is formatted by Python's ``%`` alone
(Loitsch's Grisu3 uses the same fast path with an exact fallback).  Exact
ties such as 2^-25 are in that set.

A field is a NUL-padded row of ``CELL`` bytes; ``csv_rows`` lays fields
out as CSV rows and drops the padding in one ``bytes.translate`` pass.
Callers format about 8,192 values a call, where numpy's fixed per-call
costs no longer dominate (``scenario._CHUNK`` lists the peak memory of each
size tried).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["CELL", "format_e16", "string_cells", "csv_rows"]

# A field is 7 words of 4 bytes: [sign or NUL, lead digit, ".", NUL], four
# words of 4 digits, ["e", exponent sign, NUL, NUL], [NUL, hundreds digit or
# NUL, tens, units]; the tables are built as bytes, so their uint32 views
# keep the byte order on any machine.
CELL = 28
_TIE_BAND = 1e-7
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles


def _words(table: np.ndarray) -> np.ndarray:
    """The rows of a (n, 4) table of bytes as n uint32 words."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32).ravel()


_ASCII = np.frombuffer(b"0123456789", dtype=np.uint8)
_QUADS = _words(np.stack(np.meshgrid(*[_ASCII] * 4, indexing="ij"), axis=-1).reshape(-1, 4))
_LEAD = _words([[sign, digit, ord("."), 0] for sign in (0, ord("-")) for digit in _ASCII])
_EXP_SIGN = _words([[ord("e"), ord("+"), 0, 0], [ord("e"), ord("-"), 0, 0]])
_EXP_DIGITS = _QUADS[:400].copy()
_EXP_DIGITS.view(np.uint8).reshape(400, 4)[:, 0] = 0
_EXP_DIGITS.view(np.uint8).reshape(400, 4)[:100, 1] = 0


@lru_cache(maxsize=None)
def _power_of_ten(k: int) -> tuple:
    """(hi, lo, s) with 10^k = (hi + lo)·2^s to double-double precision: hi
    is 10^k/2^s in [1, 2) correctly rounded, lo the correctly rounded
    remainder (Python's int / int rounds correctly)."""
    if k >= 0:
        s = (10 ** k).bit_length() - 1
        num, den = 10 ** k, 1 << s
    else:
        s = -(10 ** -k).bit_length()
        num, den = 1 << -s, 10 ** -k
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q), s


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(m, ex, e10):
    """y = m·2^ex·10^(16 - e10) as (yh, yl), yh = fl(y) and yl ≈ y - yh."""
    k = 16 - e10
    kmin = int(k.min())
    k -= kmin
    table = np.zeros((3, int(k.max()) + 1))
    present = np.flatnonzero(np.bincount(k))
    table[:, present] = np.transpose([_power_of_ten(kmin + j) for j in present.tolist()])
    # int32 shifts: numpy's ldexp loop for int64 exponents is about 9x slower
    hi, lo, s = table[0, k], table[1, k], table[2, k].astype(np.int32)
    p = m * hi
    # Dekker: m·hi = p + err exactly (m and hi both lie in [0.5, 2))
    mh, ml = _split(m)
    hh, hl = _split(hi)
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    shift = ex + s
    return np.ldexp(p, shift), np.ldexp(err + m * lo, shift)


def _step(yh, yl):
    """-1 where yh + yl < 10^16, +1 where it is at least 10^17, else 0."""
    return ((yh > 1e17) | ((yh == 1e17) & (yl >= 0))).astype(np.int64) - (
        (yh < 1e16) | ((yh == 1e16) & (yl < 0)))


def _decimal(flat):
    """(digits, exponent, fallback) of a 1-d float64 array: |x| is
    digits·10^(exponent-16), digits a 17-digit integer (0 for zeros), where
    ``fallback`` is false; where it is true the element is not finite or
    its rounding is too close to call."""
    a = np.abs(flat)
    fallback = ~np.isfinite(a)
    regular = ~fallback & (a != 0)
    a = np.where(regular, a, 1.0)  # 1.0 gives exponent 0, as zeros have
    m, ex = np.frexp(a)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    yh, yl = _scaled(m, ex, e10)
    # log10 may be one off next to a power of ten: scale those again
    step = _step(yh, yl)
    wrong = np.flatnonzero(step)
    if wrong.size:
        e10[wrong] += step[wrong]
        yh[wrong], yl[wrong] = _scaled(m[wrong], ex[wrong], e10[wrong])
        fallback[wrong] |= _step(yh[wrong], yl[wrong]) != 0
    floor = np.floor(yl)
    frac = yl - floor
    fallback |= np.abs(frac - 0.5) < _TIE_BAND
    digits = yh.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e10 += carry
    return np.where(regular, digits, 0), e10, fallback


def format_e16(values) -> np.ndarray:
    """``'%.16e' % v`` of every float64 ``v`` of ``values``, as NUL-padded
    ASCII fields: uint8 of shape ``values.shape + (CELL,)``."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    digits, e10, fallback = _decimal(flat)
    lead = digits // 10 ** 16
    high = digits // 10 ** 8 - lead * 10 ** 8
    halves = np.stack([high, digits - digits // 10 ** 8 * 10 ** 8], axis=1).astype(np.int32)
    quads = halves // 10 ** 4
    cells = np.empty((flat.size, 7), dtype=np.uint32)
    cells[:, 0] = _LEAD[lead + 10 * np.signbit(flat)]
    cells[:, 1:4:2] = _QUADS[quads]
    cells[:, 2:5:2] = _QUADS[halves - quads * 10 ** 4]
    cells[:, 5] = _EXP_SIGN[(e10 < 0).astype(np.intp)]
    cells[:, 6] = _EXP_DIGITS[np.abs(e10)]
    cells = cells.view(np.uint8)
    for i in np.flatnonzero(fallback):
        field = ("%.16e" % flat[i]).encode("ascii")
        cells[i] = 0
        cells[i, :len(field)] = np.frombuffer(field, dtype=np.uint8)
    return cells.reshape(values.shape + (CELL,))


def string_cells(strings) -> np.ndarray:
    """The ASCII strings as NUL-padded fields: uint8 of shape (n, width)."""
    fields = np.asarray(strings, dtype=np.bytes_)
    return fields.view(np.uint8).reshape(len(fields), fields.itemsize)


def csv_rows(shape: tuple, fields: list) -> str:
    """The CSV rows of ``fields``, each a uint8 array broadcastable to
    ``shape + (width,)``: one row per index of ``shape``, in C order, its
    fields joined by commas, with the NUL padding dropped."""
    width = sum(f.shape[-1] + 1 for f in fields)
    buf = np.zeros(tuple(shape) + (width,), dtype=np.uint8)
    start = 0
    for field in fields:
        stop = start + field.shape[-1]
        buf[..., start:stop] = field
        buf[..., stop] = ord(",")
        start = stop + 1
    buf[..., -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")
