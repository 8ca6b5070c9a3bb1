"""CSV text of numeric tables, byte for byte the lines ``",".join(map(repr, row)) + "\\n"``.

A float is written as Python's ``repr`` writes it: the shortest decimal that
reads back to the same double, the nearer one of two such decimals and the
even one of a tie; fixed notation for a decimal point position ``-4 < decpt
<= 16`` (``0.0001``, ``1000000000000000.0``) and exponent notation outside
it (``1e-05``, ``1e+16``, ``5e-324``); ``inf``, ``-inf`` and ``nan``.  An
integer column is written as its digits, as ``repr`` writes a Python ``int``;
signed and unsigned parts are formatted apart, so a ``uint64`` above 2^63
keeps its digits.

The digits are those of Ryū (Adams, PLDI 2018), run on whole arrays in
``uint64``.  Ryū brackets the double by the decimal images of its rounding
interval, scaled by a 126-bit power of five from a table, and drops decimal
digits while the bracket still holds two candidates.  The 55 x 126-bit
product is summed once from 32-bit limbs, and the bracket's ends are that
product plus or minus the power or twice it (Ryū's ``mulShiftAll64``).  No
per-value Python code and no bignum runs, so a subnormal costs what a value
near 1 costs (CPython's ``repr`` falls back to bignums below about 1e-50).

Text is assembled by one gather: each value has a layout key (sign, digit
count, and the decimal point position or the exponent's sign and width),
the key's row of a table names the byte plane each character comes from
(a digit, an exponent digit, a constant, or the separator), and the bytes
past the value's length are dropped.  The tables are built on first use.

A row's trailing run of +0.0 fields (in a truncated run, the cohorts past the
mass front) costs no per-value work.  A row block is formatted only up to
the last column of its last float part that is not +0.0 in some row (its
first column at least), and each row's ``\\n`` is then replaced by one
constant, ``,0.0,...,0.0\\n``, for the columns past that.  The test is on
bit patterns, not on ``== 0``: ``-0.0`` prints ``-0.0``, so it is never
part of a run, and neither is ``nan``.

:func:`chunks` formats a table in row blocks of about :data:`BLOCK_VALUES`
values, so a writer never holds the text, or Python numbers, of the whole
table.
"""
from __future__ import annotations

from functools import cache
from itertools import groupby
from typing import Iterator, Tuple

import numpy as np

__all__ = ["BLOCK_VALUES", "lines", "chunks"]

BLOCK_VALUES = 2 ** 14
"""Values per row block of :func:`chunks` (at least one row)."""

_U64 = np.uint64
_POW10 = 10 ** np.arange(20, dtype=_U64)
_POW5 = 5 ** np.arange(21, dtype=_U64)
_MASK32 = _U64(0xFFFFFFFF)

# Ryū's multiplier tables: floor(2^(bits(5^q) + 124) / 5^q) + 1 for the doubles
# with e2 >= 0 (row q), then the leading 125 bits of 5^i for e2 < 0 (row 342 + i).
_INV_ROWS = 342
_POW_ROWS = 326

# Byte planes: the digits counted from the right, the exponent's digits, the
# separator, then one plane per constant character.
_EXP = 20
_SEP = 23
_CONST = 24
_CHARS = b"-.0e+infa"
_MINUS, _DOT, _ZERO, _E, _PLUS, _I, _N, _F, _A = range(_CONST, _CONST + len(_CHARS))
_PLANES = _CONST + len(_CHARS)

# Layout forms: 0..19 fixed notation with decpt = form - 3; 20..23 exponent
# notation (+2 for a positive exponent, +1 for three exponent digits);
# then integer digits, inf and nan.
_FIXED = 20
_INT, _INF, _NAN = 24, 25, 26
_FORMS = 27
_DIGITS = 21  # digit counts 0..20 index the key; a uint64 has at most 20
_WIDTH = 25  # the longest layout, "-1.2345678901234567e-308", and a separator


@cache
def _exponent_tables() -> Tuple[np.ndarray, ...]:
    """Ryū's step 3 per biased exponent: ``q``, ``e10``, the shift ``s`` and the multiplier's low and high 64 bits."""
    values = []
    p = 1
    for _ in range(_INV_ROWS):
        values.append((1 << (p.bit_length() + 124)) // p + 1)
        p *= 5
    p = 1
    for _ in range(_POW_ROWS):
        shift = p.bit_length() - 125
        values.append(p >> shift if shift >= 0 else p << -shift)
        p *= 5
    words = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u8").reshape(-1, 2)
    e2 = np.maximum(np.arange(2048), 1) - 1077
    pos = e2 >= 0
    q = np.where(pos, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = -e2 - q
    s = np.where(pos, q - e2 + _pow5_bits(q) + 124, q - _pow5_bits(i) + 125) - 64
    rows = np.where(pos, q, _INV_ROWS + i)
    return q, np.where(pos, q, q + e2), s.astype(_U64), words[rows, 0], words[rows, 1]


@cache
def _layouts() -> Tuple[np.ndarray, np.ndarray]:
    """Per layout key ``(form * 2 + neg) * 21 + k``: the plane of each byte, and which bytes are kept."""
    k, j = np.arange(_DIGITS)[:, None], np.arange(_WIDTH)
    source = np.full((_FORMS, 2, _DIGITS, _WIDTH), _SEP, dtype=np.int32)
    length = np.full((_FORMS, _DIGITS, 1), 3)  # inf and nan
    # Fixed: the integer digits (or 0), the point, the fraction digits (or 0); place counts digits from the left.
    decpt = np.arange(_FIXED)[:, None, None] - 3
    dot = np.maximum(decpt, 1)
    place = np.where(j < dot, j + np.minimum(decpt, 1) - 1, decpt + j - dot - 1)
    source[:_FIXED, 0] = np.where(j == dot, _DOT, np.where((place >= 0) & (place < k), k - 1 - place, _ZERO))
    length[:_FIXED] = dot + 1 + np.maximum(k - decpt, 1)
    # Exponent: a digit, the point and the other digits if any, e, the sign, two or three exponent digits.
    form = np.arange(_FIXED, _INT)[:, None, None]
    mantissa, wide = k + (k > 1), 2 + form % 2
    sign = np.where(form >= _FIXED + 2, _PLUS, _MINUS)
    exponent = np.where(j == mantissa, _E, np.where(j == mantissa + 1, sign, _EXP + wide + mantissa + 1 - j))
    source[_FIXED:_INT, 0] = np.where(j < mantissa, np.where(j == 0, k - 1, np.where(j == 1, _DOT, k - j)), exponent)
    length[_FIXED:_INT] = mantissa + 2 + wide
    source[_INT, 0], length[_INT] = k - 1 - j, k
    source[_INF, 0, :, :3], source[_NAN, 0, :, :3] = [_I, _N, _F], [_N, _A, _N]
    source[:, 0] = np.where(j < length, source[:, 0], _SEP)
    keep = np.zeros(source.shape, dtype=bool)
    keep[:, 0] = j <= length
    source[:, 1, :, 0], source[:, 1, :, 1:] = _MINUS, source[:, 0, :, :-1]  # a sign before the layout
    keep[:, 1, :, 0], keep[:, 1, :, 1:] = True, keep[:, 0, :, :-1]
    source[_NAN, 1], keep[_NAN, 1] = source[_NAN, 0], keep[_NAN, 0]  # nan has no sign
    return source.reshape(-1, _WIDTH), keep.reshape(-1, _WIDTH)


def _mul_shift_all(mv, mul_lo, mul_hi, s, mm_shift) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``floor(m * mul / 2^(64 + s)) mod 2^64`` for ``m = mv, mv + 2, mv - 1 - mm_shift``: ``vr, vp, vm``.

    ``mv < 2^55``, ``mul = mul_hi * 2^64 + mul_lo < 2^126`` and ``0 < s < 64``.
    The product is summed from 32-bit limbs.  As in Ryū's ``mulShiftAll64``,
    ``mv * mul`` is formed once, as three 64-bit words, and ``vp`` and ``vm``
    add ``2 mul`` to it or subtract ``mul`` or ``2 mul``, with carries.
    """
    b0, b1 = mv & _MASK32, mv >> _U64(32)
    l0, l1, l2, l3 = mul_lo & _MASK32, mul_lo >> _U64(32), mul_hi & _MASK32, mul_hi >> _U64(32)
    c = b0 * l0
    lo = c & _MASK32
    c >>= _U64(32)
    x, y = b0 * l1, b1 * l0
    c += (x & _MASK32) + (y & _MASK32)
    lo |= c << _U64(32)
    c = (c >> _U64(32)) + (x >> _U64(32)) + (y >> _U64(32))
    x, y = b0 * l2, b1 * l1
    c += (x & _MASK32) + (y & _MASK32)
    mid = c & _MASK32
    c = (c >> _U64(32)) + (x >> _U64(32)) + (y >> _U64(32))
    x, y = b0 * l3, b1 * l2
    c += (x & _MASK32) + (y & _MASK32)
    mid |= c << _U64(32)
    c = (c >> _U64(32)) + (x >> _U64(32)) + (y >> _U64(32))
    x = b1 * l3
    c += x & _MASK32
    hi = (c & _MASK32) | (((c >> _U64(32)) + (x >> _U64(32))) << _U64(32))

    up = _U64(64) - s
    two_lo, two_hi = mul_lo << _U64(1), (mul_hi << _U64(1)) | (mul_lo >> _U64(63))
    p_lo = lo + two_lo
    p_mid = mid + two_hi + (p_lo < lo)
    vp = (p_mid >> s) | ((hi + (p_mid < mid)) << up)
    m_lo = lo - np.where(mm_shift, two_lo, mul_lo)
    m_mid = mid - (np.where(mm_shift, two_hi, mul_hi) + (m_lo > lo))
    vm = (m_mid >> s) | ((hi - (m_mid > mid)) << up)
    return (mid >> s) | (hi << up), vp, vm


def _pow5_bits(e: np.ndarray) -> np.ndarray:
    """The bit length of ``5**e``, for ``0 <= e <= 3528``."""
    return ((e * 1217359) >> 19) + 1


def _shortest(bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Ryū's ``d2d``: ``(digits, exponent)`` with ``digits * 10**exponent`` the shortest decimal of each double.

    ``bits`` are the bit patterns of finite, positive doubles, ``m2 * 2**(e2 + 2)``.

    Four of Ryū's trailing-zero steps are left out, since no double takes
    another path with them:

    - ``vr_tz`` for ``e2 >= 0``.  It serves only the tie rule, and a tie
      ``(10 out + 5) * 10**(D - 1)`` is divisible by ``2**(D - 1)`` and no
      higher power, while the double is a multiple of ``2**(e2 + 2)`` within
      ``2**(e2 + 1)`` of the multiple of ``10**D`` the digit loop found;
      then ``10**D <= 2**(D - 1)``, which no ``D >= 1`` meets.
    - The ``e2 >= 0`` tests at ``q = 21`` (Ryū's ``q <= 21``).  Only the 57
      doubles with ``e2`` in 74..76 and one of 19 mantissas pass one, and
      each prints the same without them; ``tests/test_csvtext.py``
      enumerates them.
    - The small-``q`` ``vm_tz`` (Ryū's ``mmShift == 1``).  There ``vm`` is
      ``20 m2 - 10``, ``100 m2 - 50``, ``50 m2 - 25`` or ``250 m2 - 125``
      (``e2`` = -1 .. -4; no multiple of 10 at a power of two), and the
      digit loop drops at least one digit, two at ``e2 = -2``.  So ``vm``
      ends in the dropped zeros only at ``e2 = -1`` with one digit dropped,
      where ``vm / 10 = 2 m2 - 1`` is odd and below ``out = 2 m2``.
    - The small-``q`` ``vp -= 1`` of an odd mantissa.  There ``vp - vm`` is
      20, 100, 50 or 250 (``e2`` = -1 .. -4) and ``vp`` is ``20 m2 + 10``,
      ``100 m2 + 50`` or odd, never a multiple of 100, so ``vp`` and
      ``vp - 1`` leave the digit loop at the same count.
    """
    mant = bits & _U64((1 << 52) - 1)
    biased = (bits >> _U64(52)).astype(np.intp)
    m2 = mant | (biased > 0).astype(_U64) << _U64(52)
    even = (m2 & _U64(1)) == 0
    mm_shift = (mant != 0) | (biased <= 1)
    mv = m2 << _U64(2)

    # Step 3: the interval's ends and midpoint as decimals, digits * 10^e10.
    pos = biased >= 1077  # e2 >= 0
    q, e10, s, mul_lo, mul_hi = (np.take(table, biased) for table in _exponent_tables())
    vr, vp, vm = _mul_shift_all(mv, mul_lo, mul_hi, s, mm_shift)

    # Which of the exact products end in q decimal zeros (the rounding interval's ends and ties).
    vr_tz = np.zeros(len(bits), dtype=bool)
    vm_tz = np.zeros(len(bits), dtype=bool)
    big = np.flatnonzero(pos & (q <= 20))
    if big.size:
        mvb, p5 = mv[big], _POW5[q[big]]
        five = mvb % _U64(5) == 0
        vm_tz[big] = ~five & even[big] & ((mvb - _U64(1) - mm_shift[big].astype(_U64)) % p5 == 0)
        vp[big] -= (~five & ~even[big] & ((mvb + _U64(2)) % p5 == 0)).astype(_U64)
    vr_tz |= ~pos & (q <= 1)
    mid = np.flatnonzero(~pos & (q > 1) & (q < 63))
    vr_tz[mid] = (mv[mid] & ((_U64(1) << q[mid].astype(_U64)) - _U64(1))) == 0

    # Step 4: drop digits while the interval holds two candidates; then, where
    # the low end is exact, drop its trailing zeros too.
    removed = np.zeros(len(bits), dtype=np.int64)
    qp, qm = vp // _U64(10), vm // _U64(10)
    go = qp > qm
    while go.any():  # on whole arrays: once qp == qm it stays so, and go stays False
        removed += go
        qp, qm = qp // _U64(10), qm // _U64(10)
        go = qp > qm
    live = np.flatnonzero(vm_tz)
    if live.size:
        vm_tz[live] = vm[live] % _POW10[removed[live]] == 0
        live = live[vm_tz[live]]
        qm = vm[live] // _POW10[removed[live]]
        while live.size:
            go = qm % _U64(10) == 0
            live, qm = live[go], qm[go] // _U64(10)
            removed[live] += 1

    # The last dropped digit rounds: 5 or more rounds up, except that an exact ...5 (every
    # digit dropped before it zero) is a tie and goes to the even neighbour.
    below = _POW10[np.maximum(removed - 1, 0)]
    upto = vr // below
    out = upto // np.where(removed > 0, _U64(10), _U64(1))
    last = np.where(removed > 0, upto - out * _U64(10), _U64(0))
    live = np.flatnonzero(vr_tz)
    vr_tz[live] = vr[live] % below[live] == 0
    last[vr_tz & (last == 5) & ((out & _U64(1)) == 0)] = 4
    low = vm // _POW10[removed]  # the low end is a candidate only if it is exact (vm_tz, even mantissas only)
    out += (((out == low) & ~vm_tz) | (last >= 5)).astype(_U64)
    return out, e10 + removed


def _float_fields(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits, printed exponent and layout key of each float64 in ``x``."""
    digits = np.zeros(len(x), dtype=_U64)
    exp10 = np.zeros(len(x), dtype=np.int64)
    nan, inf = np.isnan(x), np.isinf(x)
    nonzero = np.flatnonzero((x != 0) & ~nan & ~inf)
    if nonzero.size:
        digits[nonzero], exp10[nonzero] = _shortest(np.abs(x[nonzero]).view(_U64))
    k = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    exponent = exp10 + k - 1  # the decimal point sits after decpt = exponent + 1 digits
    fixed = (exponent >= -4) & (exponent < 16)
    form = np.where(fixed, exponent + 4, _FIXED + 2 * (exponent >= 0) + (np.abs(exponent) >= 100))
    form[inf] = _INF
    form[nan] = _NAN
    neg = np.signbit(x)
    return digits, np.abs(exponent), (form * 2 + neg) * _DIGITS + k


def _int_fields(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits and layout key of each integer in ``v``, all signed or all unsigned; the exponent is unused."""
    # |-2^63| wraps to -2^63, whose uint64 is 2^63
    digits = v.astype(_U64) if v.dtype.kind == "u" else np.abs(v.astype(np.int64)).astype(_U64)
    k = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    return digits, np.zeros(len(v), dtype=np.int64), (_INT * 2 + (v < 0)) * _DIGITS + k


def _columns(part) -> np.ndarray:
    part = np.asarray(part)
    return part[:, None] if part.ndim == 1 else part


def lines(*parts) -> bytes:
    """The CSV lines of the rows of ``parts`` side by side, as ``",".join(map(repr, row)) + "\\n"`` writes them.

    Each part is a 1-D column or a 2-D array with the common row count; an
    integer part is written as integers, any other part as float64.  Adjacent
    parts are formatted together when they are of one kind (signed, unsigned
    or float), since stacking a signed with an unsigned 64-bit part gives
    float64.
    """
    parts = [_columns(p) for p in parts]
    rows = len(parts[0])
    if rows == 0:
        return b""
    zeros = 0  # the +0.0 fields that end every row
    if parts[-1].dtype.kind not in "iu":
        last = parts[-1].astype(np.float64, copy=False)
        used = np.flatnonzero((last.view(_U64) != 0).any(axis=0))  # bits, so -0.0 and nan count
        parts[-1] = last[:, :used[-1] + 1 if used.size else 1]  # one column at least, to end the row
        zeros = last.shape[1] - parts[-1].shape[1]
    fields = []
    for kind, group in groupby(parts, key=lambda p: p.dtype.kind if p.dtype.kind in "iu" else "f"):
        block = np.hstack(list(group)).ravel()
        fields.append(_float_fields(block.astype(np.float64, copy=False)) if kind == "f" else _int_fields(block))
    digits, exponent, key = (np.hstack([f[j].reshape(rows, -1) for f in fields]).ravel() for j in range(3))
    n = len(key)

    planes = np.empty((_PLANES, n), dtype=np.uint8)
    for j in range(int(np.max(key % _DIGITS))):
        if j % 8 == 0:  # eight digits at a time in uint32
            low, digits = digits, digits // _U64(10 ** 8)
            rest = (low - digits * _U64(10 ** 8)).astype(np.uint32)
        high = rest // np.uint32(10)
        rest -= high * np.uint32(10)
        planes[j], rest = rest, high
    exponent = exponent.astype(np.uint16)
    for j in range(_EXP, _EXP + 3):
        high = exponent // np.uint16(10)
        planes[j], exponent = exponent - high * np.uint16(10), high
    planes[:_EXP + 3] += np.uint8(48)  # digits to ASCII (planes past the block's digit count are never read)
    separators = planes[_SEP].reshape(rows, -1)
    separators[:] = ord(",")
    separators[:, -1] = ord("\n")
    planes[_CONST:] = np.frombuffer(_CHARS, dtype=np.uint8)[:, None]

    source, keep = _layouts()
    index = np.take(source, key, axis=0).astype(np.int32 if _PLANES * n < 2 ** 31 else np.int64, copy=False)
    index *= n
    index += np.arange(n, dtype=index.dtype)[:, None]
    text = planes.ravel().take(index[np.take(keep, key, axis=0)]).tobytes()
    if not zeros:
        return text
    return text.replace(b"\n", b",0.0" * zeros + b"\n")


def chunks(*parts) -> Iterator[bytes]:
    """:func:`lines` of ``parts``, one row block of about :data:`BLOCK_VALUES` values at a time."""
    parts = [_columns(p) for p in parts]
    step = max(1, BLOCK_VALUES // sum(p.shape[1] for p in parts))
    for start in range(0, len(parts[0]), step):
        yield lines(*(p[start:start + step] for p in parts))
