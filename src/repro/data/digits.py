"""CSV rows as UTF-8 bytes: ``repr`` of float64, ``str`` of int64 and
pre-quoted texts, rendered a block of rows at a time.

The CSV renderer spends most of its time in ``float.__repr__``: the
shortest decimal string that reads back as the same double (David Gay's
``dtoa`` mode 0, the digits Ryū also finds — Adams, PLDI 2018).  This
module computes those digits for a whole array at once in 64-bit
integer arithmetic, and *certifies* each value: a value the kernel
cannot prove it renders exactly goes through ``repr()`` instead.

**Certified range.**  Finite doubles with ``1e-4 <= |v| < 1e16`` (the
range ``repr`` writes in fixed notation) whose significand is not a
power of two, plus ``±0.0``.  For such ``v = m·2^e`` and ``k =
floor(log10|v|)``, the scaled value ``X = v·10^(16-k) = m·5^s·2^(e+s)``
(``s = 16 - k``) lies in ``[10^16, 10^17)``; its integer part ``Q``
comes exactly out of a 64×64→128-bit limb product of ``m`` by ``5^s``
and a shift, and the fraction as the numerator ``R`` over ``2^z``.  The
round-trip interval is ``(X - H, X + H)`` with ``H = 5^s·2^(t-1)``
(``t = e + s``), so ``0.55 < H < 11.1`` and ``z <= 47`` in the whole
range, and every test below is an exact comparison of integers below
``2^53``.  The digits are those of the nearest multiple of ``10^J`` to
``X`` inside the interval, for the largest such ``J`` (fewest digits).

No candidate can sit on an end of the interval, where ``repr``'s
round-half-even would decide: the ends are odd multiples of
``5^s / 2^z`` with ``z >= 1``, never integers.

**Fallback.**  Everything else — other exponents, NaN, ±inf,
subnormals, ``|v| >= 2^52`` (``z = 0``: ``X`` and the ends are
integers), power-of-two significands (their interval is lopsided), an
exact tie between the two nearest candidates, a rounding that carries
into the next decade, or a ``log10`` estimate off by one — is written by
``repr()``.

**Byte layout.**  :func:`float_slots` and :func:`int_slots` (``str`` of
int64 values) return each value's text as a fixed-width byte slot, led
by the field separator, plus a pattern whose row of :data:`FLOAT_MASKS`
/ :data:`INT_MASKS` marks the bytes it keeps.  :class:`CsvRows` holds
each text column's pre-quoted texts as slots of the same form, joins a
block's slots in row order, ends each row with CRLF, drops each row's
first separator, and takes the kept bytes in one boolean compress.  No
other module knows the layout.
"""

from __future__ import annotations

import numpy as np

#: Bytes per float slot: the digits twice (integer part, fraction part).
FLOAT_SLOT = 48
#: Bytes per int64 slot.
INT_SLOT = 24
#: A text column's slots are as wide as its longest text, rounded up to
#: a multiple of this: columns of similar text lengths share one table
#: (one gather per block), and a long text widens only its own group.
TEXT_STEP = 24
#: Longest ``repr`` of a double (``-2.2250738585072014e-308``).
_REPR_MAX = 24
#: The row terminator's bytes and keep mask.
_CRLF = (np.frombuffer(b"\r\n", np.uint8), np.ones(2, bool))

_U64 = np.dtype("<u8")
_POW10 = np.array([10**j for j in range(20)], dtype=np.uint64)
# 5^s for s = 16 - k; a log10 estimate one off the range still indexes it.
_POW5 = np.array([5**s for s in range(22)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_ZEROS = np.uint64(0x3030303030303030)
_HEAD_A = np.frombuffer(b",-0....0", dtype=_U64)[0]
_HEAD_B = np.frombuffer(b".000...0", dtype=_U64)[0]
_INT_HEAD = np.frombuffer(b",-000000", dtype=_U64)[0]
_K_MIN, _K_MAX = -4, 15
_N_PATTERNS = 2 * (_K_MAX - _K_MIN + 1) * 17


#: ``_FOUR[i]``: the four ASCII digits of ``i < 10^4``, first digit in
#: the lowest byte.
_FOUR = ((np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1])) % 10
         + ord("0")).astype(np.uint8).view("<u4").ravel().astype(_U64)
_TEN_THOUSAND = np.uint64(10_000)
_HUNDRED_MILLION = np.uint64(10**8)
_TEN_QUADRILLION = np.uint64(10**16)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """Each ``x < 10^8`` as eight ASCII digits packed in a little-endian
    uint64, most significant digit first in memory."""
    hi = x // _TEN_THOUSAND
    return _FOUR[hi] | (_FOUR[x - hi * _TEN_THOUSAND] << np.uint64(32))


def _trailing_zeros(y: np.ndarray) -> np.ndarray:
    """Decimal trailing zeros of each ``0 < y < 10^16``."""
    count = np.zeros(y.shape, np.int64)
    for width in (8, 4, 2, 1):
        step = _POW10[width]
        exact = y % step == 0
        y = np.where(exact, y // step, y)
        count += exact * width
    return count


def _float_masks() -> np.ndarray:
    """Which bytes of a float slot a value's text keeps, per pattern.

    A slot is ``b",-0"``, four spare bytes, the 17 digits (the integer
    part's copy), then ``b".000"``, three spare bytes and the digits again
    (the fraction's copy).  Pattern ``(neg * 20 + k + 4) * 17 + n - 1``
    keeps the fixed-notation text of ``n`` significant digits at decimal
    exponent ``k``; pattern ``_N_PATTERNS + L`` keeps bytes ``1..L``,
    where a ``repr`` of length ``L`` was written.  Every pattern keeps
    byte 0, the field separator.
    """
    neg, k, n = (grid.reshape(-1, 1) for grid in np.meshgrid(
        [0, 1], np.arange(_K_MIN, _K_MAX + 1), np.arange(1, 18), indexing="ij"))
    whole = np.maximum(k + 1, 0)              # integer-part digits
    b = np.arange(FLOAT_SLOT)
    fixed = ((b == 0) | ((b == 1) & (neg == 1)) | ((b == 2) & (k < 0))
             | ((b >= 7) & (b < 7 + whole)) | (b == 24)
             | ((b >= 25) & (b < 24 - k))
             | ((b >= 31 + whole) & (b < 31 + np.maximum(n, k + 2))))
    reprs = b <= np.arange(_REPR_MAX + 1)[:, None]
    return np.concatenate([fixed, reprs])


def _int_masks() -> np.ndarray:
    """Pattern ``neg * 20 + n - 1`` keeps the separator (byte 0), a sign
    (byte 1, when ``neg``) and the last ``n`` of the slot's 20 digits
    (bytes 4..23)."""
    neg, n = (grid.reshape(-1, 1) for grid in np.meshgrid(
        [0, 1], np.arange(1, 21), indexing="ij"))
    b = np.arange(INT_SLOT)
    return (b == 0) | ((b == 1) & (neg == 1)) | (b >= 24 - n)


#: Kept bytes of a float slot, by the pattern :func:`float_slots` returns.
FLOAT_MASKS = _float_masks()
#: Kept bytes of an int slot, by the pattern :func:`int_slots` returns.
INT_MASKS = _int_masks()


def _shortest(v: np.ndarray):
    """Certified shortest digits of ``v`` (finite, in the certified range).

    Returns ``(ok, c, k, n)``: whether each value is certified, its
    17-digit candidate ``c`` (the digits, zero-padded), decimal exponent
    ``k`` and significant-digit count ``n``.
    """
    bits = v.view(np.int64)
    k = np.floor(np.log10(np.abs(v))).astype(np.int64)
    five = _POW5[16 - k]
    m = (bits & ((1 << 52) - 1)).view(np.uint64) | np.uint64(1 << 52)
    # X = W / 2^z, W = 2·m·5^s; a value needs 1 <= z <= 47 (z >= 1 only
    # drops |v| >= 2^52, whose X is an integer).
    z = (1060 + k - ((bits >> 52) & 0x7FF)).view(np.uint64)
    ok = z - np.uint64(1) < np.uint64(47)
    z &= np.uint64(63)
    # W as (hi, lo) limbs, from 32-bit halves (m < 2^53, 5^s < 2^49).
    ml, mh = m & _LOW32, m >> np.uint64(32)
    fl, fh = five & _LOW32, five >> np.uint64(32)
    low = ml * fl
    mid = ml * fh + mh * fl
    lo = low + (mid << np.uint64(32))
    hi = mh * fh + (mid >> np.uint64(32)) + (lo < low)
    hi = (hi << np.uint64(1)) | (lo >> np.uint64(63))
    lo <<= np.uint64(1)
    one = np.uint64(1) << z
    q = (hi << ((np.uint64(64) - z) & np.uint64(63))) | (lo >> z)
    rem = lo & (one - np.uint64(1))
    ok &= (hi < one) & (q - _POW10[16] < _POW10[17] - _POW10[16])
    # Largest J with a multiple of 10^J strictly inside (X - H, X + H),
    # H = 5^s / 2^z: L = Q - (Q mod 10^J) is inside iff A·2^z + R < 5^s,
    # U = L + 10^J iff (10^J - A)·2^z < 5^s + R.  Feasible J form [0, J]
    # (J = 0 always: the interval is wider than 1).  Both tests need
    # A < 12 or 10^J - A < 12, so a capped A keeps them below 2^52.
    cap = np.uint64(16)
    above = five + rem
    a = q % np.uint64(10)
    j = (a * one + rem < five) | ((np.uint64(10) - a) * one < above)
    a *= j                                                # Q mod 10^J
    j = j.astype(np.int64)
    a100 = q % np.uint64(100)
    deep = np.flatnonzero((np.minimum(a100, cap) * one + rem < five)
                          | (np.minimum(np.uint64(100) - a100, cap) * one < above))
    if deep.size:
        # J >= 2.  A candidate of 10^J past 10^2 is L or U of 10^2 with
        # J - 2 more zero digits: L_J stays inside iff L_2 is inside and
        # Q // 100 ends in J - 2 zeros, U_J iff U_2 is and Q // 100 + 1 does.
        q_d, one_d, a100 = q[deep], one[deep], a100[deep]
        low = np.minimum(a100, cap) * one_d + rem[deep] < five[deep]
        up = np.minimum(np.uint64(100) - a100, cap) * one_d < above[deep]
        y = q_d // np.uint64(100)
        zeros = _trailing_zeros(np.concatenate([y, y + np.uint64(1)]))
        j[deep] = 2 + np.maximum(low * zeros[: deep.size], up * zeros[deep.size:])
        a[deep] = q_d % _POW10[j[deep]]
    p = _POW10[j]
    a_gap = np.minimum(a, cap) * one + rem                # (X - L)·2^z
    b_gap = np.minimum(p - a, cap) * one                  # (U - X)·2^z + R
    low_in = a_gap < five
    up_in = b_gap < above
    b_gap -= rem
    up_wins = up_in & ~(low_in & (a_gap <= b_gap))
    ok &= ~(low_in & up_in & (a_gap == b_gap))
    c = q - a + p * up_wins
    ok &= c < _POW10[17]
    return ok, c, k, 17 - j


def float_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr`` of each float64 of ``values`` (1-D), as slots and patterns.

    Returns ``(words, pattern)``: ``words`` is ``(N, 6)`` little-endian
    uint64 whose bytes are value ``i``'s :data:`FLOAT_SLOT`-byte slot,
    and ``FLOAT_MASKS[pattern[i]]`` the slot bytes its text keeps.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    size = v.size
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16) & (v.view(np.uint64) << np.uint64(12) != 0)
    if fast.all():
        ok, c, k, n = _shortest(v)
    else:
        ok = np.zeros(size, bool)
        c = np.zeros(size, np.uint64)
        k = np.zeros(size, np.int64)
        n = np.ones(size, np.int64)
        where = np.flatnonzero(fast)
        if where.size:
            ok[where], c[where], k[where], n[where] = _shortest(v[where])
        # ±0.0 is the digit 0 at exponent 0: "0.0".
        ok |= a == 0.0
    words = np.empty((size, 6), _U64)
    top = c // _TEN_QUADRILLION
    rest = c - top * _TEN_QUADRILLION
    mid = rest // _HUNDRED_MILLION
    words[:, 1] = words[:, 4] = _eight_digits(mid)
    words[:, 2] = words[:, 5] = _eight_digits(rest - mid * _HUNDRED_MILLION)
    top <<= np.uint64(56)
    words[:, 0] = top + _HEAD_A
    words[:, 3] = top + _HEAD_B
    pattern = ((v.view(np.int64) < 0) * 20 + k - _K_MIN) * 17 + n - 1
    if not ok.all():
        slots = words.view(np.uint8)
        for i in np.flatnonzero(~ok).tolist():
            text = repr(float(v[i])).encode("ascii")
            slots[i, 1: 1 + len(text)] = np.frombuffer(text, np.uint8)
            pattern[i] = _N_PATTERNS + len(text)
    return words, pattern


def int_slots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``str`` of each int64 of ``values`` (1-D), as slots and patterns.

    Returns ``(words, pattern)``: ``words`` ``(N, 3)`` holds value ``i``'s
    :data:`INT_SLOT`-byte slot (``b",-"``, two spare bytes, 20 digits) and
    ``INT_MASKS[pattern[i]]`` the bytes its text keeps.
    """
    x = np.ascontiguousarray(values, dtype=np.int64).reshape(-1)
    neg = x < 0
    u = np.abs(x).view(np.uint64)   # abs(-2^63) wraps to -2^63: 2^63 unsigned
    digits = np.searchsorted(_POW10[1:], u, side="right") + 1
    words = np.empty((x.size, 3), _U64)
    words[:, 0] = _INT_HEAD
    if x.size and digits.max() <= 8:
        words[:, 1] = _ZEROS
        words[:, 2] = _eight_digits(u)
    else:
        top = u // _TEN_QUADRILLION
        rest = u - top * _TEN_QUADRILLION
        mid = rest // _HUNDRED_MILLION
        words[:, 0] += _eight_digits(top) - _ZEROS
        words[:, 1] = _eight_digits(mid)
        words[:, 2] = _eight_digits(rest - mid * _HUNDRED_MILLION)
    return words, neg * 20 + digits - 1


def _kernel_slots(kernel, masks: np.ndarray, values: np.ndarray):
    """``kernel``'s slots of a ``(rows, columns)`` matrix, and their keep
    masks, each ``(rows, columns, slot bytes)``."""
    words, pattern = kernel(values)
    shape = (len(values), -1, masks.shape[1])
    return words.view(np.uint8).reshape(shape), masks[pattern].reshape(shape)


class CsvRows:
    """One row format's CSV bytes, rendered a block of rows at a time.

    ``columns`` lists the row's columns in order, each ``float`` (written
    as ``repr`` writes it), ``int`` (as ``str``) or the column's texts,
    one per code, already CSV-quoted.  :meth:`render` takes a block's
    float, int and code columns, each kind's in row order.
    """

    def __init__(self, columns: list):
        texts = [[b"," + text.encode("utf-8") for text in column]
                 for column in columns if column is not float and column is not int]
        widths = [-(-max(map(len, column)) // TEXT_STEP) * TEXT_STEP
                  for column in texts]
        steps = sorted(set(widths))
        # Slot groups: 0 the floats, 1 the ints, 2 + i the text columns
        # of width steps[i], whose texts share one table.
        self._texts = []
        for width in steps:
            members = [i for i, w in enumerate(widths) if w == width]
            table = [text for i in members for text in texts[i]]
            cells = np.zeros((len(table), width), np.uint8)
            keep = np.zeros((len(table), width), bool)
            for row, text in enumerate(table):
                cells[row, : len(text)] = np.frombuffer(text, np.uint8)
                keep[row, : len(text)] = True
            sizes = np.array([len(texts[i]) for i in members])
            self._texts.append((np.array(members), np.cumsum(sizes) - sizes,
                                cells, keep))
        # Runs of one group's columns, as [group, first, last + 1] positions
        # in that group: a block's bytes are the groups' slots cut at these
        # runs and joined in row order.
        groups = iter(2 + steps.index(w) for w in widths)
        self._runs, seen = [], [0] * (2 + len(steps))
        for column in columns:
            g = 0 if column is float else 1 if column is int else next(groups)
            if self._runs and self._runs[-1][0] == g:
                self._runs[-1][2] += 1
            else:
                self._runs.append([g, seen[g], seen[g] + 1])
            seen[g] += 1

    def render(self, floats: np.ndarray, ints: np.ndarray,
               codes: np.ndarray) -> bytes:
        """The UTF-8 CSV rows of one block: ``floats`` (float64), ``ints``
        (int64) and ``codes`` (indices into each text column's texts)."""
        rows = len(floats)
        slots = [_kernel_slots(float_slots, FLOAT_MASKS, floats)
                 if floats.shape[1] else None,
                 _kernel_slots(int_slots, INT_MASKS, ints)
                 if ints.shape[1] else None]
        for members, offsets, cells, keep in self._texts:
            index = codes[:, members] + offsets
            slots.append((cells[index], keep[index]))
        pieces = ([], [])
        for g, start, stop in self._runs:
            for side, part in zip(pieces, slots[g]):
                side.append(part[:, start:stop].reshape(rows, -1))
        for side, end in zip(pieces, _CRLF):
            side.append(np.broadcast_to(end, (rows, 2)))
        cells, keep = (np.concatenate(side, axis=1) for side in pieces)
        keep[:, 0] = False              # no separator before a row's first field
        return cells[keep].tobytes()
