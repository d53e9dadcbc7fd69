"""Byte-exact ``'%.17g' % x`` text of float64 arrays from whole-array
numpy operations.

For each value, ``g17_columns`` forms the correctly rounded 17-digit
decimal ``D * 10^(X - 16)`` of ``|x|``. The exponent ``X`` comes from
``log10``, and ``|x| * 10^(16 - X)`` is formed as an unevaluated sum of
doubles: Dekker's exact product of ``|x|`` with the high part of a
``(hi, lo)`` pair for the power of ten, plus ``|x|`` times its low part
(Dekker 1971, "A floating-point technique for extending the available
precision"). Its error stays below 1e-13 units of the last digit kept.
Where ``log10`` lands on the wrong side of a power of ten the product is
formed again one decade over, and a rounding up to ``10^17`` (as for
``9.99999999999999999e-5``) moves to the next decade.

The text takes 24 bytes, three little-endian words, with NULs where
``%g`` has no character. The digits after the first become ASCII four
at a time from a table of the 10,000 groups, whose second half, used
where only zero groups follow, has trailing zeros as NULs. Shifts place
them by ``X``: ``d.ddd`` (ending in ``e+XX`` below 1e-4 and from 1e17),
``0.000d`` below 1, with as many zeros as ``X`` needs, and from 10 up
the point moved past ``X`` digits, whose zeros stay. A point shows where
a digit follows it.

A value goes to ``'%.17g' %`` itself, one at a time, when it is not
finite or is zero, when ``|x|`` lies outside ``[1e-280, 1e280]``, where a
product could overflow or lose bits to underflow, or when its rounding
lies within 1e-9 units of the last digit of a tie, which the product's
error cannot settle (ties do occur: ``2.0**50 + 0.25`` is one). The
tables are built on first use, not at import.
"""

import functools

import numpy as np

# bytes of a value's text, at most a sign, a digit, a point, 16 digits
# and "e+XXX"
WIDTH = 24
_WORD = np.dtype("<u8")
# |x| formed from digits; outside it a value goes to '%.17g' %
_LOW, _HIGH = 1e-280, 1e280
# powers 10^k of the tables: k = 16 - X for the exponents X of _LOW to
# _HIGH (-281 to 280), one decade of correction either way; and the
# exponents 16 - k of the layouts, one more after a round-up
_K_MIN, _K_MAX = -265, 298
_X_MIN, _X_MAX = 16 - _K_MAX, 17 - _K_MIN
# a fraction within this of 1/2 is left to '%.17g' % as a possible tie
_TIE = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves


@functools.cache
def _powers():
    """Rows hi, hi's high half, hi's low half and lo of 10^k for k from
    _K_MIN to _K_MAX: hi correctly rounded, lo the rounded remainder."""
    pairs = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi = float(10 ** k)
            pairs.append((hi, float(10 ** k - int(hi))))
        else:
            # int division rounds correctly: 1/10^-k, then the remainder
            # 10^k - num/den over the common denominator den 10^-k
            num, den = (1 / 10 ** -k).as_integer_ratio()
            pairs.append((num / den, (den - num * 10 ** -k) / (den * 10 ** -k)))
    hi, lo = np.array(pairs).T
    high = _SPLIT * hi - (_SPLIT * hi - hi)
    return np.array([hi, high, hi - high, lo])


@functools.cache
def _quads():
    """The ASCII text of 0 to 9999, four digits each as a 32-bit word,
    then again with trailing zeros as NULs (from entry 10,000)."""
    text = np.arange(10 ** 4, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1])
    text = (text % 10 + ord("0")).astype(np.uint8)
    tail = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    return np.concatenate([text, np.where(tail, 0, text)]).view("<u4").reshape(-1)


@functools.cache
def _layout():
    """(notation, moves). Per exponent X, then again for negative values,
    notation holds the shifts of the first digit and of the others, the
    factor that makes a kept first one of those the point, and words 0
    and 2 of the sign, "0.000" and "e+XX". Per X from 1 to 16, moves
    holds the masks of the bytes kept, the bytes taken one byte on and
    the byte that shows the point, and the integer zeros."""
    notation = np.zeros((5, _X_MAX - _X_MIN + 1), _WORD)
    for row, x in enumerate(range(_X_MIN, _X_MAX + 1)):
        if -4 <= x < 0:  # "0.000" from byte 1, the first digit in byte 6
            zeros = int.from_bytes(b"0." + b"0" * (-x - 1), "little")
            notation[:, row] = 48, 56, 0, zeros << 8, 0
        else:  # the first digit in byte 1, the point in byte 2
            tail = b"" if 0 <= x < 17 else b"e%+03d" % x
            tail = int.from_bytes(tail, "little") << 64 - 8 * len(tail)  # ends word 2
            notation[:, row] = 8, 24, ord(".") << 12, 0, tail
    negative = notation.copy()
    negative[3] |= ord("-")
    at, x = np.arange(WIDTH), np.arange(1, 17)[:, None]
    moved, point = (at >= 2) & (at < x + 2), (at == x + 2)
    moves = np.stack([~(moved | point) * 0xFF, moved * 0xFF, point, moved * ord("0")], axis=1)
    moves = moves.astype(np.uint8).view(_WORD).transpose(1, 2, 0)
    return np.concatenate([notation, negative], axis=1), moves


def _scaled(a, k):
    """(q, f): a * 10^k as the integer q plus the fraction f, within about
    1e-13 of the exact product.

    The error of p = a hi is the sum ((a_high high - p) + a_high low +
    a_low high) + a_low low of Dekker's halves, formed in place.
    """
    hi, high, low, lo = np.take(_powers(), k - _K_MIN, axis=1)
    p = a * hi
    a_high = _SPLIT * a
    a_high -= a_high - a
    a_low = a - a_high
    err = a_high * high
    err -= p
    err += np.multiply(a_high, low, out=a_high)
    err += np.multiply(a_low, high, out=high)
    err += np.multiply(a_low, low, out=low)
    q = np.floor(p)
    p -= q
    p += err
    p += np.multiply(a, lo, out=lo)
    return q, p


def _decimal(a):
    """(d, x, settled) for positive a within [_LOW, _HIGH]: the int64
    17-digit integer d and decimal exponent x with round(a) = d 10^(x-16),
    and where that rounding is settled, not within _TIE of a tie."""
    k = (16 - np.floor(np.log10(a))).astype(np.intp)
    q, f = _scaled(a, k)
    low = (q - 1e16) + f < 0
    high = (q - 1e17) + f >= 0
    redo = np.flatnonzero(low | high)
    if redo.size:
        k[redo] += np.where(low[redo], 1, -1)
        q[redo], f[redo] = _scaled(a[redo], k[redo])
    whole = np.floor(f)
    f -= whole
    d = q.astype(np.int64) + whole.astype(np.int64) + (f > 0.5)
    up = d == 10 ** 17
    d[up] = 10 ** 16
    return d, 16 - k + up, np.abs(f - 0.5) > _TIE


def g17_columns(values) -> np.ndarray:
    """The text of ``'%.17g' % v`` for each v of a float64 array, as
    the rows of a (size, WIDTH) uint8 array.

    A row holds NUL bytes in the places its text does not use, between
    characters too; deleting them (``bytes.translate(None, b"\\0")``)
    leaves the text.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    words = np.empty((len(values), WIDTH // 8), _WORD)
    a = np.abs(values)
    fast = (a >= _LOW) & (a <= _HIGH)  # False for nan
    d, x, settled = _decimal(a if fast.all() else np.where(fast, a, 1.0))
    (slow,) = np.nonzero(~(fast & settled))
    # d // 10^16 (the first digit), 10^12, 10^8, 10^4 and d; the four
    # groups of four digits after the first are their differences
    q = d // np.array([10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1])[:, None]
    del a, fast, d, settled  # freed early: they would add to the writer's peak
    # a group followed by zero groups only (the last one always) takes
    # the entry with its trailing zeros as NULs
    carry = np.full(len(x), 10 ** 4)
    for j in range(4, 0, -1):
        q[j] -= q[j - 1] * 10 ** 4
        zero = q[j] == 0
        q[j] += carry
        carry *= zero
    # digits 1 to 8 and 9 to 16, one per byte
    low, high = np.take(_quads(), q[1:].T).view(_WORD).T
    head = (q[0] + ord("0")).astype(_WORD)
    del q, carry, zero
    row = x - _X_MIN + (values < 0) * (_X_MAX - _X_MIN + 1)
    first, pair, dot, text, tail = _layout()[0]
    head <<= np.take(first, row)
    pair = np.take(pair, row)
    head |= low << pair
    head |= (low & 0x10) * np.take(dot, row)  # bit 4 is set in a digit, clear in a NUL
    np.bitwise_or(head, np.take(text, row), out=words[:, 0])
    np.bitwise_or(low >> 64 - pair, high << pair, out=words[:, 1])
    np.bitwise_or(high >> 64 - pair, np.take(tail, row), out=words[:, 2])
    (fixed,) = np.nonzero((x >= 1) & (x <= 16))
    if fixed.size:
        keep, take, shows, zeros = np.take(_layout()[1], x[fixed] - 1, axis=-1)
        laid = words[fixed].T
        over = laid >> 8  # one byte on
        over[:2] |= laid[1:] << 56
        point = (over >> 4 & shows) * ord(".")
        words[fixed] = (laid & keep | over & take | point | zeros).T
    if slow.size:
        texts = [b"%.17g" % v for v in values[slow].tolist()]
        words[slow] = np.array(texts, dtype=f"S{WIDTH}").view(_WORD).reshape(-1, 3)
    return words.view(np.uint8)
