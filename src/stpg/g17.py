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
``9.99999999999999999e-5``) moves to the next decade. The digits become
ASCII through a table of the 100 digit pairs, and the text is laid out
as ``%g`` lays it out: fixed notation for ``-4 <= X < 17``, ``e+XX``
otherwise, trailing zeros dropped.

A value goes to ``'%.17g' %`` itself, one at a time, when it is not
finite or is zero, when ``|x|`` lies outside ``[1e-280, 1e280]``, where a
product could overflow or lose bits to underflow, or when its rounding
lies within 1e-9 units of the last digit of a tie, which the product's
error cannot settle (ties do occur: ``2.0**50 + 0.25`` is one). The
tables are built from Python integers on first use, not at import.
"""

import functools

import numpy as np

__all__ = ["WIDTH", "g17_columns"]

# columns of a value's text: a sign, the "0.000" of a fixed value below
# 1, 17 digits each followed by a slot for the decimal point, and "e+XXX"
WIDTH = 45
_BODY = 6  # first digit column; digit j sits at _BODY + 2 j
_TAIL = _BODY + 34  # first exponent column
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
def _layout():
    """(templates, least digits, keep masks, digit pairs).

    The template of exponent X holds a value's text without its sign and
    digits: the "0.000" prefix, the decimal point and the exponent. The
    least digits of X are the integer digits of a fixed value of at least
    1 (X + 1), else 0. The keep mask of K digits clears every digit and
    point slot past the K-th digit.
    """
    template = np.zeros((_X_MAX - _X_MIN + 1, WIDTH), np.uint8)
    least = np.zeros(len(template), np.intp)
    for x, row in enumerate(template, _X_MIN):
        if -4 <= x < 0:
            text, at = b"0." + b"0" * (-x - 1), 1
        elif 0 <= x < 17:
            least[x - _X_MIN] = x + 1
            text, at = (b"." if x < 16 else b""), _BODY + 2 * x + 1
        else:
            row[_BODY + 1] = ord(".")
            text = b"e%+03d" % x
            at = WIDTH - len(text)
        row[at:at + len(text)] = np.frombuffer(text, np.uint8)
    keep = np.full((18, WIDTH), 0xFF, np.uint8)
    for digits in range(1, 18):
        keep[digits, _BODY + 2 * digits - 1:_TAIL] = 0
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    return template, least, keep, pairs


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

    A row holds NUL bytes in the slots its text does not use, between
    characters too; deleting them (``bytes.translate(None, b"\\0")``)
    leaves the text.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(values)
    fast = (a >= _LOW) & (a <= _HIGH)  # False for nan
    d, x, settled = _decimal(a if fast.all() else np.where(fast, a, 1.0))
    template, least, keep, pairs = _layout()
    row = x - _X_MIN
    out = np.take(template, row, axis=0)
    # the digits: the first alone, then two blocks of eight, two at a time
    rest = np.empty((len(d), 2), np.uint32)
    d, rest[:, 1] = np.divmod(d, 10 ** 8)
    d, rest[:, 0] = np.divmod(d, 10 ** 8)
    out[:, _BODY] = d + ord("0")
    text = np.empty((len(d), 2, 4), np.uint16)
    for j in range(3, -1, -1):
        rest, two = np.divmod(rest, np.uint32(100))
        text[:, :, j] = pairs[two]
    digits = out[:, _BODY:_TAIL:2]
    digits[:, 1:] = text.reshape(len(d), 8).view(np.uint8)
    # a value whose 17 digits end in zeros shows 17 less the trailing
    # zeros, or its integer digits if more; the others show all 17
    (ends,) = np.nonzero(digits[:, 16] == ord("0"))
    count = 17 - np.argmax(digits[ends, ::-1] != ord("0"), axis=1)
    out[ends] &= np.take(keep, np.maximum(count, least[row[ends]]), axis=0)
    out[:, 0] = (values < 0) * np.uint8(ord("-"))
    (slow,) = np.nonzero(~(fast & settled))
    if slow.size:
        texts = [b"%.17g" % v for v in values[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out
