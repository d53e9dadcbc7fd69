import decimal
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpg import g17


def _texts(values):
    """The rows of g17_columns with their NULs squeezed out."""
    rows = g17.g17_columns(np.array(values, dtype=np.float64))
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in rows]


def _oracle(values):
    return ["%.17g" % v for v in np.array(values, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_kernel_matches_percent_format_on_any_floats(values):
    assert _texts(values) == _oracle(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_kernel_matches_percent_format_on_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _texts(values) == _oracle(values)


_POWERS = np.array([10.0 ** k for k in range(-323, 309)])

_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, math.copysign(math.nan, -1.0),
    5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max,
    # the %g switch from fixed to exponent and the round-up across it
    1e-5, 9.99999999999999999e-5, 1e-4, 0.000123, 1e16, 9999999999999998.0, 1e17,
    99999999999999999.0, 123456789012345678.0,
    # exact ties of the 17th digit, and their neighbours
    5000000000000000.5, 2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** 51 + 0.5,
    np.nextafter(2.0 ** 50 + 0.25, 0.0), np.nextafter(2.0 ** 50 + 0.25, math.inf),
    # the bounds of the digits path
    1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, math.inf),
]


@pytest.mark.parametrize("values", [
    _EDGES,
    _POWERS, np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, math.inf), -_POWERS,
], ids=["named-edges", "powers-of-ten", "below-powers", "above-powers", "negative-powers"])
def test_kernel_matches_percent_format_on_edges(values):
    assert _texts(values) == _oracle(values)


def test_digits_are_the_correctly_rounded_17_digits():
    # %.16e gives the same 17 digits and exponent where the rounding is
    # settled, and it is everywhere but at exact ties, which values from
    # 1e12 to 1e16 with few fraction bits meet (22 of these 20,000)
    rng = np.random.default_rng(22)
    values = np.abs(rng.standard_normal(20000)) * 10.0 ** rng.integers(-280, 280, 20000)
    digits, exponent, settled = g17._decimal(values)
    assert ["%.16e" % v for v in values[settled].tolist()] == [
        f"{d // 10 ** 16}.{d % 10 ** 16:016d}e{x:+03d}"
        for d, x in zip(digits[settled].tolist(), exponent[settled].tolist())]
    for v in values[~settled].tolist():
        exact = "".join(map(str, decimal.Decimal(v).as_tuple().digits)).rstrip("0")
        assert len(exact) == 18 and exact.endswith("5"), v
    assert 0 < np.count_nonzero(~settled) < 40


def test_ties_are_left_to_percent_format():
    # 17 digits of 2^50 + 1/4 end in a 2 followed by exactly 5
    values = np.array([2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** 50 + 0.5])
    assert g17._decimal(values)[2].tolist() == [False, False, True]
    assert _texts(values) == ["1125899906842624.2", "1125899906842624.8",
                              "1125899906842624.5"]


def _kept(value):
    """(X, K): the decimal exponent of value's 17 correctly rounded digits
    and how many of them %g keeps before trailing zeros."""
    digits, exponent = ("%.16e" % value).split("e")
    return int(exponent), len(digits.replace(".", "").rstrip("0"))


def _layout_values():
    """A double for every exponent X of the layouts and every count K of
    kept digits from 1 to 17 that a double can have: the first K-digit
    decimal whose nearest double keeps those K digits, of all of them for
    K of 1 and 2 and of 400 drawn from a fixed stream for the others."""
    rng = random.Random(23)
    found = {}
    for x in range(g17._X_MIN, g17._X_MAX + 1):
        for kept in range(1, 18):
            if kept <= 2:
                draws = [str(d) for d in range(10 ** (kept - 1), 10 ** kept) if d % 10]
            else:
                draws = (str(rng.randrange(1, 10))
                         + "".join(str(rng.randrange(10)) for _ in range(kept - 2))
                         + str(rng.randrange(1, 10)) for _ in range(400))
            for digits in draws:
                value = float(f"{digits[0]}.{digits[1:]}e{x}")
                if _kept(value) == (x, kept):
                    found[x, kept] = value
                    break
    return found


def test_every_exponent_and_digit_count_matches_percent_format():
    # every layout: e+XX below 1e-4 and from 1e17 on, "0.000" before the
    # digits down to 1e-4, the point moved past X digits from 10 to 1e17,
    # whose integer zeros stay when the trailing ones go; both signs
    found = _layout_values()
    missing = {(x, kept) for x in range(g17._X_MIN, g17._X_MAX + 1)
               for kept in range(1, 18)} - set(found)
    # at some exponents no decimal of one or two digits has a double
    # that keeps it: the nearest double's 17 digits differ in the last
    assert {kept for _, kept in missing} == {1, 2}
    assert not any(-4 <= x <= 16 for x, _ in missing) and len(missing) < 200
    values = np.array(list(found.values()))
    values = np.concatenate([values, -values])
    assert _texts(values) == _oracle(values)
