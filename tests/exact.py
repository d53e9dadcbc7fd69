"""The step recurrence in exact arithmetic: the tests' oracle of the closed
forms uniform_profile and uniform_energy of stpg.solver.

On the excited mode, with N steps on the uniform grid of [0, 1], the
recurrence is

    y_j = g y_(j-1) + c0 tw_j beta_1 / (1 + x),  y_(-1) = 0,

with x = a lam_1 / (2 N) and g = (1 - x) / (1 + x), and the energy of a
profile is lam_1 / N sum_j y_j^2. Here both are formed in decimal
arithmetic of 800 digits. The float inputs a, c0, lam_1, beta_1 and the
time weights tw_j are taken as exact values (a Decimal of a float is
exact), each operation rounds at the 800th digit, and the exponent range
of +-999,999 holds every value the recurrence forms, where floats
overflow or underflow: the result is exact far below any float's spacing.
Nothing of stpg is imported, so the oracle shares no code with what it
checks.
"""

import decimal
import math
from decimal import Decimal

CONTEXT = decimal.Context(prec=800, Emin=-999999, Emax=999999)
# the least subnormal and the least normal float, and the float epsilon
LEAST = Decimal(5e-324)
TINY = Decimal(2.2250738585072014e-308)
EPS = Decimal(2.220446049250313e-16)


def profile(lam: float, beta: float, weights, a: float, c0: float = 1.0) -> list:
    """The profile [y_0, ..., y_(N-1)] of the recurrence on the time
    weights [tw_0, ..., tw_(N-1)], N = len(weights), as Decimals."""
    with decimal.localcontext(CONTEXT):
        x = Decimal(a) * Decimal(lam) / (2 * len(weights))
        g = (1 - x) / (1 + x)
        load = Decimal(c0) * Decimal(beta) / (1 + x)
        y, values = Decimal(0), []
        for tw in weights:
            y = g * y + load * Decimal(tw)
            values.append(y)
        return values


def energy(lam: float, values) -> Decimal:
    """lam_1 / N sum_j y_j^2 of a profile of N values."""
    with decimal.localcontext(CONTEXT):
        return Decimal(lam) * sum(y * y for y in values) / len(values)


def gap(got: float, want: Decimal) -> Decimal:
    """|got - want| of a float and an exact value; inf where got is not finite."""
    if not math.isfinite(got):
        return Decimal("Infinity")
    with decimal.localcontext(CONTEXT):
        return abs(Decimal(got) - want)
