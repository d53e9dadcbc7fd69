"""Parameter domain, coefficient laws, quadrature and moment estimation.

The random diffusion coefficient is treated as a deterministic function
of a scalar parameter, so integrals over the parameter domain can be
evaluated with deterministic quadrature ladders instead of Monte Carlo.
The ladders are midpoint rules, which never place nodes on the interval
endpoints; whether they avoid interior singular points depends on the
rule size and is asserted at construction time.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MomentExponents:
    """Integrability exponents of the data and the derived solution moments.

    alpha: forcing, beta: initial datum, gamma: inverse coercivity,
    theta: boundedness; p is the guaranteed solution moment and p_bar
    the moment surviving the fully discrete quasi-optimality transfer.
    Infinite exponents are represented by math.inf.
    """

    alpha: float
    beta: float
    gamma: float
    theta: float = math.inf
    p: float = math.nan
    p_bar: float = math.nan


@dataclass(frozen=True)
class ParameterDomain:
    """Scalar parameter domain with its probability measure.

    kind "uniform-interval" is the uniform law on [-1/2, 1/2];
    kind "lognormal" is the standard lognormal law, reached from (0, 1)
    through its inverse CDF.
    """

    kind: str = "uniform-interval"

    def __post_init__(self):
        if self.kind not in ("uniform-interval", "lognormal"):
            raise ValueError(f"unknown domain kind {self.kind!r}")

    def transform(self, unit: np.ndarray) -> np.ndarray:
        """Map points of (0, 1) to parameter values."""
        unit = np.asarray(unit, dtype=float)
        if self.kind == "uniform-interval":
            return unit - 0.5
        # imported here: only the lognormal law needs the normal quantile
        # (Wichura's AS241), and statistics would add its fractions and
        # decimal imports to every CLI start
        from statistics import NormalDist

        quantile = NormalDist().inv_cdf
        return np.exp([quantile(u) for u in unit.ravel().tolist()]).reshape(unit.shape)


def quadrature(domain: ParameterDomain, n: int, avoid=()) -> tuple:
    """Nodes and probability weights of the size-n midpoint rule on the domain.

    The nodes are the cell centers of a uniform grid on (0, 1), mapped by
    the domain's transform, each with weight 1/n. They are checked
    against the avoid list of singular points and the rule is rejected if
    one collides.
    """
    if n < 1:
        raise ValueError("rule size must be at least 1")
    weights = np.full(n, 1.0 / n)
    nodes = domain.transform((np.arange(n) + 0.5) / n)
    for point in avoid:
        gap = np.min(np.abs(nodes - point))
        if gap < 1e-12:
            raise ValueError(
                f"rule of size {n} places a node at the singular point {point}")
    return nodes, weights


_CASES = {
    # name: (a(omega), c0(omega), singular points); evaluation happens on
    # numpy scalars so singular points yield inf instead of raising
    "a": (lambda w: 1.0 + 1.0 / w ** 2, lambda w: 1.0 + w ** 3, (0.0,)),
    "b": (lambda w: np.abs(w) ** 0.99, lambda w: 1.0 + w ** 3, (0.0,)),
    "c": (lambda w: np.abs(w) ** 0.99, lambda w: np.abs(w) ** -0.5, (0.0,)),
    "d": (lambda w: np.abs(w) ** 0.99, lambda w: np.abs(w - 0.4) ** -0.5,
          (0.0, 0.4)),
    "lognormal": (lambda w: w, lambda w: np.float64(1.0), ()),
    "constant": (lambda w: np.float64(1.0), lambda w: np.float64(1.0), ()),
    "zero": (lambda w: np.float64(1.0), lambda w: np.float64(0.0), ()),
}


@dataclass(frozen=True)
class CoefficientModel:
    """Diffusion value a(w) and forcing amplitude c0(w) for one law.

    Evaluation at a singular point yields a non-finite or degenerate
    value rather than raising; downstream solves flag such paths.
    """

    case: str = "custom"
    a_fn: callable = None
    c0_fn: callable = None
    singular_points: tuple = ()

    def __post_init__(self):
        if self.case != "custom":
            if self.case not in _CASES:
                raise ValueError(f"unknown coefficient case {self.case!r}")
            a_fn, c0_fn, singular = _CASES[self.case]
            object.__setattr__(self, "a_fn", a_fn)
            object.__setattr__(self, "c0_fn", c0_fn)
            object.__setattr__(self, "singular_points", singular)
        elif self.a_fn is None or self.c0_fn is None:
            raise ValueError("custom models need a_fn and c0_fn")

    def a(self, omega: float) -> float:
        with np.errstate(divide="ignore", over="ignore"):
            return float(self.a_fn(np.float64(omega)))

    def c0(self, omega: float) -> float:
        with np.errstate(divide="ignore", over="ignore"):
            return float(self.c0_fn(np.float64(omega)))

    def evaluate(self, nodes) -> tuple:
        """(a, c0) of every node as float64 arrays: the scalar calls of a
        and c0, bit for bit, under one errstate for the whole rule."""
        a, c0 = np.empty(len(nodes)), np.empty(len(nodes))
        with np.errstate(divide="ignore", over="ignore"):
            for i, omega in enumerate(nodes):
                a[i] = float(self.a_fn(np.float64(omega)))
                c0[i] = float(self.c0_fn(np.float64(omega)))
        return a, c0


def default_domain(case: str) -> ParameterDomain:
    """Parameter domain conventionally paired with a named case."""
    return ParameterDomain("lognormal" if case == "lognormal" else "uniform-interval")


def lp_norm(p: float, values, weights) -> tuple:
    """Weighted p-mean (sum w_i v_i^p)^(1/p) with flag propagation.

    Returns (estimate, flagged). Non-finite entries flag the estimate
    instead of poisoning downstream arithmetic; negative entries are
    rejected because the values are norms. The sum is taken of
    (v_i / max v)^p, so a large p cannot overflow finite values.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"moment order p must satisfy 1 <= p < inf, got {p}")
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError("values and weights must have matching shapes")
    finite = np.isfinite(values)
    if np.any(values[finite] < 0):
        raise ValueError("pathwise norms must be nonnegative")
    if not np.all(finite):
        return math.nan, True
    top = float(np.max(values, initial=0.0))
    if top == 0.0:
        return 0.0, False
    est = top * float(np.sum(weights * (values / top) ** p) ** (1.0 / p))
    return est, not math.isfinite(est)


def predict_max_moment(alpha: float, beta: float, gamma: float) -> float:
    """Largest guaranteed moment of the solution from the data exponents.

        p = min( alpha gamma / (alpha + gamma),
                 2 beta gamma / (beta + 2 gamma) )

    with the limit conventions for infinite exponents, so (inf, inf,
    gamma) gives gamma. The value is a supremum: data integrable to
    orders below alpha, beta, gamma give solution moments of every
    order below p.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    if math.isinf(gamma):
        first = alpha
    elif math.isinf(alpha):
        first = gamma
    else:
        first = alpha * gamma / (alpha + gamma)
    if math.isinf(gamma):
        second = beta
    elif math.isinf(beta):
        second = 2.0 * gamma
    else:
        second = 2.0 * beta * gamma / (beta + 2.0 * gamma)
    return min(first, second)


def predict_pbar(p: float, theta: float) -> tuple:
    """Moment surviving the fully discrete quasi-optimality transfer.

    p_bar = p - p^2 / (theta + p), equal to p when the boundedness
    variable has moments of every order. Returns (p_bar, flagged) with
    the flag set when the result drops below 1 and no moment is
    guaranteed.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if theta < 1:
        raise ValueError("theta must be at least 1")
    p_bar = p if math.isinf(theta) else p - p * p / (theta + p)
    return p_bar, p_bar < 1


def moment_exponents(alpha: float, beta: float, gamma: float,
                     theta: float = math.inf) -> MomentExponents:
    """Bundle the data exponents with the derived solution moments."""
    p = predict_max_moment(alpha, beta, gamma)
    if p >= 1:
        p_bar, _ = predict_pbar(p, theta)
    else:
        p_bar = math.nan
    return MomentExponents(alpha=alpha, beta=beta, gamma=gamma, theta=theta,
                           p=p, p_bar=p_bar)


def singular_example_moments(exponent: float) -> tuple:
    """Moment exponents for coinciding power-law singularities.

    For diffusion |w - z0|^s and forcing |w - z1|^(-s) with separate
    singular points, a pathwise factorization gives moments up to 1/s
    while the generic prediction from the data exponents alone gives
    the more conservative 1/(2 s). Returns (predicted, pathwise).
    """
    if not 0 < exponent < 1:
        raise ValueError("exponent must lie in (0, 1)")
    data_order = 1.0 / exponent
    predicted = predict_max_moment(data_order, math.inf, data_order)
    return predicted, data_order


_TREND_DECAY = 1.3
_TREND_DELTA = 0.05
_TREND_WINDOW = 3


def classify_trend(estimates) -> str:
    """Mechanical convergence judgment for a doubling quadrature ladder.

    converging: the increments decay by an average factor of at least
    decay = 1.3 per rung across the ladder (geometric mean of the first
    to last increment), or the tail has stopped increasing. diverging:
    not converging, and the last window = 3 successive ratios all stay
    at or above 1 + delta, delta = 0.05. Anything else is inconclusive.

    Convergence is judged first: a ladder with collapsing increments
    can still show large early ratios, and the averaged increment rate
    keeps the judgment stable when an integrable singularity makes
    individual midpoint increments oscillate.
    """
    est = np.asarray(list(estimates), dtype=float)
    if len(est) < 4:
        raise ValueError("need at least 4 ladder points")
    if not np.all(np.isfinite(est)):
        return "inconclusive"

    inc = np.diff(est)
    scale = max(np.max(np.abs(est)), 1e-300)
    converged = abs(inc[-1]) <= 1e-12 * scale
    if not converged and inc[0] > 0:
        rate = (inc[0] / abs(inc[-1])) ** (1.0 / (len(inc) - 1))
        converged = rate >= _TREND_DECAY
    if converged:
        return "converging"

    ratios = est[1:] / est[:-1]
    recent = ratios[-min(_TREND_WINDOW, len(ratios)):]
    if np.all(recent >= 1.0 + _TREND_DELTA):
        return "diverging"
    return "inconclusive"
