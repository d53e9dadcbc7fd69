import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from stpg import stochastic


def test_midpoint_nodes_and_weights():
    domain = stochastic.ParameterDomain()
    nodes, weights = stochastic.quadrature(domain, 4)
    assert np.allclose(nodes, [-0.375, -0.125, 0.125, 0.375], atol=1e-15)
    assert np.allclose(weights, 0.25, atol=1e-16)


def test_size_one_midpoint_rule_hits_center():
    domain = stochastic.ParameterDomain()
    nodes, weights = stochastic.quadrature(domain, 1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-16)
    assert weights[0] == 1.0
    # singular-point guard rejects the same rule
    with pytest.raises(ValueError):
        stochastic.quadrature(domain, 1, avoid=(0.0,))


def test_odd_rules_can_hit_interior_singular_points():
    domain = stochastic.ParameterDomain()
    with pytest.raises(ValueError):
        stochastic.quadrature(domain, 5, avoid=(0.4,))
    # doubling ladders from 8 never collide with 0 or 0.4
    for n in (8, 16, 32, 64, 128, 256):
        stochastic.quadrature(domain, n, avoid=(0.0, 0.4))


def test_weights_sum_to_one():
    domain = stochastic.ParameterDomain()
    for n in (1, 7, 64):
        _, weights = stochastic.quadrature(domain, n)
        assert abs(weights.sum() - 1.0) < 1e-14


def test_second_moment_of_uniform_law():
    domain = stochastic.ParameterDomain()
    nodes, weights = stochastic.quadrature(domain, 100)
    estimate = float(np.sum(weights * nodes ** 2))
    assert abs(estimate - 1.0 / 12.0) < 1e-4


def test_midpoint_second_order_convergence():
    domain = stochastic.ParameterDomain()
    errors = []
    for n in (8, 16, 32, 64):
        nodes, weights = stochastic.quadrature(domain, n)
        errors.append(abs(float(np.sum(weights * nodes ** 2)) - 1.0 / 12.0))
    rates = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
    assert all(abs(r - 2.0) < 0.1 for r in rates)


def test_lognormal_nodes_through_inverse_cdf():
    domain = stochastic.ParameterDomain(kind="lognormal")
    nodes, weights = stochastic.quadrature(domain, 8)
    assert np.all(nodes > 0)
    assert abs(weights.sum() - 1.0) < 1e-14
    # the quantile is Wichura's AS241 (statistics.NormalDist); over every
    # midpoint rule of 1 to 4,096 nodes a node is at most 2.2e-15 relative
    # from the exp of scipy's ndtri, reached at 2,189 nodes
    for n in [*range(1, 65), 100, 1000, 1024, 2189, 4095, 4096]:
        nodes, _ = stochastic.quadrature(domain, n)
        expected = np.exp(ndtri((np.arange(n) + 0.5) / n))
        assert np.max(np.abs(nodes / expected - 1.0)) <= 3e-15, n


def test_quadrature_guards():
    domain = stochastic.ParameterDomain()
    with pytest.raises(ValueError):
        stochastic.quadrature(domain, 0)


def test_coefficient_cases_table():
    model = stochastic.CoefficientModel(case="a")
    assert model.a(0.5) == pytest.approx(5.0)
    assert model.c0(0.5) == pytest.approx(1.125)
    assert math.isinf(model.a(0.0))
    model = stochastic.CoefficientModel(case="b")
    assert model.a(-0.5) == pytest.approx(0.5 ** 0.99)
    assert model.a(0.0) == 0.0
    model = stochastic.CoefficientModel(case="c")
    assert model.c0(0.25) == pytest.approx(2.0)
    assert math.isinf(model.c0(0.0))
    model = stochastic.CoefficientModel(case="d")
    assert model.c0(0.4 + 0.01) == pytest.approx(10.0)
    assert math.isinf(model.c0(0.4))
    assert model.singular_points == (0.0, 0.4)


@pytest.mark.parametrize("case", sorted(stochastic._CASES))
def test_evaluate_is_the_per_node_calls_bit_for_bit(case, monkeypatch):
    model = stochastic.CoefficientModel(case=case)
    domain = stochastic.ParameterDomain("lognormal" if case == "lognormal" else
                                        "uniform-interval")
    nodes, _ = stochastic.quadrature(domain, 9)
    # every singular point, where a or c0 is infinite, and its neighbours
    nodes = np.concatenate([nodes, *[[p, np.nextafter(p, -1), np.nextafter(p, 1)]
                                     for p in model.singular_points], [-0.0, 0.5, -0.5]])
    expected = [[model.a(w) for w in nodes], [model.c0(w) for w in nodes]]
    entered = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    a, c0 = model.evaluate(nodes)
    # one errstate for the rule, the per-node methods' own
    assert entered == [dict(divide="ignore", over="ignore")]
    for got, want in zip((a, c0), expected):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))
    if model.singular_points:
        # non-finite or degenerate there, not raised
        assert not (np.isfinite(a) & (a > 0) & np.isfinite(c0)).all()


def test_coefficient_model_guards():
    with pytest.raises(ValueError):
        stochastic.CoefficientModel(case="nope")
    with pytest.raises(ValueError):
        stochastic.CoefficientModel(case="custom")
    custom = stochastic.CoefficientModel(case="custom", a_fn=lambda w: 2.0,
                                         c0_fn=lambda w: w)
    assert custom.a(9.0) == 2.0


# the path values of moments --case c --dim 1 --cells 4 --steps 4 at N = 8,
# whose 400th powers overflow above 5.9
_SPREAD = np.array([0.6873293802916272, 1.2081552718965114, 2.655316757644627,
                    11.237395202291403, 11.237395202291403, 2.655316757644627,
                    1.2081552718965114, 0.6873293802916272])


def test_lp_norm_basics():
    values = np.array([2.0, 2.0, 2.0])
    weights = np.array([0.2, 0.5, 0.3])
    for p in (1.0, 2.0, 7.0):
        est, flagged = stochastic.lp_norm(p, values, weights)
        assert est == pytest.approx(2.0, rel=1e-14)
        assert not flagged
    est, _ = stochastic.lp_norm(1.0, [0.0, 2.0], [0.5, 0.5])
    assert est == pytest.approx(1.0)
    assert stochastic.lp_norm(3.0, [0.0, -0.0], [0.5, 0.5]) == (0.0, False)
    weights = np.full(8, 1.0 / 8.0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        est, flagged = stochastic.lp_norm(400.0, _SPREAD, weights)
        # every term below the two largest values is under 1e-250 of them
        assert not flagged
        assert est == pytest.approx(_SPREAD.max() * 0.25 ** (1.0 / 400.0), rel=1e-15)
        # the p-mean tends to the largest value
        assert stochastic.lp_norm(1e308, _SPREAD, weights) == (_SPREAD.max(), False)


def test_lp_norm_guards_and_flags():
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            stochastic.lp_norm(p, [1.0], [1.0])
    with pytest.raises(ValueError):
        stochastic.lp_norm(1.0, [-1.0], [1.0])
    with pytest.raises(ValueError):
        stochastic.lp_norm(1.0, [1.0, 2.0], [1.0])
    est, flagged = stochastic.lp_norm(2.0, [1.0, math.nan], [0.5, 0.5])
    assert flagged and math.isnan(est)
    est, flagged = stochastic.lp_norm(2.0, [1.0, math.inf], [0.5, 0.5])
    assert flagged


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
    p_pair=st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0)),
)
def test_lp_norm_monotone_in_p(values, p_pair):
    values = np.asarray(values)
    weights = np.full(len(values), 1.0 / len(values))
    p1, p2 = sorted(p_pair)
    low, _ = stochastic.lp_norm(p1, values, weights)
    high, _ = stochastic.lp_norm(p2, values, weights)
    assert low <= high * (1 + 1e-12) + 1e-12


def test_predict_max_moment_examples():
    assert stochastic.predict_max_moment(math.inf, math.inf, 3.0) == 3.0
    assert stochastic.predict_max_moment(2.0, 2.0, 2.0) == pytest.approx(1.0)
    assert stochastic.predict_max_moment(math.inf, math.inf, math.inf) == math.inf
    assert stochastic.predict_max_moment(4.0, math.inf, 4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        stochastic.predict_max_moment(0.5, 2.0, 2.0)


_exponents = st.one_of(st.floats(1.0, 40.0), st.just(math.inf))


@settings(max_examples=200, deadline=None)
@given(alpha=_exponents, beta=_exponents, gamma=_exponents,
       bump=st.floats(0.0, 10.0))
def test_predict_max_moment_monotone(alpha, beta, gamma, bump):
    base = stochastic.predict_max_moment(alpha, beta, gamma)
    for args in ((alpha + bump, beta, gamma), (alpha, beta + bump, gamma),
                 (alpha, beta, gamma + bump)):
        assert stochastic.predict_max_moment(*args) >= base - 1e-12


def test_predict_pbar():
    value, flagged = stochastic.predict_pbar(2.0, math.inf)
    assert value == 2.0 and not flagged
    value, flagged = stochastic.predict_pbar(2.0, 2.0)
    assert value == pytest.approx(1.0) and not flagged
    value, flagged = stochastic.predict_pbar(1.0, 1.0)
    assert value == pytest.approx(0.5) and flagged
    with pytest.raises(ValueError):
        stochastic.predict_pbar(0.5, 2.0)
    with pytest.raises(ValueError):
        stochastic.predict_pbar(2.0, 0.5)


def test_moment_exponents_bundle():
    exps = stochastic.moment_exponents(math.inf, math.inf, 2.0, theta=math.inf)
    assert exps.p == 2.0
    assert exps.p_bar == 2.0
    exps = stochastic.moment_exponents(2.0, 2.0, 2.0, theta=2.0)
    assert exps.p == pytest.approx(1.0)
    assert exps.p_bar == pytest.approx(1.0 - 1.0 / 3.0)
    # data too rough for any guaranteed moment
    exps = stochastic.moment_exponents(1.0, 1.0, 1.0)
    assert exps.p < 1.0 and math.isnan(exps.p_bar)


def test_singular_example_moments():
    predicted, pathwise = stochastic.singular_example_moments(0.25)
    assert predicted == pytest.approx(2.0)
    assert pathwise == pytest.approx(4.0)
    assert predicted == pytest.approx(pathwise / 2.0)
    with pytest.raises(ValueError):
        stochastic.singular_example_moments(1.5)


def test_classify_trend_examples():
    assert stochastic.classify_trend([1, 2, 4, 8]) == "diverging"
    assert stochastic.classify_trend([1, 1.5, 1.75, 1.875]) == "converging"
    assert stochastic.classify_trend([1.0, 1.04, 1.08, 1.12]) == "inconclusive"
    with pytest.raises(ValueError):
        stochastic.classify_trend([1, 2, 4])


def test_classify_trend_flat_and_flagged():
    assert stochastic.classify_trend([2.0, 2.0, 2.0, 2.0]) == "converging"
    assert stochastic.classify_trend([1.0, 2.0, math.nan, 4.0]) == "inconclusive"


def test_domain_guards():
    with pytest.raises(ValueError):
        stochastic.ParameterDomain(kind="poisson")
