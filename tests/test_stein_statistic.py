import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gomptest import stein_statistic
from gomptest.distributions import (
    AlternativeSpec,
    GompertzParams,
    alt_sample,
    gompertz_cdf,
    gompertz_sample,
)
from gomptest.estimation import fit_mle, rescale
from gomptest.simulation import DEFAULT_A_GRID
from gomptest.stein_statistic import (
    _MOMENT_SERIES_CUT,
    MomentConditionError,
    StatisticInput,
    WeightParam,
    _exp_moments,
    _t_closed_form_rows,
    delta_estimate,
    stein_transform,
    t_statistic_closed_form,
    t_statistic_quadrature,
    v_process,
)


def brute_t(ys, eta, a):
    """First-principles oracle: adaptive quadrature of n * int V^2 e^(-a s) ds.

    V is evaluated directly from its definition at each s; the integral is
    split at the jump points and the constant tail handled analytically.
    """
    ys = np.sort(np.asarray(ys, dtype=float))
    g = eta * np.exp(ys) - 1.0

    def v(s):
        return float(np.mean(g * np.minimum(ys, s)) - np.mean(ys <= s))

    knots = np.concatenate(([0.0], ys))
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi > lo:
            val, err = integrate.quad(
                lambda s: v(s) ** 2 * math.exp(-a * s),
                lo,
                hi,
                epsabs=1e-14,
                epsrel=1e-12,
                limit=200,
            )
            total += val
    total += v(ys[-1] + 1.0) ** 2 * math.exp(-a * ys[-1]) / a
    return ys.size * total


def pair_sum_rows(ys, eta, a):
    """The order-statistic double-sum/single-sum form of the statistic.

    Algebraically identical to the piecewise evaluation but numerically
    unstable when the fitted scale collapses (huge eta_hat with tiny Y):
    its terms grow like eta_hat^2 and cancel. An oracle for the formula
    itself on well-conditioned inputs; the library evaluates the statistic
    with _t_closed_form_rows.
    """
    m, n = ys.shape
    a2 = a * a
    a3 = a2 * a
    g = eta[:, None] * np.exp(ys) - 1.0
    gy = g * ys
    e_neg = np.exp(-a * ys)
    f1 = e_neg * (-a * gy - 2.0 * g - a2 * ys - a) / a3
    g2 = e_neg * (g + a) / a2
    zero = np.zeros((m, 1))
    head_f1 = np.concatenate((zero, np.cumsum(f1, axis=1)[:, :-1]), axis=1)
    head_gy = np.concatenate((zero, np.cumsum(gy, axis=1)[:, :-1]), axis=1)
    head_g = np.concatenate((zero, np.cumsum(g, axis=1)[:, :-1]), axis=1)
    count = np.arange(n, dtype=float)[None, :]
    pair = g * head_f1 + g2 * (count - head_gy) + (2.0 / a3) * g * head_g
    diag = e_neg * (-2.0 * a * g * gy - 2.0 * g * g - 2.0 * a2 * gy + a2) / a3
    diag = diag + 2.0 * g * g / a3
    return (2.0 * np.sum(pair, axis=1) + np.sum(diag, axis=1)) / n


def test_exp_moments_match_mpmath():
    # E_m = int_0^width t^m e^(-a t) dt by 50-digit quadrature, independent of
    # the series coefficients, the cut and the integration-by-parts ladder
    cut = _MOMENT_SERIES_CUT
    zs = np.concatenate((np.geomspace(1e-8, 50.0, 25), [cut - 1e-7, cut + 1e-7]))
    for a in (0.1, 1.0, 10.0):
        width = zs / a
        assert np.any(a * width < cut) and np.any(a * width >= cut)
        got = _exp_moments(a, width, width**2, width**3)
        with mpmath.workdps(50):
            for j, w in enumerate(width):
                for m in range(3):
                    want = mpmath.quad(
                        lambda t: t**m * mpmath.exp(-a * t), [0, mpmath.mpf(float(w))]
                    )
                    rel = abs((mpmath.mpf(float(got[m][j])) - want) / want)
                    assert rel < 1e-14, (a, float(w), m, float(rel))


def _assert_grid_bitwise(ys, eta, a_grid):
    # row i of the grid is the one-a evaluation, and every batched row is
    # its own m=1 evaluation, bit for bit
    grid = _t_closed_form_rows(ys, eta, a_grid)
    assert grid.shape == (len(a_grid), ys.shape[0])
    for i, a in enumerate(a_grid):
        assert np.array_equal(grid[i], _t_closed_form_rows(ys, eta, (a,))[0])
    for r in range(ys.shape[0]):
        single = _t_closed_form_rows(ys[r : r + 1], eta[r : r + 1], a_grid)
        assert np.array_equal(grid[:, r], single[:, 0])


def test_closed_form_grid_is_bitwise_the_per_a_evaluation():
    rng = np.random.default_rng(31)
    for n in (1, 2, 30, 100, 1000):
        m = 6
        ys = np.sort(rng.exponential(1.0, (m, n)), axis=1) + 1e-3
        eta = rng.uniform(0.2, 3.0, m)
        _assert_grid_bitwise(ys, eta, DEFAULT_A_GRID)
        width = np.diff(ys, axis=1, prepend=0.0)
        # every z = a*width on the series side, then every one on the closed side
        assert np.all(0.1 * width < _MOMENT_SERIES_CUT)
        a_big = 1.0 / float(np.min(width))
        assert np.all(a_big * width >= _MOMENT_SERIES_CUT)
        _assert_grid_bitwise(ys, eta, (0.1, a_big))


@pytest.mark.parametrize("budget", ["one_row", "mid_batch", "one_block"])
def test_stein_grid_does_not_depend_on_the_row_block(budget, monkeypatch):
    rng = np.random.default_rng(47)
    for n in (1, 2, 30, 100, 1000):
        m = 7
        ys = np.sort(rng.exponential(1.0, (m, n)), axis=1) + 1e-3
        eta = rng.uniform(0.2, 3.0, m)
        # the big a puts elements on the ladder side of the cut
        a_grid = DEFAULT_A_GRID + (1.0 / float(np.min(np.diff(ys, axis=1, prepend=0.0))),)
        want = _t_closed_form_rows(ys, eta, a_grid)
        block = {"one_row": 1, "mid_batch": (m // 2) * n, "one_block": m * n}[budget]
        monkeypatch.setattr(stein_statistic, "_ROW_BLOCK", block)
        got = _t_closed_form_rows(ys, eta, a_grid)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.filterwarnings("error")
def test_closed_form_is_finite_and_accurate_at_extreme_a():
    # tiny a leaves every element on the series side, huge a puts every
    # element on the ladder side; at a=1e30 the series overflows there
    a_grid = (1e-8, 1e-3, 7.0, 1e3, 1e6, 1e12, 1e30)
    rng = np.random.default_rng(13)
    for n in (1, 2, 5, 200):
        ys = np.sort(rng.exponential(1.0, (3, n)), axis=1) + 1e-3
        eta = rng.uniform(0.2, 3.0, 3)
        grid = _t_closed_form_rows(ys, eta, a_grid)
        assert np.all(np.isfinite(grid))
        for r in range(3):
            inp = StatisticInput(ys[r], eta[r])
            for i, a in enumerate(a_grid):
                want = t_statistic_quadrature(inp, WeightParam(a))
                assert math.isclose(grid[i, r], want, rel_tol=1e-12), (n, a)


def _case(rng):
    n = int(rng.integers(2, 41))
    kind = rng.integers(0, 3)
    if kind == 0:
        ys = np.sort(rng.gamma(2.0, 0.5, n)) + 0.01
    elif kind == 1:
        ys = np.sort(np.abs(rng.standard_normal(n))) * 2.0 + 0.005
    else:
        ys = np.sort(rng.exponential(1.0, n)) * 0.8 + 0.01
    eta = float(rng.uniform(0.1, 5.0))
    a = float(rng.uniform(0.1, 10.0))
    return ys, eta, a


def test_statistic_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        ys, eta, a = _case(rng)
        inp = StatisticInput(ys, eta)
        w = WeightParam(a)
        want = brute_t(ys, eta, a)
        got_q = t_statistic_quadrature(inp, w)
        got_c = t_statistic_closed_form(inp, w)
        assert math.isclose(got_q, want, rel_tol=1e-9, abs_tol=1e-13)
        assert math.isclose(got_c, got_q, rel_tol=1e-12, abs_tol=1e-15)


def test_statistic_stable_on_near_degenerate_rescaling():
    # the shape a fallback fit produces: tiny rescaled values, huge eta
    rng = np.random.default_rng(5)
    ys = np.sort(rng.exponential(1.0, 50)) * 1e-3 + 1e-6
    eta = 1.0 / float(np.mean(np.expm1(ys)))
    assert eta > 500
    for a in (0.1, 1.0, 10.0):
        inp = StatisticInput(ys, eta)
        w = WeightParam(a)
        want = brute_t(ys, eta, a)
        got_q = t_statistic_quadrature(inp, w)
        got_c = t_statistic_closed_form(inp, w)
        assert math.isclose(got_q, want, rel_tol=1e-8, abs_tol=1e-16)
        assert math.isclose(got_c, got_q, rel_tol=1e-11, abs_tol=1e-18)


def test_statistic_n1_hand_value():
    # V(s) = g*s on (0,y), then the constant g*y - 1; both integrals by hand
    y, eta, a = 0.5, 2.0, 1.0
    g = eta * math.exp(y) - 1.0
    head = g * g * (2.0 - math.exp(-a * y) * (a * a * y * y + 2 * a * y + 2.0)) / a**3
    tail = math.exp(-a * y) * (g * y - 1.0) ** 2 / a
    want = head + tail
    inp = StatisticInput([y], eta)
    assert math.isclose(t_statistic_quadrature(inp, WeightParam(a)), want, rel_tol=1e-12)
    assert math.isclose(t_statistic_closed_form(inp, WeightParam(a)), want, rel_tol=1e-12)


def test_pair_sum_expansion_agrees_on_healthy_inputs():
    # the pair expansion is numerically unstable on degenerate fits, so
    # compare on healthy shapes
    rng = np.random.default_rng(77)
    for _ in range(25):
        ys, eta, a = _case(rng)
        want = t_statistic_quadrature(StatisticInput(ys, eta), WeightParam(a))
        got = float(pair_sum_rows(ys[None, :], np.array([eta]), a)[0])
        assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-12)


@given(
    ys=st.lists(st.floats(0.01, 8.0), min_size=1, max_size=25),
    eta=st.floats(0.05, 20.0),
    a=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_equals_quadrature_property(ys, eta, a):
    inp = StatisticInput(np.asarray(ys), eta)
    w = WeightParam(a)
    got_c = t_statistic_closed_form(inp, w)
    got_q = t_statistic_quadrature(inp, w)
    assert got_c >= 0.0 and got_q >= 0.0
    assert math.isclose(got_c, got_q, rel_tol=1e-10, abs_tol=1e-15)


def test_v_process_hand_values():
    ys = [1.0, 2.0]
    eta = 0.5
    inp = StatisticInput(ys, eta)
    g1 = eta * math.exp(1.0) - 1.0
    g2 = eta * math.exp(2.0) - 1.0
    s = 1.5
    want = (g1 * 1.0 + g2 * 1.5) / 2.0 - 0.5
    assert math.isclose(v_process(inp, s), want, rel_tol=1e-14)
    # beyond the largest observation the transform part saturates
    want_tail = (g1 * 1.0 + g2 * 2.0) / 2.0 - 1.0
    assert math.isclose(v_process(inp, 5.0), want_tail, rel_tol=1e-14)
    with pytest.raises(ValueError):
        v_process(inp, 0.0)
    with pytest.raises(ValueError):
        v_process(inp, -1.0)
    for s in (math.nan, math.inf, "1.5", True):
        with pytest.raises(ValueError, match="s must"):
            v_process(inp, s)
    assert v_process(inp, 2) == v_process(inp, 2.0)


def test_input_validation():
    with pytest.raises(ValueError):
        WeightParam(0.0)
    with pytest.raises(ValueError):
        WeightParam(-1.0)
    with pytest.raises(ValueError):
        StatisticInput([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        StatisticInput([1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        StatisticInput([1.0, 800.0], 1.0)  # overflow guard on e^y
    for eta_hat in ("1", True, math.inf):
        with pytest.raises(ValueError, match="eta_hat must"):
            StatisticInput([1.0, 2.0], eta_hat)


def test_statistic_input_from_rescaled():
    x = gompertz_sample(GompertzParams(1.0, 2.0), 60, seed=3)
    fit = fit_mle(x)
    inp = StatisticInput.from_rescaled(rescale(x, fit))
    assert inp.eta_hat == fit.eta_hat
    assert np.array_equal(inp.sorted_values, np.sort(fit.b_hat * x))


def test_statistic_scale_free_under_refit():
    # same data in different units gives the same statistic up to fit noise
    x = gompertz_sample(GompertzParams(0.5, 1.0), 70, seed=11)
    w = WeightParam(1.0)
    t1 = t_statistic_closed_form(StatisticInput.from_rescaled(rescale(x, fit_mle(x))), w)
    y = 4.0 * x
    t2 = t_statistic_closed_form(StatisticInput.from_rescaled(rescale(y, fit_mle(y))), w)
    assert t1 == t2  # dyadic rescaling refits bitwise-equivariantly


def test_delta_estimate():
    x = gompertz_sample(GompertzParams(1.0, 1.0), 50, seed=2)
    fit = fit_mle(x)
    inp = StatisticInput.from_rescaled(rescale(x, fit))
    w = WeightParam(0.5)
    want = t_statistic_closed_form(inp, w) / 50
    assert delta_estimate(inp, w, 50) == want
    with pytest.raises(ValueError):
        delta_estimate(inp, w, 49)


def test_stein_transform_is_cdf_under_matching_gompertz():
    p = GompertzParams(2.0, 1.3)
    for s in (0.2, 0.8, 2.0, 5.0):
        got = stein_transform(p, p, s)
        assert math.isclose(got, gompertz_cdf(p, s), rel_tol=1e-8, abs_tol=1e-10)


def test_stein_transform_nonpositive_s_is_zero():
    p = GompertzParams(1.0, 1.0)
    assert stein_transform(p, p, 0.0) == 0.0
    assert stein_transform(p, p, -2.0) == 0.0


def test_stein_transform_alternative_density():
    # gamma(1) has exponential tails, so any b < 1 satisfies the moment bound
    spec = AlternativeSpec("gamma", k=1)
    p = GompertzParams(1.0, 0.5)
    got = stein_transform(spec, p, 1.0)
    assert math.isfinite(got)
    # uniform support ends at c: transform constant beyond it
    u = AlternativeSpec("uniform", c=1.0)
    g1 = stein_transform(u, GompertzParams(1.0, 1.0), 2.0)
    g2 = stein_transform(u, GompertzParams(1.0, 1.0), 3.0)
    assert math.isfinite(g1) and abs(g1 - g2) < 1e-9


def test_stein_transform_moment_condition_errors():
    p1 = GompertzParams(1.0, 1.0)
    for spec in (
        AlternativeSpec("lognormal", sigma=0.5),
        AlternativeSpec("shifted_pareto", nu=2.0),
        AlternativeSpec("weibull", k=0.5),
    ):
        with pytest.raises(MomentConditionError):
            stein_transform(spec, p1, 1.0)
    # exponential tail rate is exactly 1: b must be strictly below it
    with pytest.raises(MomentConditionError):
        stein_transform(AlternativeSpec("gamma", k=1), p1, 1.0)
    stein_transform(AlternativeSpec("gamma", k=1), GompertzParams(1.0, 0.9), 1.0)
    # mixture containing a gamma(5) component inherits its rate 1
    with pytest.raises(MomentConditionError):
        stein_transform(AlternativeSpec("mixture", p=0.5), GompertzParams(1.0, 1.1), 1.0)
    stein_transform(AlternativeSpec("mixture", p=0.5), GompertzParams(1.0, 0.5), 1.0)
    # weibull with k > 1 has superexponential decay: any b is fine
    stein_transform(AlternativeSpec("weibull", k=3.0), GompertzParams(1.0, 5.0), 1.0)


def test_statistic_decreases_under_null_with_n():
    # plug-in estimate of the limit shrinks on null data as n grows
    w = WeightParam(1.0)
    deltas = []
    for n in (100, 1000):
        vals = []
        for seed in range(5):
            x = gompertz_sample(GompertzParams(1.0, 1.0), n, seed=seed)
            inp = StatisticInput.from_rescaled(rescale(x, fit_mle(x)))
            vals.append(delta_estimate(inp, w, n))
        deltas.append(float(np.mean(vals)))
    assert deltas[1] < deltas[0]
