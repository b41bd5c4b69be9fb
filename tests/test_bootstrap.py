import math

import numpy as np
import pytest

from gomptest import bootstrap
from gomptest.bootstrap import (
    TestKind,
    TestOutcome,
    bootstrap_many,
    bootstrap_replicates,
    bootstrap_test,
    empirical_quantile,
)
from gomptest.distributions import AlternativeSpec, GompertzParams, alt_sample, gompertz_sample
from gomptest.edf_tests import (
    EdfInput,
    ad_statistic,
    cm_statistic,
    ks_statistic,
    watson_statistic,
)
from gomptest.estimation import ScoreOverflowError, fit_mle, rescale
from gomptest.simulation import DEFAULT_A_GRID
from gomptest.stein_statistic import StatisticInput, WeightParam, t_statistic_closed_form

ALL_KINDS = [
    TestKind("stein", 1.0),
    TestKind("stein", 2.0),
    TestKind("ks"),
    TestKind("ad"),
    TestKind("cm"),
    TestKind("wa"),
]


def test_empirical_quantile_examples():
    assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.75) == 3.0
    assert empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.76) == 4.0
    assert empirical_quantile([3.0, 1.0, 2.0], 0.99) == 3.0
    # 0.95 * 500 is 475 mathematically; float rounding must not push it to 476
    v = np.arange(1.0, 501.0)
    assert empirical_quantile(v, 0.95) == 475.0


def test_empirical_quantile_validation():
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 0.0)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 1.0)


def test_kind_validation():
    assert str(TestKind("stein", 1.0)) == "stein(a=1)"
    assert str(TestKind("ks")) == "ks"
    with pytest.raises(ValueError):
        TestKind("stein")  # needs a
    with pytest.raises(ValueError):
        TestKind("stein", -1.0)
    with pytest.raises(ValueError):
        TestKind("ks", 1.0)  # classics take no tuning parameter
    with pytest.raises(ValueError):
        TestKind("nosuch")
    assert TestKind("stein", 2.0) == TestKind("stein", 2.0)
    assert len({TestKind("ks"), TestKind("ks")}) == 1


def test_bootstrap_deterministic():
    x = gompertz_sample(GompertzParams(1.0, 1.0), 60, seed=14)
    a = bootstrap_test(x, TestKind("stein", 1.0), B=150, alpha=0.05, seed=9)
    b = bootstrap_test(x, TestKind("stein", 1.0), B=150, alpha=0.05, seed=9)
    assert a.statistic == b.statistic
    assert a.p_value == b.p_value
    assert a.critical_value == b.critical_value
    assert a.reject == b.reject
    c = bootstrap_test(x, TestKind("stein", 1.0), B=150, alpha=0.05, seed=10)
    assert c.critical_value != a.critical_value


def test_single_kind_equals_battery():
    x = gompertz_sample(GompertzParams(0.5, 1.0), 50, seed=3)
    many = bootstrap_many(x, ALL_KINDS, B=120, alpha=0.05, seed=7)
    for kind in ALL_KINDS:
        one = bootstrap_test(x, kind, B=120, alpha=0.05, seed=7)
        assert one.statistic == many[kind].statistic
        assert one.p_value == many[kind].p_value
        assert one.critical_value == many[kind].critical_value
        assert one.reject == many[kind].reject


def test_outcome_reconstructed_from_replicates():
    # the pipeline decomposes into public pieces: data statistic, replicate
    # statistics, order-statistic critical value, counting p-value
    x = gompertz_sample(GompertzParams(1.0, 1.0), 40, seed=21)
    kind = TestKind("stein", 1.0)
    B, alpha, seed = 90, 0.10, 33
    out = bootstrap_test(x, kind, B=B, alpha=alpha, seed=seed)

    fit = fit_mle(x)
    t_data = t_statistic_closed_form(
        StatisticInput.from_rescaled(rescale(x, fit)), WeightParam(1.0)
    )
    assert out.statistic == t_data

    stats, nf = bootstrap_replicates(fit.eta_hat, x.size, [kind], B, seed)
    tstar = stats[kind]
    assert tstar.shape == (B,)
    assert out.critical_value == empirical_quantile(tstar, 1.0 - alpha)
    assert out.p_value == float(np.mean(tstar >= t_data))
    assert out.reject == (t_data > out.critical_value)
    assert out.not_found_frequency_bootstrap == nf


def test_edf_kinds_match_direct_statistics():
    samples = [
        (gompertz_sample(GompertzParams(1.0, 1.0), 45, seed=2), False),
        # a fallback fit whose PIT values reach 1 - EPS and are clipped
        (gompertz_sample(GompertzParams(1.0, 1.0), 100, seed=3) * 1e5, True),
    ]
    for x, clipped in samples:
        fit = fit_mle(x)
        inp = EdfInput.from_rescaled(rescale(x, fit))
        assert (fit.fallback_used, inp.clipped) == (clipped, clipped)
        many = bootstrap_many(x, ALL_KINDS, B=60, alpha=0.05, seed=1)
        assert many[TestKind("ks")].statistic == ks_statistic(inp)
        assert many[TestKind("ad")].statistic == ad_statistic(inp)
        assert many[TestKind("cm")].statistic == cm_statistic(inp)
        assert many[TestKind("wa")].statistic == watson_statistic(inp)


def test_stein_grid_is_one_call_per_batch(monkeypatch):
    # the data and the refits each evaluate the whole a-grid in one call
    grids = []
    inner = bootstrap._t_closed_form_rows

    def spy(ys, eta, a_grid):
        grids.append(tuple(a_grid))
        return inner(ys, eta, a_grid)

    monkeypatch.setattr(bootstrap, "_t_closed_form_rows", spy)
    kinds = [TestKind("stein", a) for a in DEFAULT_A_GRID]
    kinds += [TestKind(name) for name in ("ks", "ad", "cm", "wa")]
    x = gompertz_sample(GompertzParams(1.0, 1.0), 30, seed=5)
    bootstrap_many(x, kinds, B=40, alpha=0.05, seed=2)
    assert grids == [DEFAULT_A_GRID, DEFAULT_A_GRID]


def test_outcome_fields():
    x = gompertz_sample(GompertzParams(1.0, 1.0), 30, seed=5)
    out = bootstrap_test(x, TestKind("cm"), B=80, alpha=0.05, seed=2)
    assert isinstance(out, TestOutcome)
    assert out.kind == TestKind("cm")
    assert out.B == 80 and out.alpha == 0.05
    assert 0.0 <= out.p_value <= 1.0
    assert 0.0 <= out.not_found_frequency_bootstrap <= 1.0
    assert out.fit.converged in (True, False)
    with pytest.raises(Exception):
        out.p_value = 0.5


def test_data_fit_overflow_raises():
    # eta_hat of the data fit overflows to 0 at the fallback scale; the
    # bootstrap must not calibrate statistics of a fit that does not exist
    x = alt_sample(AlternativeSpec("gamma", k=1.0), 30, seed=0) * 1e6
    with pytest.raises(ScoreOverflowError):
        bootstrap_many(x, ALL_KINDS, B=20, alpha=0.05, seed=1)


def test_power_against_far_alternative():
    # lognormal data is far from every Gompertz law; the test should reject
    x = alt_sample(AlternativeSpec("lognormal", sigma=0.5), 100, seed=6)
    out = bootstrap_test(x, TestKind("stein", 1.0), B=200, alpha=0.05, seed=3)
    assert out.reject and out.p_value < 0.05


def test_level_sanity_under_null():
    rejects = 0
    for seed in range(10):
        x = gompertz_sample(GompertzParams(1.0, 1.0), 50, seed=100 + seed)
        out = bootstrap_test(x, TestKind("stein", 1.0), B=100, alpha=0.05, seed=seed)
        rejects += int(out.reject)
    assert rejects <= 3


def test_validation():
    x = gompertz_sample(GompertzParams(1.0, 1.0), 30, seed=1)
    with pytest.raises(ValueError):
        bootstrap_many(x, [], B=50, alpha=0.05, seed=1)
    with pytest.raises(ValueError):
        bootstrap_many(x, [TestKind("ks"), TestKind("ks")], B=50, alpha=0.05, seed=1)
    with pytest.raises(ValueError):
        bootstrap_test(x, TestKind("ks"), B=0, alpha=0.05, seed=1)
    with pytest.raises(ValueError):
        bootstrap_test(x, TestKind("ks"), B=50, alpha=0.0, seed=1)
    with pytest.raises(ValueError):
        bootstrap_test(x, TestKind("ks"), B=50, alpha=1.0, seed=1)
    with pytest.raises(ValueError):
        bootstrap_test([2.0, 2.0, 2.0], TestKind("ks"), B=50, alpha=0.05, seed=1)
    with pytest.raises(ValueError):
        bootstrap_test([1.0], TestKind("ks"), B=50, alpha=0.05, seed=1)


def test_fallback_sample_still_tested():
    # data whose fit lands on the fallback scale must still produce a result
    x = alt_sample(AlternativeSpec("gamma", k=1), 30, seed=2)
    out = bootstrap_test(x, TestKind("stein", 1.0), B=80, alpha=0.05, seed=4)
    assert out.fit.fallback_used
    assert math.isfinite(out.statistic) and math.isfinite(out.critical_value)
