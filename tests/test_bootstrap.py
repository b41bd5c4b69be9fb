import math
import tracemalloc

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
from gomptest.distributions import (
    AlternativeSpec,
    GompertzParams,
    _gompertz_quantile_raw,
    _positive_uniforms,
    alt_sample,
    gompertz_sample,
)
from gomptest.edf_tests import (
    EdfInput,
    ad_statistic,
    cm_statistic,
    ks_statistic,
    watson_statistic,
)
from gomptest.estimation import ScoreOverflowError, fit_batch, fit_mle, rescale
from gomptest.rng import substream
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
    for q in (math.nan, "0.5", True):
        with pytest.raises(ValueError, match="q must"):
            empirical_quantile([1.0], q)


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
    # the positive-real rule: no text, no bool, nothing infinite
    for a in ("2", True, math.inf):
        with pytest.raises(ValueError, match="weight parameter a"):
            TestKind("stein", a)
        with pytest.raises(ValueError, match="weight parameter a"):
            WeightParam(a)
    assert TestKind("stein", np.float64(2.0)) == TestKind("stein", 2)


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


def test_battery_checks_its_request_once_and_takes_a_one_shot_iterator(monkeypatch):
    calls = []
    inner = bootstrap._checked_request

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(bootstrap, "_checked_request", spy)
    x = gompertz_sample(GompertzParams(0.5, 1.0), 50, seed=3)
    listed = bootstrap_many(x, ALL_KINDS, B=60, alpha=0.05, seed=7)
    once = bootstrap_many(x, iter(ALL_KINDS), B=60, alpha=0.05, seed=7)
    assert len(calls) == 2
    assert list(once) == list(ALL_KINDS) and once == listed


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
    with pytest.raises(ValueError):
        bootstrap_test(x, TestKind("ks"), B=2.5, alpha=0.05, seed=1)
    # the replicates alone check their request too, before drawing anything
    ks = [TestKind("ks")]
    for eta_hat in (math.nan, math.inf, 0.0, -1.0, "1"):
        with pytest.raises(ValueError, match="eta_hat"):
            bootstrap_replicates(eta_hat, 30, ks, 50, 1)
    for n in (1, 0, 30.0, 2.5):
        with pytest.raises(ValueError, match="n must"):
            bootstrap_replicates(1.0, n, ks, 50, 1)
    for B in (0, -1, 2.5, 50.0, True):
        with pytest.raises(ValueError, match="B must"):
            bootstrap_replicates(1.0, 30, ks, B, 1)
    for kinds in ([], ks + ks, ["ks"]):
        with pytest.raises(ValueError, match="kind"):
            bootstrap_replicates(1.0, 30, kinds, 50, 1)
    stats, nf = bootstrap_replicates(1.0, np.int64(2), ks, np.int64(1), 1)
    assert stats[TestKind("ks")].shape == (1,) and type(nf) is float
    # a bool is not a count and text is not a level, at the call itself
    with pytest.raises(ValueError, match="B must"):
        bootstrap_many(x, ks, B=True, alpha=0.05, seed=1)
    for alpha in ("0.05", math.nan):
        with pytest.raises(ValueError, match="alpha must"):
            bootstrap_many(x, ks, B=50, alpha=alpha, seed=1)


def test_fallback_sample_still_tested():
    # data whose fit lands on the fallback scale must still produce a result
    x = alt_sample(AlternativeSpec("gamma", k=1), 30, seed=2)
    out = bootstrap_test(x, TestKind("stein", 1.0), B=80, alpha=0.05, seed=4)
    assert out.fit.fallback_used
    assert math.isfinite(out.statistic) and math.isfinite(out.critical_value)


@pytest.mark.parametrize("budget", ["one_row", "ragged", "one_stage"])
def test_bootstrap_does_not_depend_on_the_stage(budget, monkeypatch):
    # gamma(0.8) data sit at the b->0 boundary, so fallback refits fall in
    # stages that also hold converged ones
    kinds = ALL_KINDS + [TestKind("stein", 10.0)]
    B, seed = 11, 5
    mixed = 0
    for n in (2, 5, 30, 1000):
        x = alt_sample(AlternativeSpec("gamma", k=0.8), n, seed=n)
        eta_hat = fit_mle(x).eta_hat
        # the unstaged pipeline: one (B, n) draw, refit and score
        u = _positive_uniforms(substream(seed), (B, n))
        fits = fit_batch(_gompertz_quantile_raw(eta_hat, 1.0, u))
        want = bootstrap._statistic_rows(kinds, fits)
        want_nf = float(np.mean(fits.fallback))
        block = {"one_row": 1, "ragged": (B // 2) * n, "one_stage": B * n}[budget]
        monkeypatch.setattr(bootstrap, "_STAGE_BLOCK", block)
        got, nf = bootstrap_replicates(eta_hat, n, kinds, B, seed)
        monkeypatch.undo()
        for kind in kinds:
            assert got[kind].tobytes() == want[kind].tobytes(), (n, kind)
        assert nf.hex() == want_nf.hex(), n
        mixed += 0.0 < nf < 1.0
    assert mixed >= 2


def test_bootstrap_memory_is_bounded_by_the_stage():
    # an unstaged (B, n) pipeline peaks at about 122 MiB here
    kinds = ALL_KINDS
    tracemalloc.start()
    try:
        stats, _ = bootstrap_replicates(1.0, 5000, kinds, 400, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(stats[k].shape == (400,) for k in kinds)
    assert peak < 16 * 8 * bootstrap._STAGE_BLOCK
