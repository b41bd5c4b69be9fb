import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

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
    _FAMILIES,
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
from gomptest.rng import derive_key, substream
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
    # at n=5000 an unstaged (B, n) pipeline peaks at about 122 MiB; the
    # 14-kind default battery at n=100 is the gof call's shape, where the
    # stein engine's a axis is longest
    for kinds, n in ((ALL_KINDS, 5000), (DEFAULT_KINDS, 100)):
        tracemalloc.start()
        try:
            stats, _ = bootstrap_replicates(1.0, n, kinds, 400, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(stats[k].shape == (400,) for k in kinds)
        assert peak < 16 * 8 * bootstrap._STAGE_BLOCK


# Rows that a batched call must pass through unchanged: a data fit that
# overflows, a sample without two distinct values, and a fit whose pilot is
# unusable, so that its b_pilot is NaN and == on its outcomes is False.
SPECIAL_ROWS = {
    "overflow": alt_sample(AlternativeSpec("lognormal", sigma=6), 30, seed=0),
    "all_equal": np.full(30, 2.0),
    "nan_pilot": alt_sample(AlternativeSpec("weibull", k=0.5), 30, seed=0),
}
BATCH_FAMILIES = (
    GompertzParams(1.0, 1.0),
    GompertzParams(0.5, 1.0),
    AlternativeSpec("gamma", k=0.8),
    AlternativeSpec("lognormal", sigma=0.5),
    AlternativeSpec("weibull", k=3),
)


def _bits(value):
    """The value with each float as its hex text: == on the result is bitwise,
    and a NaN field equals itself; an exception is its type and arguments."""
    if isinstance(value, Exception):
        return type(value), value.args
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value.hex() if isinstance(value, float) else value


@given(
    rows=st.lists(
        st.one_of(
            st.sampled_from(sorted(SPECIAL_ROWS)),
            st.tuples(st.sampled_from(BATCH_FAMILIES), st.integers(0, 10_000)),
        ),
        min_size=1,
        max_size=4,
    ),
    kinds=st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=3, unique=True),
    B=st.integers(3, 12),
    stage_rows=st.integers(1, 30),
    seed=st.integers(0, 2**64 - 1),
)
@example(
    rows=["overflow", (BATCH_FAMILIES[0], 1), "all_equal", "nan_pilot"],
    kinds=ALL_KINDS, B=7, stage_rows=5, seed=3,
)
@settings(max_examples=40, deadline=None)
def test_batch_entries_equal_their_one_sample_calls(rows, kinds, B, stage_rows, seed):
    # stages of a few rows span the boundaries between samples; each sample's
    # one-sample call runs in one stage at the default size
    x = np.array([SPECIAL_ROWS[r] if isinstance(r, str) else alt_sample(r[0], 30, r[1]) for r in rows])
    seeds = [derive_key(seed, i) for i in range(len(rows))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "_STAGE_BLOCK", stage_rows * 30)
        batch = bootstrap_many(x, kinds, B=B, alpha=0.1, seed=seeds)
    assert len(batch) == len(rows)
    for r, xi, s, entry in zip(rows, x, seeds, batch):
        try:
            one = bootstrap_many(xi, kinds, B=B, alpha=0.1, seed=s)
        except (ValueError, ArithmeticError) as exc:
            one = exc
        assert _bits(entry) == _bits(one)
        if r == "overflow":
            assert isinstance(entry, ScoreOverflowError)
        elif r == "all_equal":
            assert type(entry) is ValueError
        elif r == "nan_pilot":
            assert math.isnan(entry[kinds[0]].fit.b_pilot)


def test_batch_request_errors_raise():
    x = np.array([gompertz_sample(GompertzParams(1.0, 1.0), 20, seed=s) for s in range(3)])
    ks = [TestKind("ks")]
    with pytest.raises(ValueError, match="one seed per sample"):
        bootstrap_many(x, ks, B=10, alpha=0.05, seed=[1, 2])
    with pytest.raises(ValueError, match="seeds"):
        bootstrap_many(x, ks, B=10, alpha=0.05, seed=[1, 2, -3])
    # a number or a string is no sequence of seeds, even one of length m
    for seed in (7, "abc"):
        with pytest.raises(ValueError, match="one seed per sample"):
            bootstrap_many(x, ks, B=10, alpha=0.05, seed=seed)
    with pytest.raises(ValueError, match="B must"):
        bootstrap_many(x, ks, B=0, alpha=0.05, seed=[1, 2, 3])
    assert bootstrap_many(np.empty((0, 20)), ks, B=10, alpha=0.05, seed=[]) == []


# Invariances that reordering, batching or cutting the bootstrap work relies
# on, over every family of the distribution table at small n and B. Outcomes
# are compared with _bits, since a fit with a NaN b_pilot is != itself.
DEFAULT_KINDS = bootstrap._expand_tests(bootstrap.DEFAULT_TESTS, DEFAULT_A_GRID)
FAMILY_SPECS = st.sampled_from(sorted(_FAMILIES)).flatmap(
    lambda name: st.fixed_dictionaries(
        {p: st.floats(0.0, 1.0) if p in _FAMILIES[name].unit else st.floats(0.5, 3.0)
         for p in _FAMILIES[name].params}
    ).map(lambda params: AlternativeSpec(name, **params))
)
EXPLICIT_CASES = (
    (AlternativeSpec("gompertz", eta=1, b=1), 50),
    (AlternativeSpec("gamma", k=0.8), 40),
    (AlternativeSpec("weibull", k=0.5), 30),  # an unusable pilot: b_pilot is NaN
)


def _outcomes(x, kinds, B, seed):
    try:
        return bootstrap_many(x, kinds, B=B, alpha=0.1, seed=seed)
    except (ValueError, ArithmeticError) as exc:
        return exc


def _with_explicit_cases(**extra):
    def decorate(test):
        for spec, n in EXPLICIT_CASES:
            test = example(spec=spec, n=n, data_seed=0, seed=1, **extra)(test)
        return test
    return decorate


@given(
    spec=FAMILY_SPECS, n=st.integers(5, 50), data_seed=st.integers(0, 10_000),
    seed=st.integers(0, 2**64 - 1), B=st.integers(2, 120), share=st.floats(0.0, 1.0),
    stage_rows=st.integers(1, 200),
)
@_with_explicit_cases(B=120, share=50 / 120, stage_rows=200)
@settings(max_examples=25, deadline=None)
def test_bootstrap_prefix_is_the_shorter_call(spec, n, data_seed, seed, B, share, stage_rows):
    # the first L statistics of a B-replicate call are the L-replicate call,
    # for any stage size
    try:
        eta_hat = fit_mle(alt_sample(spec, n, data_seed)).eta_hat
    except (ValueError, ArithmeticError):
        reject()
    L = max(1, round(share * B))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "_STAGE_BLOCK", stage_rows * n)
        full, _ = bootstrap_replicates(eta_hat, n, DEFAULT_KINDS, B, seed)
        prefix, _ = bootstrap_replicates(eta_hat, n, DEFAULT_KINDS, L, seed)
    for kind in DEFAULT_KINDS:
        assert full[kind][:L].tobytes() == prefix[kind].tobytes(), kind


@given(
    spec=FAMILY_SPECS, n=st.integers(5, 50), data_seed=st.integers(0, 10_000),
    seed=st.integers(0, 2**64 - 1),
    subset=st.lists(st.sampled_from(DEFAULT_KINDS), min_size=1, max_size=4, unique=True),
)
@_with_explicit_cases(subset=[TestKind("ks"), TestKind("stein", 5.0)])
@settings(max_examples=25, deadline=None)
def test_kind_outcome_does_not_depend_on_the_other_kinds(spec, n, data_seed, seed, subset):
    x = alt_sample(spec, n, data_seed)
    every, some = _outcomes(x, DEFAULT_KINDS, 30, seed), _outcomes(x, subset, 30, seed)
    if isinstance(every, Exception):
        assert _bits(some) == _bits(every)
    else:
        assert list(some) == subset
        for kind in subset:
            assert _bits(some[kind]) == _bits(every[kind]), kind


@given(
    spec=FAMILY_SPECS, n=st.integers(5, 50), data_seed=st.integers(0, 10_000),
    seed=st.integers(0, 2**64 - 1), shuffle=st.integers(0, 2**32 - 1),
)
@_with_explicit_cases(shuffle=2)
@settings(max_examples=25, deadline=None)
def test_shuffling_the_sample_changes_no_output(spec, n, data_seed, seed, shuffle):
    x = alt_sample(spec, n, data_seed)
    shuffled = np.random.default_rng(shuffle).permutation(x)
    assert _bits(_outcomes(shuffled, DEFAULT_KINDS, 30, seed)) == _bits(
        _outcomes(x, DEFAULT_KINDS, 30, seed)
    )
