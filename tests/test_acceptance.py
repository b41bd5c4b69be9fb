"""End-to-end acceptance gate: eight checks, one test per criterion.

Each test emits one `CRITERION k: PASS/FAIL` line carrying the measured
quantities; conftest.py replays the collected lines as an uncaptured
summary section at the end of the run, so they survive pytest's capture.

Criteria 3 and 4 rerun the calibration and power studies at reduced scale
(M=2000/B=500 and M=1000/B=500) and take a few minutes each on one core;
every other criterion finishes in seconds. Published rejection rates are
reported as rounded percentages, hence the +-1.5 percentage-point gate.
"""

import math
import time

import numpy as np
import pytest

from gomptest import (
    DEFAULT_A_GRID,
    AlternativeSpec,
    GompertzParams,
    LifeTable,
    SimulationConfig,
    StatisticInput,
    TestKind,
    alt_sample,
    bootstrap_many,
    bootstrap_test,
    delta_estimate,
    fit_mle,
    gompertz_cdf,
    gompertz_quantile,
    gompertz_sample,
    hazard_to_pmf,
    pilot_from_cumhaz,
    pmf_to_hazard,
    report_to_csv,
    rescale,
    run_study,
    stein_transform,
    t_statistic_closed_form,
    t_statistic_quadrature,
    truncate_pmf,
)


VERDICTS = []


def _verdict(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    VERDICTS.append(line)
    return line


def test_criterion_1_closed_form_matches_piecewise_quadrature():
    rng = np.random.default_rng(20260818)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 51))
        a = float(rng.uniform(0.1, 10.0))
        eta = float(rng.uniform(0.1, 5.0))
        kind = i % 3
        if kind == 0:
            y = rng.exponential(rng.uniform(0.05, 2.0), n)
        elif kind == 1:
            y = rng.uniform(0.0, rng.uniform(0.2, 6.0), n)
        else:
            y = rng.gamma(2.0, rng.uniform(0.05, 1.5), n)
        inp = StatisticInput(np.maximum(y, 1e-12), eta)
        closed = t_statistic_closed_form(inp, a)
        quad = t_statistic_quadrature(inp, a)
        worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-300))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    line = _verdict(
        1, ok, f"1000 instances, max rel deviation {worst:.3e} (< 1e-8), {elapsed:.1f}s"
    )
    assert ok, line


def test_criterion_2_transform_identity_characterises_the_null():
    t0 = time.monotonic()
    sup_null = 0.0
    for eta in (0.5, 1.0, 2.0, 4.0):
        for b in (0.5, 1.0, 2.0):
            p = GompertzParams(eta, b)
            grid = gompertz_quantile(p, np.linspace(0.01, 0.99, 50))
            sup = max(abs(stein_transform(p, p, s) - gompertz_cdf(p, s)) for s in grid)
            sup_null = max(sup_null, sup)
    gam = AlternativeSpec("gamma", k=1.0)
    fit = fit_mle(alt_sample(gam, 10_000, seed=1))
    fitted = GompertzParams(fit.eta_hat, fit.b_hat)
    grid = gompertz_quantile(fitted, np.linspace(0.01, 0.99, 50))
    sup_gam = max(abs(stein_transform(gam, fitted, s) - gompertz_cdf(fitted, s)) for s in grid)
    elapsed = time.monotonic() - t0
    ok = sup_null < 1e-6 and sup_gam > 1e-3 and elapsed < 60.0
    line = _verdict(
        2,
        ok,
        f"null sup {sup_null:.3e} (< 1e-6), fitted-gamma(1) sup {sup_gam:.3e} "
        f"(> 1e-3), {elapsed:.1f}s",
    )
    assert ok, line


def _level_targets(stein1, stein2, ad, ks, cm, wa):
    return {
        TestKind("stein", 1.0): stein1,
        TestKind("stein", 2.0): stein2,
        TestKind("ad"): ad,
        TestKind("ks"): ks,
        TestKind("cm"): cm,
        TestKind("wa"): wa,
    }


@pytest.mark.slow
def test_criterion_3_null_rejection_rates_match_published_levels():
    config = SimulationConfig(
        scenarios=(GompertzParams(0.5, 1.0), GompertzParams(1.0, 1.0)),
        sizes=(50, 100),
        a_grid=(1.0, 2.0),
        tests=("stein", "ks", "ad", "cm", "wa"),
        alpha=0.05,
        replications=2000,
        bootstrap=500,
        seed=1,
    )
    report = run_study(config, workers=1)
    targets = {
        ("gompertz(0.5,1)", 50): _level_targets(0.06, 0.06, 0.05, 0.05, 0.05, 0.05),
        ("gompertz(0.5,1)", 100): _level_targets(0.05, 0.05, 0.05, 0.05, 0.05, 0.05),
        ("gompertz(1,1)", 50): _level_targets(0.05, 0.06, 0.05, 0.05, 0.05, 0.05),
        ("gompertz(1,1)", 100): _level_targets(0.05, 0.06, 0.05, 0.05, 0.05, 0.05),
    }
    worst = 0.0
    worst_at = ""
    for cell in report.cells:
        for kind, target in targets[cell.scenario, cell.n].items():
            dev = abs(cell.rejection_rate(kind) - target)
            if dev > worst:
                worst, worst_at = dev, f"{cell.scenario} n={cell.n} {kind}"
    ok = worst <= 0.015
    line = _verdict(
        3,
        ok,
        f"24 rates vs published levels, max |deviation| {worst * 100:.2f}pp "
        f"at {worst_at} (<= 1.5pp), M=2000 B=500, {report.seconds:.0f}s",
    )
    assert ok, line


@pytest.mark.slow
def test_criterion_4_power_against_alternatives_at_desk_scale():
    runs = (
        (AlternativeSpec("lognormal", sigma=0.5), 50, (1.0,)),
        (AlternativeSpec("gamma", k=3.0), 100, (2.0,)),
        (AlternativeSpec("weibull", k=3.0), 100, (10.0,)),
        (AlternativeSpec("gamma", k=1.0), 100, DEFAULT_A_GRID),
    )
    cells = {}
    for spec, n, grid in runs:
        config = SimulationConfig(
            scenarios=(spec,),
            sizes=(n,),
            a_grid=grid,
            tests=("stein",),
            alpha=0.05,
            replications=1000,
            bootstrap=500,
            seed=1,
        )
        cells[spec.label()] = run_study(config, workers=1).cells[0]
    ln = cells["lognormal(0.5)"].rejection_rate(TestKind("stein", 1.0))
    g3 = cells["gamma(3)"].rejection_rate(TestKind("stein", 2.0))
    w3 = cells["weibull(3)"].rejection_rate(TestKind("stein", 10.0))
    g1 = max(
        cells["gamma(1)"].rejection_rate(TestKind("stein", a)) for a in DEFAULT_A_GRID
    )
    ok = ln >= 0.90 and g3 >= 0.90 and w3 <= 0.05 and g1 <= 0.10
    line = _verdict(
        4,
        ok,
        f"lognormal(0.5) n=50 a=1: {ln:.3f} (>= 0.90); gamma(3) n=100 a=2: "
        f"{g3:.3f} (>= 0.90); weibull(3) n=100 a=10: {w3:.3f} (<= 0.05); "
        f"gamma(1) n=100 max over a: {g1:.3f} (<= 0.10); M=1000 B=500",
    )
    assert ok, line


def test_criterion_5_discrepancy_rate_separates_null_from_fixed_alternative():
    # gamma(3) is a fixed alternative with an interior pseudo-true scale: the
    # population profile score ((1-b)^-3 - 1)(3b + 1) - 3b(1-b)^-4 from the
    # gamma moment-generating function vanishes at b* = 0.26576, below the
    # tail rate 1 and below 1/2. gamma(1) = Exp(1) is no such alternative: it
    # is the b -> 0 boundary of the Gompertz family, covered by criterion 4.
    go = GompertzParams(1.0, 1.0)
    gam = AlternativeSpec("gamma", k=3.0)
    b_star = 0.26576
    sizes = (100, 1000, 10_000)
    means = {}
    alt_fits = []
    for name, draw in (
        ("go", lambda n, s: gompertz_sample(go, n, seed=s)),
        ("gamma", lambda n, s: alt_sample(gam, n, seed=s)),
    ):
        for n in sizes:
            vals = []
            for i in range(20):
                x = draw(n, 10_000 + i)
                fit = fit_mle(x)
                if name == "gamma" and n == 10_000:
                    alt_fits.append(fit)
                inp = StatisticInput.from_rescaled(rescale(x, fit))
                vals.append(delta_estimate(inp, 1.0, n))
            means[name, n] = float(np.mean(vals))
    alt_fallbacks = sum(f.fallback_used for f in alt_fits)
    alt_b_median = float(np.median([f.b_hat for f in alt_fits]))
    alt_interior = alt_fallbacks == 0 and abs(alt_b_median / b_star - 1.0) <= 0.05
    null_decreasing = means["go", 100] > means["go", 1000] > means["go", 10_000]
    null_toward_zero = means["go", 10_000] < 0.05 * means["go", 100]
    alt_positive = means["gamma", 10_000] > 0.0
    ratio = means["gamma", 10_000] / means["go", 10_000]
    alt_dominates = ratio >= 5.0
    ok = (
        alt_interior
        and null_decreasing
        and null_toward_zero
        and alt_positive
        and alt_dominates
    )
    line = _verdict(
        5,
        ok,
        "mean T/n over 20 seeds, a=1: go(1,1) "
        f"{means['go', 100]:.2e} > {means['go', 1000]:.2e} > {means['go', 10_000]:.2e} "
        f"(decreasing: {null_decreasing}, toward zero: {null_toward_zero}); "
        f"gamma(3) at n=10^4: median b_hat {alt_b_median:.4f} vs b*={b_star} "
        f"with {alt_fallbacks}/20 fallbacks (interior, within 5%: {alt_interior}), "
        f"mean T/n {means['gamma', 10_000]:.2e} (positive: {alt_positive}), "
        f"ratio to null {ratio:.1f} (required >= 5: {alt_dominates})",
    )
    assert ok, line


def test_criterion_6_estimator_equivariance_consistency_and_pilot_identity():
    worst = 0.0
    cases = (
        (GompertzParams(0.5, 1.0), 60, 21),
        (GompertzParams(1.0, 2.0), 120, 22),
        (GompertzParams(2.0, 0.5), 200, 23),
    )
    for params, n, seed in cases:
        x = gompertz_sample(params, n, seed=seed)
        base = fit_mle(x)
        for beta in (0.5, 2.0, 10.0):
            scaled = fit_mle(beta * x)
            worst = max(
                worst,
                abs(scaled.b_hat * beta / base.b_hat - 1.0),
                abs(scaled.eta_hat / base.eta_hat - 1.0),
            )
    equivariant = worst <= 1e-8
    fit = fit_mle(gompertz_sample(GompertzParams(2.0, 1.0), 10_000, seed=3))
    consistent = abs(fit.eta_hat / 2.0 - 1.0) <= 0.05 and abs(fit.b_hat - 1.0) <= 0.05
    pilot_exact = all(
        pilot_from_cumhaz(2.0 * math.log(3.0) / b, 4.0, 1.0) == b
        for b in (0.5, 1.0, 2.0, 4.0)
    )
    ok = equivariant and consistent and pilot_exact
    line = _verdict(
        6,
        ok,
        f"equivariance worst rel error {worst:.2e} (<= 1e-8) over 3 samples x "
        f"beta in {{0.5,2,10}}; n=10^4 go(2,1) fit eta={fit.eta_hat:.4f} "
        f"b={fit.b_hat:.4f} (within 5%: {consistent}); exact-hazard pilot "
        f"identity bitwise: {pilot_exact}",
    )
    assert ok, line


def test_criterion_7_lifetable_recursion_roundtrip_and_geometric_identity():
    rng = np.random.default_rng(7)
    q = rng.uniform(0.005, 0.15, 60)
    q[-1] = 0.85  # leaves residual survival: not a full table
    pmf = hazard_to_pmf(LifeTable(ages=np.arange(60), hazards=q))
    roundtrip = float(np.max(np.abs(pmf_to_hazard(pmf).hazards - q)))
    trunc = truncate_pmf(pmf, 9, 50)
    trunc_sum_err = abs(float(np.sum(trunc.masses)) - 1.0)
    again = hazard_to_pmf(pmf_to_hazard(trunc))
    trunc_rt = float(np.max(np.abs(again.masses - trunc.masses)))
    c = 0.3
    k = np.arange(50)
    geo = c * (1.0 - c) ** k
    geo /= geo.sum()
    const = hazard_to_pmf(LifeTable(ages=k, hazards=np.full(50, c)))
    geo_err = float(np.max(np.abs(const.masses - geo)))
    ok = roundtrip <= 1e-12 and trunc_sum_err <= 1e-12 and trunc_rt <= 1e-12 and geo_err <= 1e-12
    line = _verdict(
        7,
        ok,
        f"hazard round-trip max err {roundtrip:.2e}, truncated pmf sum err "
        f"{trunc_sum_err:.2e}, truncated hazard/mass round-trip {trunc_rt:.2e}, "
        f"constant-hazard vs geometric {geo_err:.2e} (all <= 1e-12)",
    )
    assert ok, line


def test_criterion_8_seeded_runs_are_bitwise_reproducible():
    x = gompertz_sample(GompertzParams(1.0, 1.0), 60, seed=14)
    kind = TestKind("stein", 1.0)
    first = bootstrap_test(x, kind, B=300, alpha=0.05, seed=7)
    second = bootstrap_test(x, kind, B=300, alpha=0.05, seed=7)
    battery = bootstrap_many(x, (kind, TestKind("ks")), B=300, alpha=0.05, seed=7)[kind]
    same_test = all(
        getattr(first, f) == getattr(second, f) == getattr(battery, f)
        for f in ("statistic", "p_value", "critical_value", "reject",
                  "not_found_frequency_bootstrap")
    )
    config = SimulationConfig(
        scenarios=(GompertzParams(1.0, 1.0), AlternativeSpec("gamma", k=1.0)),
        sizes=(25,),
        a_grid=(1.0,),
        tests=("stein", "ks"),
        replications=30,
        bootstrap=60,
        seed=5,
    )
    serial_a = run_study(config, workers=1, progress=False)
    serial_b = run_study(config, workers=1, progress=False)
    parallel = run_study(config, workers=2, progress=False)
    same_csv = report_to_csv(serial_a) == report_to_csv(serial_b) == report_to_csv(parallel)
    same_counts = all(
        ca.rejections == cb.rejections == cp.rejections
        and ca.not_found_fit == cb.not_found_fit == cp.not_found_fit
        and ca.not_found_boot == cb.not_found_boot == cp.not_found_boot
        for ca, cb, cp in zip(serial_a.cells, serial_b.cells, parallel.cells)
    )
    ok = same_test and same_csv and same_counts
    line = _verdict(
        8,
        ok,
        f"repeated bootstrap_test identical: {same_test}; study counts and CSV "
        f"identical across reruns and workers 1 vs 2: {same_counts and same_csv}",
    )
    assert ok, line
