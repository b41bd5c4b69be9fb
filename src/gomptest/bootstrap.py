"""Parametric bootstrap calibration of the goodness-of-fit tests.

For a sample X_1..X_n the procedure is: fit (eta_hat, b_hat); draw B
bootstrap samples of size n from GO(eta_hat, 1); refit the estimators on
every bootstrap sample separately and compute the statistic on its
rescaled values; take the empirical (1-alpha)-quantile of the B statistics
as the critical value; reject when the data statistic exceeds it.

Determinism: all B*n uniforms come from one counter-based (Philox) stream
keyed by the seed, with replicate j occupying draws [j*n, (j+1)*n). A
replicate's sample is therefore a pure function of (seed, j), independent
of evaluation order, chunking or thread count, and repeated calls are
bitwise identical. Several test kinds can share one set of bootstrap
replicates because the draws do not depend on the kind.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _gompertz_cdf_unit, _gompertz_quantile_raw, _positive_uniforms
from .edf_tests import EPS, _ad_rows, _cm_rows, _ks_rows, _wa_rows
from .estimation import FitResult, _fittable, fit_batch
from .rng import substream
from .stein_statistic import WeightParam, _t_closed_form_rows

__all__ = [
    "TestKind",
    "TestOutcome",
    "bootstrap_test",
    "bootstrap_many",
    "bootstrap_replicates",
    "empirical_quantile",
]

# Every test kind's name; the CLI and the study run all of them by default.
DEFAULT_TESTS = ("stein", "ks", "ad", "cm", "wa")


@dataclass(frozen=True)
class TestKind:
    """One of the five calibrated statistics; `a` is set only for stein."""

    __test__ = False  # not a pytest class

    name: str
    a: float = None

    def __post_init__(self):
        if self.name not in DEFAULT_TESTS:
            raise ValueError(f"unknown test kind {self.name!r}; choose from {DEFAULT_TESTS}")
        if self.name == "stein":
            if self.a is None:
                raise ValueError("the stein kind requires a weight parameter a")
            object.__setattr__(self, "a", WeightParam(self.a).a)
        elif self.a is not None:
            raise ValueError(f"test kind {self.name!r} takes no weight parameter")

    def __str__(self):
        return f"stein(a={self.a:g})" if self.name == "stein" else self.name


def _expand_tests(names, a_grid):
    """Validate test names and expand them into kinds, stein once per a in a_grid.

    Names are matched case-insensitively; an unknown or repeated name, or
    stein with an empty grid, raises ValueError.
    """
    names = [str(t).strip().lower() for t in names]
    if not names or any(t not in DEFAULT_TESTS for t in names):
        raise ValueError(f"test names must be drawn from {sorted(DEFAULT_TESTS)}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate test names")
    kinds = []
    for name in names:
        if name != "stein":
            kinds.append(TestKind(name))
        elif not a_grid:
            raise ValueError("the a grid must be nonempty when the stein test is requested")
        else:
            kinds.extend(TestKind("stein", a) for a in a_grid)
    return tuple(kinds)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one bootstrap-calibrated test.

    reject <=> statistic > critical_value; p_value = #{T* >= T}/B;
    not_found_frequency_bootstrap is the fraction of bootstrap refits that
    hit the b=0.001 fallback.
    """

    __test__ = False  # not a pytest class

    kind: TestKind
    statistic: float
    p_value: float
    critical_value: float
    alpha: float
    B: int
    reject: bool
    not_found_frequency_bootstrap: float
    fit: FitResult


def empirical_quantile(values, q):
    """Left-continuous empirical quantile: the ceil(q*m)-th order statistic.

    inf{s : H_m(s) >= q} for the empirical CDF H_m of the values.
    """
    v = np.sort(np.asarray(values, dtype=float))
    m = v.size
    if m == 0:
        raise ValueError("empirical_quantile of an empty collection")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    # Snap q*m to the integer it represents mathematically: binary q like
    # 0.95 sits a hair above the decimal value and must not push the index
    # up a rank.
    k = math.ceil(q * m - 1e-9)
    return float(v[max(k, 1) - 1])


def _statistic_rows(kinds, fits):
    """Evaluate every requested kind on the sorted rescaled rows b*xs of a FitBatch."""
    ys, eta = fits.b[:, None] * fits.xs, fits.eta
    out = {}
    edf_kinds = [k for k in kinds if k.name != "stein"]
    if edf_kinds:
        u = np.clip(_gompertz_cdf_unit(eta[:, None], ys), EPS, 1.0 - EPS)
        table = {"ks": _ks_rows, "cm": _cm_rows, "ad": _ad_rows, "wa": _wa_rows}
        for kind in edf_kinds:
            out[kind] = table[kind.name](u)
    stein_kinds = [k for k in kinds if k.name == "stein"]
    if stein_kinds:
        grid = _t_closed_form_rows(ys, eta, [k.a for k in stein_kinds])
        out.update(zip(stein_kinds, grid))
    return out


def bootstrap_replicates(eta_hat, n, kinds, B, seed):
    """B bootstrap statistics per kind under GO(eta_hat, 1), plus refit info.

    Returns (stats: {kind: (B,) array}, fallback_fraction).
    """
    u = _positive_uniforms(substream(seed), (B, n))
    xstar = _gompertz_quantile_raw(eta_hat, 1.0, u)
    fits = fit_batch(xstar)
    return _statistic_rows(kinds, fits), float(np.mean(fits.fallback))


def bootstrap_many(sample, kinds, B, alpha, seed):
    """Run the bootstrap once and calibrate several statistics with it.

    All kinds share the data fit and the B bootstrap replicates (draws do
    not depend on the kind), so adding kinds costs only the extra statistic
    evaluations. Returns {kind: TestOutcome}.
    """
    x = _fittable(sample)
    kinds = list(kinds)
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate test kinds")
    if not kinds:
        raise ValueError("at least one test kind is required")
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")

    fits = fit_batch(x[None, :])
    fit = fits.result(0)
    data_stats = _statistic_rows(kinds, fits)

    star_stats, nf_boot = bootstrap_replicates(fit.eta_hat, x.size, kinds, B, seed)

    out = {}
    for kind in kinds:
        t_data = float(data_stats[kind][0])
        tstar = star_stats[kind]
        crit = empirical_quantile(tstar, 1.0 - alpha)
        out[kind] = TestOutcome(
            kind=kind,
            statistic=t_data,
            p_value=float(np.mean(tstar >= t_data)),
            critical_value=crit,
            alpha=float(alpha),
            B=int(B),
            reject=bool(t_data > crit),
            not_found_frequency_bootstrap=nf_boot,
            fit=fit,
        )
    return out


def bootstrap_test(sample, kind, B, alpha, seed):
    """Bootstrap-calibrated test for a single kind; see bootstrap_many."""
    return bootstrap_many(sample, [kind], B, alpha, seed)[kind]
