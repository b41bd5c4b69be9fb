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

Memory: the replicates run in stages of consecutive rows holding about
_STAGE_BLOCK elements each. A stage draws its rows, refits them and
scores them before the next begins, so the (rows, n) arrays of one stage
are all that is held besides the (B,) statistics, whatever B is. The
stages draw in order from the one stream, and the fit and every statistic
reduce within a row only, so a replicate's statistic does not depend on
the stage size; test_bootstrap_does_not_depend_on_the_stage checks that
bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _count, _gompertz_cdf_unit, _gompertz_quantile_raw, _level, _positive, _positive_uniforms
)
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

# Each EDF kind's batched statistic of sorted PIT rows, looked up when called
# so that rebinding a module name (as the benchmark's tracer does) reaches it.
_EDF_ROWS = {"ks": lambda u: _ks_rows(u), "ad": lambda u: _ad_rows(u),
             "cm": lambda u: _cm_rows(u), "wa": lambda u: _wa_rows(u)}
# Every test kind's name; the CLI and the study run all of them by default.
DEFAULT_TESTS = ("stein", *_EDF_ROWS)
# Elements per bootstrap stage, 1 MiB per float64 (rows, n) array: small
# enough to bound memory, large enough to amortise numpy's per-call cost.
_STAGE_BLOCK = 1 << 17


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


def _a_column(kind):
    """The `a` column of the study CSV and of the gof output: a, or NA."""
    return "NA" if kind.a is None else f"{kind.a:g}"


def _expand_tests(names, a_grid):
    """Validate test names and expand them into kinds, stein once per a in a_grid.

    Names are matched case-insensitively; no name, a repeated name, stein
    with an empty grid or (through TestKind) an unknown name raises ValueError.
    """
    names = [str(t).strip().lower() for t in names]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"test names must be distinct, at least one, got {names}")
    if "stein" in names and not a_grid:
        raise ValueError("the a grid must be nonempty when the stein test is requested")
    kinds = []
    for name in names:
        kinds.extend([TestKind(name, a) for a in a_grid] if name == "stein" else [TestKind(name)])
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
    q = _level(q, "q")
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
        for kind in edf_kinds:
            out[kind] = _EDF_ROWS[kind.name](u)
    stein_kinds = [k for k in kinds if k.name == "stein"]
    if stein_kinds:
        grid = _t_closed_form_rows(ys, eta, [k.a for k in stein_kinds])
        out.update(zip(stein_kinds, grid))
    return out


def _checked_request(eta_hat, n, kinds, B):
    """(eta_hat, n, kinds as a list, B), once a bootstrap of B samples of size
    n from GO(eta_hat, 1) is known to be well posed; raises ValueError otherwise."""
    eta_hat, n, B = _positive(eta_hat, "eta_hat"), _count(n, "n", 2), _count(B, "B", 1)
    kinds = list(kinds)
    if not kinds or not all(isinstance(k, TestKind) for k in kinds) or len(set(kinds)) < len(kinds):
        raise ValueError(f"test kinds must be distinct TestKinds, at least one, got {kinds}")
    return eta_hat, n, kinds, B


def bootstrap_replicates(eta_hat, n, kinds, B, seed):
    """B bootstrap statistics per kind under GO(eta_hat, 1), plus refit info.

    Returns (stats: {kind: (B,) array}, fallback_fraction). The replicates
    are drawn, refitted and scored in stages of about _STAGE_BLOCK
    elements (at least one row), so memory is bounded by the stage size
    and not by B*n; the result is bitwise the same for any stage size.
    Raises ValueError unless eta_hat is positive and finite, n and B are
    integers of at least 2 and 1, and the kinds are distinct TestKinds.
    """
    eta_hat, n, kinds, B = _checked_request(eta_hat, n, kinds, B)
    gen = substream(seed)
    stats = {kind: np.empty(B) for kind in kinds}
    fallback = 0
    rows = max(1, _STAGE_BLOCK // n)
    for j0 in range(0, B, rows):
        # consecutive draws continue the stream, so stage by stage this is
        # the (B, n) draw of one call
        u = _positive_uniforms(gen, (min(rows, B - j0), n))
        fits = fit_batch(_gompertz_quantile_raw(eta_hat, 1.0, u))
        for kind, values in _statistic_rows(kinds, fits).items():
            stats[kind][j0 : j0 + values.size] = values
        fallback += int(np.count_nonzero(fits.fallback))
    return stats, float(fallback / B)


def bootstrap_many(sample, kinds, B, alpha, seed):
    """Run the bootstrap once and calibrate several statistics with it.

    All kinds share the data fit and the B bootstrap replicates (draws do
    not depend on the kind), so adding kinds costs only the extra statistic
    evaluations. Returns {kind: TestOutcome}.
    """
    x = _fittable(sample)
    alpha = _level(alpha, "alpha")

    fits = fit_batch(x[None, :])
    fit = fits.result(0)
    # bootstrap_replicates checks the request; its stats hold the kinds in order
    star_stats, nf_boot = bootstrap_replicates(fit.eta_hat, x.size, kinds, B, seed)
    data_stats = _statistic_rows(list(star_stats), fits)

    out = {}
    for kind in star_stats:
        t_data = float(data_stats[kind][0])
        tstar = star_stats[kind]
        crit = empirical_quantile(tstar, 1.0 - alpha)
        out[kind] = TestOutcome(
            kind=kind,
            statistic=t_data,
            p_value=float(np.mean(tstar >= t_data)),
            critical_value=crit,
            alpha=alpha,
            B=int(B),
            reject=bool(t_data > crit),
            not_found_frequency_bootstrap=nf_boot,
            fit=fit,
        )
    return out


def bootstrap_test(sample, kind, B, alpha, seed):
    """Bootstrap-calibrated test for a single kind; see bootstrap_many."""
    return bootstrap_many(sample, [kind], B, alpha, seed)[kind]
