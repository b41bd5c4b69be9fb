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

Memory: the replicates run in stages of _stage_rows(n) consecutive rows,
about _STAGE_BLOCK elements. A stage draws its rows, refits them and
scores them before the next begins, so the (rows, n) arrays of one stage
are all that is held besides the (B,) statistics, whatever B is. The
stages draw in order from the one stream, and the fit and every statistic
reduce within a row only, so a replicate's statistic does not depend on
the stage size; test_bootstrap_does_not_depend_on_the_stage checks that
bit for bit.

Batches: bootstrap_many also takes m samples with one seed each (the
study's chunk of replicates). Their m*B bootstrap rows run through one
sequence of stages, so at small n one stage refits the rows of several
samples and pays numpy's per-call cost once for them. Each sample draws
its rows in order from its own seed's stream and is decided as soon as
its last row is scored, so its outcome is bitwise its one-sample call.
The bootstrap's memory stays bounded by the stage for any m; the (m, n)
data and their fit are the caller's to size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    _count, _gompertz_cdf_unit, _gompertz_quantile_raw, _level, _positive, _positive_uniforms
)
from .edf_tests import EPS, _ad_rows, _cm_rows, _ks_rows, _wa_rows
from .estimation import FitResult, ScoreOverflowError, _fittable, fit_batch
from .rng import _word, substream
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

    Names are matched case-insensitively; no name, a repeated name, a bad or
    repeated a (stein requested or not), stein with an empty grid or (through
    TestKind) an unknown name raises ValueError.
    """
    names = [str(t).strip().lower() for t in names]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"test names must be distinct, at least one, got {names}")
    grid = [WeightParam(a).a for a in a_grid]
    if len(set(grid)) != len(grid):
        raise ValueError(f"the a grid must hold distinct values, got {grid}")
    if "stein" in names and not grid:
        raise ValueError("the a grid must be nonempty when the stein test is requested")
    kinds = []
    for name in names:
        kinds.extend([TestKind(name, a) for a in grid] if name == "stein" else [TestKind(name)])
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


def _statistic_rows(kinds, fits, rows=slice(None)):
    """Evaluate every requested kind on the sorted rescaled rows b*xs of a
    FitBatch, or on those of its rows that `rows` selects."""
    ys, eta = fits.b[rows, None] * fits.xs[rows], fits.eta[rows]
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


def _checked_request(kinds, B):
    """(kinds as a list, B), once they are distinct TestKinds, at least one, and
    an integer of at least 1; raises ValueError otherwise."""
    B = _count(B, "B", 1)
    kinds = list(kinds)
    if not kinds or not all(isinstance(k, TestKind) for k in kinds) or len(set(kinds)) < len(kinds):
        raise ValueError(f"test kinds must be distinct TestKinds, at least one, got {kinds}")
    return kinds, B


def _stage_rows(n):
    """Rows of size n per bootstrap stage, at least one; reads _STAGE_BLOCK when called."""
    return max(1, _STAGE_BLOCK // n)


def _staged_statistics(etas, n, kinds, B, seeds):
    """Yield (i, {kind: (B,) statistics}, fallback refits) for replicate i = 0..m-1.

    Replicate i is B samples of size n from GO(etas[i], 1), drawn in order
    from substream(seeds[i]), refitted and scored. The m*B rows run in order
    in stages of _stage_rows(n) rows; a stage may hold the rows of several
    replicates, and a replicate is yielded as soon as the stage that holds
    its last row is scored.
    """
    m, rows = len(etas), _stage_rows(n)
    gens, stats, fallback = {}, {}, {}
    for g0 in range(0, m * B, rows):
        g1 = min(g0 + rows, m * B)
        # the rows [lo, hi) of each replicate i that the stage's rows [g0, g1) hold
        parts = [
            (i, max(g0 - i * B, 0), min(g1 - i * B, B)) for i in range(g0 // B, (g1 - 1) // B + 1)
        ]
        for i, lo, _ in parts:
            if lo == 0:
                gens[i], stats[i], fallback[i] = substream(seeds[i]), {k: np.empty(B) for k in kinds}, 0
        # consecutive draws continue each replicate's stream, so stage by
        # stage this is the (B, n) draw of one call per replicate
        u = [_positive_uniforms(gens[i], (hi - lo, n)) for i, lo, hi in parts]
        u = u[0] if len(u) == 1 else np.concatenate(u)
        eta = np.repeat([etas[i] for i, _, _ in parts], [hi - lo for _, lo, hi in parts])
        fits = fit_batch(_gompertz_quantile_raw(eta[:, None], 1.0, u))
        values = _statistic_rows(kinds, fits)
        at = 0
        for i, lo, hi in parts:
            for kind in kinds:
                stats[i][kind][lo:hi] = values[kind][at : at + hi - lo]
            fallback[i] += int(np.count_nonzero(fits.fallback[at : at + hi - lo]))
            at += hi - lo
            if hi == B:
                del gens[i]
                yield i, stats.pop(i), fallback.pop(i)


def bootstrap_replicates(eta_hat, n, kinds, B, seed):
    """B bootstrap statistics per kind under GO(eta_hat, 1), plus refit info.

    Returns (stats: {kind: (B,) array}, fallback_fraction), bitwise the same
    for any stage size; memory is bounded by the stage, not by B*n.
    Raises ValueError unless eta_hat is positive and finite, n and B are
    integers of at least 2 and 1, and the kinds are distinct TestKinds.
    """
    eta_hat, n = _positive(eta_hat, "eta_hat"), _count(n, "n", 2)
    kinds, B = _checked_request(kinds, B)
    ((_, stats, fallback),) = _staged_statistics([eta_hat], n, kinds, B, [seed])
    return stats, float(fallback / B)


def bootstrap_many(sample, kinds, B, alpha, seed):
    """Run the bootstrap once and calibrate several statistics with it.

    All kinds share the data fit and the B bootstrap replicates (draws do
    not depend on the kind), so adding kinds costs only the extra statistic
    evaluations. Returns {kind: TestOutcome}.

    Given an (m, n) array of m samples and a sequence of m seeds, it tests
    each sample with its own seed and returns a list of m entries: the
    sample's {kind: TestOutcome}, or the ValueError or ArithmeticError that
    its data fit raised (which the one-sample call raises). The bootstraps
    of all m samples run through one sequence of stages, so at small n a
    stage holds the rows of several samples; each entry is bitwise the
    one-sample call with its seed. A bad kind, B, alpha or seed, or seeds
    that are not a sequence of m (a number or a string), raise ValueError.
    """
    batched = np.ndim(sample) == 2
    samples, seeds = (sample, seed) if batched else ([sample], [seed])
    kinds, B = _checked_request(kinds, B)
    alpha = _level(alpha, "alpha")
    if np.ndim(seeds) != 1 or len(seeds) != len(samples):
        raise ValueError(f"need one seed per sample, got {seed!r} for {len(samples)} samples")
    seeds = [_word(s) for s in seeds]

    out, data = [None] * len(samples), []
    for i, x in enumerate(samples):
        try:
            data.append((i, _fittable(x)))
        except ValueError as exc:
            out[i] = exc
    fitted = []  # (position, data fit, row of fits) of each sample fitted
    if data:
        fits = fit_batch(np.array([x for _, x in data]))
        for row, (i, _) in enumerate(data):
            try:
                fitted.append((i, fits.result(row), row))
            except ScoreOverflowError as exc:
                out[i] = exc
    if fitted:
        where, data_fits, rows = zip(*fitted)
        data_stats = _statistic_rows(kinds, fits, list(rows))
        staged = _staged_statistics(
            [fit.eta_hat for fit in data_fits], fits.xs.shape[1], kinds, B, [seeds[i] for i in where]
        )
        for j, star_stats, fallback in staged:
            out[where[j]] = outcomes = {}
            for kind in kinds:
                t_data = float(data_stats[kind][j])
                tstar = star_stats[kind]
                crit = empirical_quantile(tstar, 1.0 - alpha)
                outcomes[kind] = TestOutcome(
                    kind=kind,
                    statistic=t_data,
                    p_value=float(np.mean(tstar >= t_data)),
                    critical_value=crit,
                    alpha=alpha,
                    B=B,
                    reject=bool(t_data > crit),
                    not_found_frequency_bootstrap=float(fallback / B),
                    fit=data_fits[j],
                )
    if batched:
        return out
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def bootstrap_test(sample, kind, B, alpha, seed):
    """Bootstrap-calibrated test for a single kind; see bootstrap_many."""
    return bootstrap_many(sample, [kind], B, alpha, seed)[kind]
