"""Classical EDF goodness-of-fit statistics on probability-integral transforms.

The composite Gompertz test rescales the data to Y_j = b_hat*X_j, maps the
order statistics through U_(j) = F(Y_(j); eta_hat, 1), and applies the
standard order-statistic computational forms of Kolmogorov-Smirnov,
Cramer-von Mises, Anderson-Darling and Watson. All four are invariant
under scale changes of the raw data because the U values are.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from .distributions import GompertzParams, _gompertz_cdf_unit, gompertz_cdf

__all__ = [
    "EdfInput",
    "ks_statistic",
    "cm_statistic",
    "ad_statistic",
    "watson_statistic",
]

# Clip PIT values into [EPS, 1-EPS] so the AD logarithms stay finite.
EPS = 1e-15


def _clip_count(u):
    """Number of PIT values outside [EPS, 1-EPS], which the statistics clip."""
    return int(np.count_nonzero((u < EPS) | (u > 1.0 - EPS)))


def _fit_clip_count(x, fit):
    """_clip_count of the sample x's PIT values under its fit, as the battery forms them."""
    return _clip_count(_gompertz_cdf_unit(fit.eta_hat, fit.b_hat * x))


@dataclass(frozen=True, eq=False)
class EdfInput:
    """Sorted, clipped probability-integral transforms U_(1) <= ... <= U_(n).

    `clipped` records whether any incoming value sat outside [EPS, 1-EPS];
    a U of exactly 1 means a rescaled observation overflowed the fitted
    null CDF upstream.
    """

    values: InitVar[np.ndarray]
    u: np.ndarray = field(init=False, repr=False)
    n: int = field(init=False)
    clipped: bool = field(init=False)

    def __post_init__(self, values):
        u = np.atleast_1d(np.asarray(values, dtype=float))
        if u.ndim != 1 or u.size < 1:
            raise ValueError("EdfInput needs a nonempty one-dimensional collection")
        if not np.all(np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("probability-integral transforms must lie in [0, 1]")
        clipped = _clip_count(u) > 0
        u = np.sort(np.clip(u, EPS, 1.0 - EPS))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "n", u.size)
        object.__setattr__(self, "clipped", clipped)

    @classmethod
    def from_rescaled(cls, rescaled):
        """PIT of a rescaled sample through the unit-scale fitted null CDF."""
        p = GompertzParams(rescaled.fit.eta_hat, 1.0)
        return cls(gompertz_cdf(p, rescaled.values))


def _ks_rows(us):
    # us: (m, n) rows sorted ascending
    m, n = us.shape
    j = np.arange(1, n + 1, dtype=float)[None, :]
    upper = j / n - us
    lower = us - (j - 1.0) / n
    return np.max(np.maximum(upper, lower), axis=1)


def _cm_rows(us):
    m, n = us.shape
    j = np.arange(1, n + 1, dtype=float)[None, :]
    dev = us - (2.0 * j - 1.0) / (2.0 * n)
    return 1.0 / (12.0 * n) + np.sum(dev * dev, axis=1)


def _ad_rows(us):
    m, n = us.shape
    j = np.arange(1, n + 1, dtype=float)[None, :]
    with np.errstate(divide="raise"):
        logs = np.log(us) + np.log1p(-us[:, ::-1])
    return -n - np.sum((2.0 * j - 1.0) * logs, axis=1) / n


def _wa_rows(us):
    m, n = us.shape
    centre = np.mean(us, axis=1) - 0.5
    return _cm_rows(us) - n * centre * centre


def ks_statistic(input):
    """Kolmogorov-Smirnov: sup distance between the EDF and the fitted CDF."""
    return float(_ks_rows(input.u[None, :])[0])


def cm_statistic(input):
    """Cramer-von Mises: 1/(12n) + sum of squared PIT deviations."""
    return float(_cm_rows(input.u[None, :])[0])


def ad_statistic(input):
    """Anderson-Darling in the Sukhatme order-statistic form."""
    return float(_ad_rows(input.u[None, :])[0])


def watson_statistic(input):
    """Watson: Cramer-von Mises minus the squared centering term."""
    return float(_wa_rows(input.u[None, :])[0])
