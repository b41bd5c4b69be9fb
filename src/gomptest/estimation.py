"""Maximum-likelihood fitting of the Gompertz law.

The scale b is the root of the profile score

    h(b) = (mean(e^(b x_j)) - 1) * (b*xbar + 1) - (b/n) * sum(x_j e^(b x_j)),

found by Newton-Raphson from a pilot start built out of Nelson-Aalen
cumulative-hazard ratios. A row whose pilot fails, whose Newton run fails,
or which lands on the trivial root b=0 is rescued: a log grid above
B_FLOOR brackets the first sign change of h, and the same Newton iteration
reruns from the bracket's midpoint, kept inside it. The shape follows as
eta_hat = 1 / (mean(e^(b_hat x_j)) - 1). When no positive root can be
found the scale falls back to the conventional small value 0.001 and the
fit is flagged.

Everything is implemented over (m, n) batches of samples (axis 1 = the
sample) so that bootstrap refits stay vectorised; the public single-sample
functions are the m=1 case of the same code path, which keeps scalar and
batched results bitwise identical.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import as_sample

__all__ = [
    "FitResult",
    "RescaledSample",
    "PilotFailedError",
    "ScoreOverflowError",
    "nelson_aalen",
    "pilot_from_cumhaz",
    "pilot_scale",
    "score_h",
    "fit_mle",
    "rescale",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
FALLBACK_B = 0.001
# Roots at or below this are the b=0 boundary (always a root of h), not a fit.
B_FLOOR = 1e-4
GRID_POINTS = 200
# Grid cap so e^(b*x) stays finite with headroom for the x^2 e^(b*x) terms.
GRID_EXP_CAP = 690.0


class PilotFailedError(ValueError):
    """The cumulative-hazard ratio has no usable logarithm."""


class ScoreOverflowError(ArithmeticError):
    """e^(b*x) overflowed while evaluating the score; treat as non-convergence."""


@dataclass(frozen=True)
class FitResult:
    """Estimates and diagnostics of one maximum-likelihood fit.

    b_pilot is NaN when the pilot could not be formed; iterations counts
    Newton updates (initial run plus the bracketed run after a grid rescue).
    fallback_used implies b_hat == 0.001 and converged == False.
    """

    eta_hat: float
    b_hat: float
    b_pilot: float
    converged: bool
    fallback_used: bool
    iterations: int


@dataclass(frozen=True)
class RescaledSample:
    """Values y_j = b_hat * x_j in original order, with the fit that made them."""

    values: np.ndarray
    fit: FitResult


def nelson_aalen(sample, x):
    """Nelson-Aalen cumulative hazard: sum of 1/(n-j+1) over order stats <= x."""
    xs = np.sort(as_sample(sample))
    n = xs.size
    weights = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(n, 0, -1))))
    k = np.searchsorted(xs, np.asarray(x, dtype=float), side="right")
    out = weights[k]
    return out if out.ndim else float(out)


def pilot_from_cumhaz(z, lam_z, lam_half):
    """Pilot scale from cumulative-hazard values at z and z/2.

    Computes (2*log((lam_z - lam_half)/lam_half))/z. With the exact Gompertz
    hazard eta*(e^(b x)-1) plugged in, the ratio is e^(b z / 2) and the
    result is b.
    """
    if lam_half <= 0.0 or lam_z <= lam_half:
        raise PilotFailedError(
            "cumulative-hazard ratio has nonpositive log argument "
            f"(lam_z={lam_z!r}, lam_half={lam_half!r})"
        )
    return (2.0 * math.log((lam_z - lam_half) / lam_half)) / z


def pilot_scale(sample):
    """Pilot estimate of b from Nelson-Aalen values at the 90th percentile.

    Raises PilotFailedError when the hazard ratio is degenerate; callers
    are expected to fall back to a grid search over b.
    """
    x = as_sample(sample)
    if x.size < 5:
        raise ValueError("pilot needs at least 5 observations")
    z, lam_z, lam_half = _pilot_ingredients(np.sort(x)[None, :])
    return pilot_from_cumhaz(float(z[0]), float(lam_z[0]), float(lam_half[0]))


def score_h(b, sample):
    """Profile score h(b) whose positive root is the scale MLE."""
    if b <= 0.0:
        raise ValueError("score is defined for b > 0")
    xs = np.sort(as_sample(sample))[None, :]
    h, _ = _score_and_deriv(np.asarray([float(b)]), xs)
    if not np.isfinite(h[0]):
        raise ScoreOverflowError(f"e^(b*x) overflows at b={b!r}")
    return float(h[0])


def fit_mle(sample):
    """Fit (eta, b) by maximum likelihood; see the module docstring."""
    x = as_sample(sample)
    if x.size < 2:
        raise ValueError("fit needs at least 2 observations")
    if np.all(x == x[0]):
        raise ValueError("degenerate sample: all values identical")
    batch = fit_batch(x[None, :])
    return batch.result(0)


def rescale(sample, fit):
    """Multiply the sample by the fitted scale, preserving order."""
    x = as_sample(sample)
    return RescaledSample(values=fit.b_hat * x, fit=fit)


# ---------------------------------------------------------------------------
# batched engine


@dataclass(frozen=True)
class FitBatch:
    """Per-row fit results over an (m, n) batch; xs is the row-sorted data."""

    eta: np.ndarray
    b: np.ndarray
    pilot: np.ndarray
    converged: np.ndarray
    fallback: np.ndarray
    iterations: np.ndarray
    xs: np.ndarray

    def result(self, i):
        return FitResult(
            eta_hat=float(self.eta[i]),
            b_hat=float(self.b[i]),
            b_pilot=float(self.pilot[i]),
            converged=bool(self.converged[i]),
            fallback_used=bool(self.fallback[i]),
            iterations=int(self.iterations[i]),
        )


def _score_and_deriv(b, xs):
    # b: (m,), xs: (m, n) sorted rows. Overflow deliberately yields non-finite
    # h, which callers treat as failure of that row.
    bx = b[:, None] * xs
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(bx)
        m1 = np.mean(e, axis=1)
        s1 = np.mean(xs * e, axis=1)
        s2 = np.mean(xs * xs * e, axis=1)
        xbar = np.mean(xs, axis=1)
        h = (m1 - 1.0) * (b * xbar + 1.0) - b * s1
        hp = b * xbar * s1 + (m1 - 1.0) * xbar - b * s2
    return h, hp


def _pilot_ingredients(xs):
    m, n = xs.shape
    z = np.quantile(xs, 0.9, axis=1)
    weights = np.cumsum(1.0 / np.arange(n, 0, -1))
    k_z = np.sum(xs <= z[:, None], axis=1)
    k_half = np.sum(xs <= (0.5 * z)[:, None], axis=1)
    lam_z = weights[np.maximum(k_z - 1, 0)]
    lam_z = np.where(k_z > 0, lam_z, 0.0)
    lam_half = weights[np.maximum(k_half - 1, 0)]
    lam_half = np.where(k_half > 0, lam_half, 0.0)
    return z, lam_z, lam_half


def _newton(b0, xs, active, lo, hi):
    """Masked Newton on the score; returns (b, converged, iterations).

    Rows stay active until |h| < NEWTON_TOL or they fail (non-finite score,
    zero derivative, iteration budget). Step halving keeps each row's
    iterates inside its bracket, lo < b <= hi (hi may be inf).
    """
    m = xs.shape[0]
    b = b0.copy()
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=np.int64)
    active = active.copy()
    for _ in range(NEWTON_MAX_ITER):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        h, hp = _score_and_deriv(b[idx], xs[idx])
        bad = ~np.isfinite(h) | ~np.isfinite(hp) | (hp == 0.0)
        done = np.abs(h) < NEWTON_TOL
        converged[idx[done & ~bad]] = True
        active[idx[done | bad]] = False
        move = ~done & ~bad
        if not np.any(move):
            continue
        rows = idx[move]
        step = h[move] / hp[move]
        new_b = b[rows] - step
        guard = 0
        while np.any(out := (new_b <= lo[rows]) | (new_b > hi[rows])) and guard < 200:
            step = np.where(out, 0.5 * step, step)
            new_b = b[rows] - step
            guard += 1
        b[rows] = new_b
        iterations[rows] += 1
    if np.any(active):
        # Iteration budget exhausted; one final tolerance check.
        idx = np.nonzero(active)[0]
        h, _ = _score_and_deriv(b[idx], xs[idx])
        converged[idx] = np.isfinite(h) & (np.abs(h) < NEWTON_TOL)
    return b, converged, iterations


def _grid_rescue(xs):
    """Bracket the first sign change of h on a log grid starting at B_FLOOR.

    Returns (has, lo, hi): whether each row has a sign change, and the grid
    cell [lo, hi] where it first occurs (meaningless where has is False).
    """
    m, n = xs.shape
    top = np.maximum(np.minimum(50.0, GRID_EXP_CAP / xs[:, -1]), 2.0 * B_FLOOR)
    t = np.linspace(0.0, 1.0, GRID_POINTS)
    grid = B_FLOOR * (top[:, None] / B_FLOOR) ** t[None, :]
    hvals = np.empty((m, GRID_POINTS))
    for j in range(GRID_POINTS):
        h, _ = _score_and_deriv(grid[:, j], xs)
        hvals[:, j] = h
    finite = np.isfinite(hvals)
    sign = np.where(finite, np.sign(hvals), np.nan)
    flip = finite[:, :-1] & finite[:, 1:] & (sign[:, :-1] * sign[:, 1:] <= 0.0)
    first = np.argmax(flip, axis=1)
    rows = np.arange(m)
    return np.any(flip, axis=1), grid[rows, first], grid[rows, first + 1]


def fit_batch(x):
    """Fit every row of an (m, n) matrix; see FitBatch.

    Pipeline per row: pilot start -> Newton; on pilot failure, Newton
    failure, overflow, or collapse onto the b=0 boundary -> grid bracket ->
    Newton inside it; if that fails too -> fallback b=0.001 with the flag set.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    xs = np.sort(x, axis=1)
    pilot = np.full(m, np.nan)
    if n >= 5:
        z, lam_z, lam_half = _pilot_ingredients(xs)
        arg_ok = (lam_half > 0.0) & (lam_z > lam_half)
        ratio = np.where(arg_ok, (lam_z - lam_half) / np.where(arg_ok, lam_half, 1.0), np.nan)
        with np.errstate(invalid="ignore", divide="ignore"):
            pilot = np.where(arg_ok, (2.0 * np.log(ratio)) / z, np.nan)
    start_ok = np.isfinite(pilot) & (pilot > 0.0)
    b = np.where(start_ok, pilot, 1.0)
    b_fit, converged, iterations = _newton(
        b, xs, start_ok, np.zeros(m), np.full(m, np.inf)
    )
    # Convergence onto the boundary root b=0 is not a fit.
    converged &= b_fit > B_FLOOR
    if not np.all(converged):
        rows = np.nonzero(~converged)[0]
        has, lo, hi = _grid_rescue(xs[rows])
        rows, lo, hi = rows[has], lo[has], hi[has]
        b_r, conv_r, iter_r = _newton(
            0.5 * (lo + hi), xs[rows], np.ones(rows.size, bool), lo, hi
        )
        b_fit[rows] = b_r
        converged[rows] = conv_r
        iterations[rows] += iter_r
    fallback = ~converged
    b_fit[fallback] = FALLBACK_B
    eta = 1.0 / np.mean(np.expm1(b_fit[:, None] * xs), axis=1)
    return FitBatch(
        eta=eta,
        b=b_fit,
        pilot=pilot,
        converged=converged,
        fallback=fallback,
        iterations=iterations,
        xs=xs,
    )
