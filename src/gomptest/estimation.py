"""Maximum-likelihood fitting of the Gompertz law.

The scale b is the root of the profile score

    h(b) = (mean(e^(b x_j)) - 1) * (b*xbar + 1) - (b/n) * sum(x_j e^(b x_j)),

found by Newton-Raphson from a pilot start built out of Nelson-Aalen
cumulative-hazard ratios. A row whose pilot fails, whose Newton run fails,
or which lands on the trivial root b=0 is rescued: a log grid above
B_FLOOR brackets the first sign change of h, and the same Newton iteration
reruns from the bracket's midpoint, kept inside it. The grid is scanned
in order, computing h only, in blocks of consecutive columns: each block
evaluates k columns for every row still in the scan in one pass, with k
chosen so that a block holds about _SCAN_BLOCK elements (so many columns
per block at small n, one at large n), and each row leaves the scan after
the block that holds its first sign change. The shape follows as
eta_hat = 1 / (mean(e^(b_hat x_j)) - 1). When no positive root can be
found the scale falls back to the conventional small value 0.001 and the
fit is flagged. A fit whose eta_hat is not positive and finite (e^(b x)
overflowed) raises ScoreOverflowError when it is read as a FitResult.

Everything is implemented over (m, n) batches of samples (axis 1 = the
sample) so that bootstrap refits stay vectorised; the public single-sample
functions are the m=1 case of the same code path, which keeps scalar and
batched results bitwise identical.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _positive, as_sample

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
PILOT_MIN_N = 5  # smallest sample the Nelson-Aalen pilot is formed for
# Roots at or below this are the b=0 boundary (always a root of h), not a fit.
B_FLOOR = 1e-4
GRID_POINTS = 200
# Grid cap so e^(b*x) stays finite with headroom for the x^2 e^(b*x) terms.
GRID_EXP_CAP = 690.0
# Element budget of one block of the grid scan: enough columns per block to
# amortise numpy's per-call cost at small n, small enough to stay in cache.
_SCAN_BLOCK = 1 << 16


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
    k = np.searchsorted(xs, np.asarray(x, dtype=float), side="right")
    out = _cumhaz_steps(xs.size)[k]
    return out if out.ndim else float(out)


def pilot_from_cumhaz(z, lam_z, lam_half):
    """Pilot scale from cumulative-hazard values at z and z/2.

    Computes (2*log((lam_z - lam_half)/lam_half))/z. With the exact Gompertz
    hazard eta*(e^(b x)-1) plugged in, the ratio is e^(b z / 2) and the
    result is b. z must be a positive finite number.
    """
    if not (math.isfinite(z) and z > 0.0):
        raise PilotFailedError(f"pilot needs a positive finite z, got {z!r}")
    if lam_half <= 0.0 or lam_z <= lam_half:
        raise PilotFailedError(
            "cumulative-hazard ratio has nonpositive log argument "
            f"(lam_z={lam_z!r}, lam_half={lam_half!r})"
        )
    return float(_pilot(*np.asarray((z, lam_z, lam_half), dtype=float)))


def pilot_scale(sample):
    """Pilot estimate of b from Nelson-Aalen values at the 90th percentile.

    Raises PilotFailedError when the hazard ratio is degenerate.
    """
    x = as_sample(sample)
    if x.size < PILOT_MIN_N:
        raise ValueError(f"pilot needs at least {PILOT_MIN_N} observations")
    z, lam_z, lam_half = _pilot_ingredients(np.sort(x)[None, :])
    return pilot_from_cumhaz(float(z[0]), float(lam_z[0]), float(lam_half[0]))


def score_h(b, sample):
    """Profile score h(b) whose positive root is the scale MLE."""
    b = _positive(b, "b")
    xs = np.sort(as_sample(sample))[None, :]
    h, _ = _score_and_deriv(np.asarray([b]), xs)
    if not np.isfinite(h[0]):
        raise ScoreOverflowError(f"e^(b*x) overflows at b={b!r}")
    return float(h[0])


def _fittable(sample):
    """The sample as an array, checked to have at least 2 distinct values."""
    x = as_sample(sample)
    if x.size < 2:
        raise ValueError("fit needs at least 2 observations")
    if np.all(x == x[0]):
        raise ValueError("degenerate sample: all values identical")
    return x


def fit_mle(sample):
    """Fit (eta, b) by maximum likelihood; see the module docstring."""
    return fit_batch(_fittable(sample)[None, :]).result(0)


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
        """Row i as a FitResult; raises ScoreOverflowError unless eta is positive and finite."""
        eta, b = float(self.eta[i]), float(self.b[i])
        if not (math.isfinite(eta) and eta > 0.0):
            raise ScoreOverflowError(f"e^(b*x) overflows at b={b!r}, giving eta_hat={eta!r}")
        return FitResult(
            eta_hat=eta,
            b_hat=b,
            b_pilot=float(self.pilot[i]),
            converged=bool(self.converged[i]),
            fallback_used=bool(self.fallback[i]),
            iterations=int(self.iterations[i]),
        )


def _row_mean(a):
    # Mean over the last axis; bitwise np.mean's value at half its call cost.
    return np.add.reduce(a, axis=-1) / a.shape[-1]


def _h(b, xbar, m1, s1):
    # The score from the row means xbar, m1 = mean(e^(b x)), s1 = mean(x e^(b x)).
    return (m1 - 1.0) * (b * xbar + 1.0) - b * s1


def _score_and_deriv(b, xs, xbar=None):
    # b: (m,), xs: (m, n) sorted rows, xbar their row means (computed when
    # not given). Overflow deliberately yields non-finite h, which callers
    # treat as failure of that row.
    if xbar is None:
        xbar = _row_mean(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.multiply(b[:, None], xs)
        np.exp(e, out=e)
        m1 = _row_mean(e)
        t = xs * e
        s1 = _row_mean(t)
        np.multiply(xs, xs, out=t)
        t *= e
        s2 = _row_mean(t)
        h = _h(b, xbar, m1, s1)
        hp = b * xbar * s1 + (m1 - 1.0) * xbar - b * s2
    return h, hp


def _score_rows(b, xs, xbar, e):
    # h alone at k scales per row, bitwise equal to _score_and_deriv's:
    # b: (m, k), xs: (m, n) sorted rows, xbar their row means, e an (m, k, n)
    # scratch buffer that is overwritten. Returns (m, k). The caller holds
    # the errstate that lets overflow through as non-finite h.
    x3 = xs[:, None, :]
    np.multiply(b[:, :, None], x3, out=e)
    np.exp(e, out=e)
    m1 = _row_mean(e)
    e *= x3
    s1 = _row_mean(e)
    return _h(b, xbar[:, None], m1, s1)


def _cumhaz_steps(n):
    # Nelson-Aalen value once k of n order statistics are passed, k = 0..n.
    return np.concatenate(([0.0], np.cumsum(1.0 / np.arange(n, 0, -1))))


def _pilot_ingredients(xs):
    z = np.quantile(xs, 0.9, axis=1)
    steps = _cumhaz_steps(xs.shape[1])
    lam_z = steps[np.sum(xs <= z[:, None], axis=1)]
    lam_half = steps[np.sum(xs <= (0.5 * z)[:, None], axis=1)]
    return z, lam_z, lam_half


def _pilot(z, lam_z, lam_half):
    # Elementwise 2*log((lam_z - lam_half)/lam_half)/z; NaN where the log
    # argument is not positive.
    ok = (lam_half > 0.0) & (lam_z > lam_half)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(ok, (2.0 * np.log((lam_z - lam_half) / lam_half)) / z, np.nan)


def _newton(b0, xs, active, lo, hi):
    """Masked Newton on the score; returns (b, converged, iterations).

    Rows stay active until |h| < NEWTON_TOL or they fail (non-finite score,
    zero derivative, iteration budget). Step halving keeps each row's
    iterates inside its bracket, lo < b <= hi (hi may be inf). The row
    terms (data, mean, bracket) of the active rows are gathered only when
    rows leave, and not at all while every row is active.
    """
    m = xs.shape[0]
    b = b0.copy()
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=np.int64)
    idx = np.nonzero(active)[0]
    if idx.size < m:
        xs, lo, hi = xs[idx], lo[idx], hi[idx]
    xbar = _row_mean(xs)
    for _ in range(NEWTON_MAX_ITER):
        if not idx.size:
            break
        h, hp = _score_and_deriv(b[idx], xs, xbar)
        bad = ~np.isfinite(h) | ~np.isfinite(hp) | (hp == 0.0)
        done = np.abs(h) < NEWTON_TOL
        converged[idx[done & ~bad]] = True
        move = ~done & ~bad
        if not move.all():
            idx, xs, xbar, lo, hi, h, hp = (a[move] for a in (idx, xs, xbar, lo, hi, h, hp))
        step = h / hp
        b_old = b[idx]
        new_b = b_old - step
        guard = 0
        while np.any(out := (new_b <= lo) | (new_b > hi)) and guard < 200:
            step = np.where(out, 0.5 * step, step)
            new_b = b_old - step
            guard += 1
        b[idx] = new_b
        iterations[idx] += 1
    if idx.size:
        # Iteration budget exhausted; one final tolerance check.
        h, _ = _score_and_deriv(b[idx], xs, xbar)
        converged[idx] = np.isfinite(h) & (np.abs(h) < NEWTON_TOL)
    return b, converged, iterations


def _grid_rescue(xs):
    """Bracket the first sign change of h on a log grid starting at B_FLOOR.

    Returns (has, lo, hi): whether each row has a sign change, and the grid
    cell [lo, hi] where it first occurs (the first cell where has is False).
    A sign change is two adjacent finite values whose signs multiply to <= 0.
    The columns are scanned in order, in blocks of k consecutive columns,
    k = max(1, _SCAN_BLOCK // (rows still in the scan * n)), capped at the
    columns left. One block evaluates h at its k columns for every row
    still in the scan, in one pass through one reused scratch buffer; the
    last column of the previous block is carried over, so a cell that
    straddles two blocks is tested too. A row leaves the scan after the
    block that holds its first sign change. Each h value is computed by the
    same row-local operations as in _score_and_deriv, so the bracket does
    not depend on the block width.
    """
    m, n = xs.shape
    top = np.maximum(np.minimum(50.0, GRID_EXP_CAP / xs[:, -1]), 2.0 * B_FLOOR)
    t = np.linspace(0.0, 1.0, GRID_POINTS)
    grid = B_FLOOR * (top[:, None] / B_FLOOR) ** t[None, :]
    first = np.full(m, -1)
    idx, ys, xbar = np.arange(m), xs, _row_mean(xs)
    buf = np.empty(min(max(m * n, _SCAN_BLOCK), m * n * GRID_POINTS))
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while j < GRID_POINTS and idx.size:
            r = idx.size
            k = min(max(1, _SCAN_BLOCK // (r * n)), GRID_POINTS - j)
            h = _score_rows(grid[idx, j : j + k], ys, xbar, buf[: r * k * n].reshape(r, k, n))
            if j:
                h = np.concatenate((prev[:, None], h), axis=1)
            sign = np.where(np.isfinite(h), np.sign(h), np.nan)
            flip = sign[:, :-1] * sign[:, 1:] <= 0.0
            hit = flip.any(axis=1)
            if hit.any():
                first[idx[hit]] = np.argmax(flip[hit], axis=1) + max(j - 1, 0)
                stay = ~hit
                idx, ys, xbar, h = idx[stay], ys[stay], xbar[stay], h[stay]
            prev = h[:, -1]
            j += k
    has = first >= 0
    cell = np.where(has, first, 0)
    rows = np.arange(m)
    return has, grid[rows, cell], grid[rows, cell + 1]


def fit_batch(x):
    """Fit every row of an (m, n) matrix; see FitBatch.

    Pipeline per row: pilot start -> Newton; on pilot failure, Newton
    failure, overflow, or collapse onto the b=0 boundary -> grid bracket ->
    Newton inside it; if that fails too -> fallback b=0.001 with the flag set.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    xs = np.sort(x, axis=1)
    pilot = _pilot(*_pilot_ingredients(xs)) if n >= PILOT_MIN_N else np.full(m, np.nan)
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
    with np.errstate(over="ignore"):
        eta = 1.0 / _row_mean(np.expm1(b_fit[:, None] * xs))
    return FitBatch(
        eta=eta,
        b=b_fit,
        pilot=pilot,
        converged=converged,
        fallback=fallback,
        iterations=iterations,
        xs=xs,
    )
