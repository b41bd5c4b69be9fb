"""Maximum-likelihood fitting of the Gompertz law.

The scale b is the root of the profile score

    h(b) = (mean(e^(b x_j)) - 1) * (b*xbar + 1) - (b/n) * sum(x_j e^(b x_j)),

found by Newton-Raphson from a pilot start built out of Nelson-Aalen
cumulative-hazard ratios. b=0 is always a double root of h, with
h(b)/b^2 -> xbar^2 - mean(x^2)/2 as b -> 0. On rows where that limit is
positive (sample CV < 1) the first run is deflated: it is Newton on h/b^2,
which b=0 does not attract, so interior fits do not fall onto it. The other
rows (CV >= 1, the b->0 boundary) run plain Newton on h. A row whose pilot
fails, whose Newton run fails, or which lands on the trivial root b=0 is
rescued: a log grid above B_FLOOR brackets the first sign change of h, and
plain Newton reruns from the bracket's midpoint, kept inside it. The grid
is scanned in order, computing h only, in blocks of consecutive columns:
each block evaluates k columns for every row still in the scan in one
pass, with k chosen so that a block holds about _SCAN_BLOCK elements (so
many columns per block at small n, one at large n), and each row leaves
the scan after the block that holds its first sign change. At CV >= 1 the
score has no positive root at all (_horizon): such a row also leaves once
the columns left are those where the float score is provably negative. The
shape follows as
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

from .distributions import _points, _positive, as_sample

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
# The grid scan's horizon (_horizon): the b^2..b^HORIZON_TERMS terms of the
# lower bound on |h|, the factor by which its rounding bound is inflated, and
# the relative margin by which mean(x^2) must exceed 2*xbar^2 (CV >= 1).
HORIZON_TERMS = 12
HORIZON_SAFETY = 50.0
HORIZON_CV_MARGIN = 1e-9


class PilotFailedError(ValueError):
    """The cumulative-hazard ratio gives no positive finite scale."""


class ScoreOverflowError(ArithmeticError):
    """e^(b*x) overflowed while evaluating the score; treat as non-convergence."""


@dataclass(frozen=True)
class FitResult:
    """Estimates and diagnostics of one maximum-likelihood fit.

    b_pilot is NaN unless the pilot is a positive finite scale; iterations counts
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
    k = np.searchsorted(xs, _points(x), side="right")
    out = _cumhaz_steps(xs.size)[k]
    return out if out.ndim else float(out)


def pilot_from_cumhaz(z, lam_z, lam_half):
    """Pilot scale from cumulative-hazard values at z and z/2.

    Computes (2*log((lam_z - lam_half)/lam_half))/z. With the exact Gompertz
    hazard eta*(e^(b x)-1) plugged in, the ratio is e^(b z / 2) and the
    result is b. Raises PilotFailedError unless z is positive and finite and
    the result is a positive finite scale.
    """
    if not (math.isfinite(z) and z > 0.0):
        raise PilotFailedError(f"pilot needs a positive finite z, got {z!r}")
    b = float(_pilot(*np.asarray((z, lam_z, lam_half), dtype=float)))
    if math.isnan(b):
        raise PilotFailedError(
            f"cumulative-hazard ratio gives no positive finite scale (lam_z={lam_z!r}, "
            f"lam_half={lam_half!r})"
        )
    return b


def pilot_scale(sample):
    """Pilot estimate of b from Nelson-Aalen values at the 90th percentile.

    Raises PilotFailedError when the hazard ratio gives no positive finite scale.
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


def _sorted_q90(xs):
    # np.quantile(xs, 0.9, axis=1) (method "linear") on rows that are already
    # sorted and hold no NaN, with numpy's own arithmetic, so bitwise equal: it
    # skips the partition and does not load numpy.ma, which np.quantile does
    # on first use (in every forked study worker).
    n = xs.shape[1]
    v = (n - 1) * 0.9
    lo = math.floor(v)
    g = v - lo
    a, b = xs[:, lo], xs[:, min(lo + 1, n - 1)]
    d = b - a
    return a + d * g if g < 0.5 else b - d * (1 - g)


def _pilot_ingredients(xs):
    z = _sorted_q90(xs)
    steps = _cumhaz_steps(xs.shape[1])
    lam_z = steps[np.sum(xs <= z[:, None], axis=1)]
    lam_half = steps[np.sum(xs <= (0.5 * z)[:, None], axis=1)]
    return z, lam_z, lam_half


def _pilot(z, lam_z, lam_half):
    # Elementwise 2*log((lam_z - lam_half)/lam_half)/z where that is positive
    # and finite, the only usable start; NaN elsewhere.
    with np.errstate(all="ignore"):
        b = (2.0 * np.log((lam_z - lam_half) / lam_half)) / z
    return np.where(np.isfinite(b) & (b > 0.0), b, np.nan)


def _newton(b0, xs, active, lo, hi, deflate):
    """Masked Newton on the score; returns (b, converged, iterations).

    Rows stay active until |h| < NEWTON_TOL or they fail (non-finite score,
    zero derivative, iteration budget). Step halving keeps each row's
    iterates inside its bracket, lo < b <= hi (hi may be inf). Rows where
    deflate is set step by h/(h' - 2h/b), which is Newton on h/b^2: the
    double root b=0 of h is divided out, so it no longer attracts the
    iterate, and h keeps its other roots. Every other row steps by h/h'.
    The row terms (data, mean, bracket, deflate) of the active rows are
    gathered only when rows leave, and not at all while every row is active.
    """
    m = xs.shape[0]
    b = b0.copy()
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=np.int64)
    idx = np.nonzero(active)[0]
    if idx.size < m:
        xs, lo, hi, deflate = xs[idx], lo[idx], hi[idx], deflate[idx]
    xbar = _row_mean(xs)
    for _ in range(NEWTON_MAX_ITER):
        if not idx.size:
            break
        b_old = b[idx]
        h, hp = _score_and_deriv(b_old, xs, xbar)
        if deflate.any():
            with np.errstate(all="ignore"):
                hp = np.where(deflate, hp - 2.0 * h / b_old, hp)
        bad = ~np.isfinite(h) | ~np.isfinite(hp) | (hp == 0.0)
        done = np.abs(h) < NEWTON_TOL
        converged[idx[done & ~bad]] = True
        move = ~done & ~bad
        if not move.all():
            idx, xs, xbar, lo, hi, deflate, h, hp, b_old = (
                a[move] for a in (idx, xs, xbar, lo, hi, deflate, h, hp, b_old)
            )
        step = h / hp
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


def _grid(xs):
    # The rescue's (m, GRID_POINTS) log grid per sorted row: B_FLOOR up to the
    # cap where e^(b*max(x)) stays finite, at most 50, at least 2*B_FLOOR.
    top = np.maximum(np.minimum(50.0, GRID_EXP_CAP / xs[:, -1]), 2.0 * B_FLOOR)
    t = np.linspace(0.0, 1.0, GRID_POINTS)
    return B_FLOOR * (top[:, None] / B_FLOOR) ** t[None, :]


def _horizon(xs, grid):
    """First grid column of each row from which the float score is provably negative.

    Returns J, an int per row in [0, GRID_POINTS]: h computed at grid[i, j] as
    in _score_rows is finite and negative for every j >= J[i]. J is
    GRID_POINTS (nothing proven) unless the row has mean(x^2) >=
    2*xbar^2*(1 + HORIZON_CV_MARGIN), that is CV >= 1 with a margin far above
    the rounding of the two moments.

    The lemma. With mu_p = mean(x^p), h(b) = sum_{k>=2} c_k b^k and
    c_k = [xbar*mu_(k-1) - (k-1)*mu_k/k]/(k-1)!. Lyapunov's inequality gives
    mu_k/mu_(k-1) >= mu_2/xbar, so mu_2 >= 2*xbar^2 (CV >= 1) makes
    c_2 = xbar^2 - mu_2/2 <= 0 and -c_k >= xbar*mu_(k-1)*(k-2)/k! > 0 for
    k >= 3: h < 0 on all of (0, inf). With z = x/max(x), nu_p = mean(z^p),
    y = b*max(x) and a = b*xbar = y*nu_1, each of these two sums of
    nonnegative terms of -h is therefore a lower bound on |h|:

        L(b) = (nu_2/2 - nu_1^2)*y^2 + sum_{k=3..HORIZON_TERMS}
               nu_1*nu_(k-1)*(k-2)*y^k/k!   (HORIZON_TERMS - 1 moments),
        T(b) = nu_1*((y - 2)*e^y + y + 2)/n   (y > 2),

    T being the k >= 3 terms of the largest observation alone, summed in
    closed form; L is the sharper at small y, T once e^y outgrows the
    polynomial.

    The rounding bound. Let u = 2^-53. numpy's exp is taken to be within
    4 ulp (8u), and rounding b*x_j moves e^(b x_j) by at most 1.0001*y*u
    more. numpy sums a row along its contiguous axis pairwise: blocks of 128
    in 8 accumulators, halved above that, and the reduction's first element
    added last, a tree at most D = 27 + max(0, ceil(log2(n/128))) additions
    deep. So a mean of n nonnegative terms carries (D + 1)u relative error.
    Carrying these through m1 = mean(e^(bx)) <= e^y, s1 = mean(x e^(bx))
    (b*s1 <= y*m1) and the roundings of (m1 - 1)*(a + 1) - b*s1 bounds the
    float score's error, to first order in u, by

        u*m1*(2D + 16 + y)*(1 + a + y) <= (2D + 16)*u*e^y*(1 + y)*(1 + a + y),

    as long as nothing overflows; subnormal intermediates add absolute errors
    below 2^-1000. So a column is proven when max(L, T) > E, with

        E(b) = HORIZON_SAFETY * (2D + 16) * u * e^y * (1 + y) * (1 + a + y),

    and nothing can overflow there: n*max(x)*e^y, which bounds every sum, is
    below e^709. The float values of L, T and E are within 1e-4 relative of
    their exact values (the margin keeps nu_2/2 - nu_1^2 clear of
    cancellation), far inside HORIZON_SAFETY. J is the first column from
    which every column is proven; a column where e^y overflows to inf is
    not.
    """
    m, n = xs.shape
    horizon = np.full(m, GRID_POINTS)
    top = xs[:, -1]
    z = xs / top[:, None]
    nu1 = _row_mean(z)
    p = z * z
    nu2 = _row_mean(p)
    rows = np.nonzero(nu2 >= 2.0 * nu1 * nu1 * (1.0 + HORIZON_CV_MARGIN))[0]
    if not rows.size:
        return horizon
    z, p, nu1, nu2, top = z[rows], p[rows], nu1[rows, None], nu2[rows, None], top[rows, None]
    y = grid[rows] * top
    term = 0.5 * y * y
    nu = nu2
    depth = 27 + max(0, math.ceil(math.log2(n / 128)))
    with np.errstate(over="ignore"):
        low = (nu2 - 2.0 * nu1 * nu1) * term
        for k in range(3, HORIZON_TERMS + 1):
            if k > 3:
                p *= z
                nu = _row_mean(p)[:, None]
            term = term * y / k
            low += (k - 2) * nu1 * nu * term
        ey = np.exp(y)
        tail = np.where(y > 2.0, nu1 * ((y - 2.0) * ey + y + 2.0) / n, 0.0)
        err = HORIZON_SAFETY * (2 * depth + 16) * 2.0**-53 * ey * (1.0 + y) * (1.0 + nu1 * y + y)
    finite = y + math.log(n) + np.log(np.maximum(top, 1.0)) < 709.0
    proven = (np.maximum(low, tail) > err) & finite
    suffix = np.logical_and.accumulate(proven[:, ::-1], axis=1)
    horizon[rows] = GRID_POINTS - suffix.sum(axis=1)
    return horizon


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
    straddles two blocks is tested too. Each h value is computed by the
    same row-local operations as in _score_and_deriv, so the bracket does
    not depend on the block width.

    A row leaves the scan after the block that holds its first sign change,
    or its column J - 1, J its horizon (_horizon), whichever comes first:
    from J on the float score is finite and negative, so the cell (J - 1, J)
    is the last that can hold a sign change, and it does exactly when h at
    J - 1 is finite and >= 0. A row with J = 0 has no sign change and is not
    scanned at all.
    """
    m, n = xs.shape
    grid = _grid(xs)
    first = np.full(m, -1)
    horizon = _horizon(xs, grid)
    idx = np.nonzero(horizon > 0)[0]
    ys, stop = xs[idx], horizon[idx]
    xbar = _row_mean(ys)
    buf = np.empty(min(max(m * n, _SCAN_BLOCK), m * n * GRID_POINTS))
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while j < GRID_POINTS and idx.size:
            r = idx.size
            k = min(max(1, _SCAN_BLOCK // (r * n)), GRID_POINTS - j)
            h = _score_rows(grid[idx, j : j + k], ys, xbar, buf[: r * k * n].reshape(r, k, n))
            if j:
                h = np.concatenate((prev[:, None], h), axis=1)
            # The score is negative at a row's horizon when that is the next column.
            after = np.where((stop == j + k) & (stop < GRID_POINTS), -1.0, np.nan)
            sign = np.where(np.isfinite(h), np.sign(h), np.nan)
            sign = np.concatenate((sign, after[:, None]), axis=1)
            flip = sign[:, :-1] * sign[:, 1:] <= 0.0
            hit = flip.any(axis=1)
            first[idx[hit]] = np.argmax(flip[hit], axis=1) + max(j - 1, 0)
            stay = ~hit & (stop > j + k)
            if not stay.all():
                idx, ys, xbar, stop, h = idx[stay], ys[stay], xbar[stay], stop[stay], h[stay]
            prev = h[:, -1]
            j += k
    has = first >= 0
    cell = np.where(has, first, 0)
    rows = np.arange(m)
    return has, grid[rows, cell], grid[rows, cell + 1]


def fit_batch(x):
    """Fit every row of an (m, n) matrix; see FitBatch.

    Pipeline per row: pilot start -> Newton, deflated at b=0 on rows with
    sample CV < 1; on pilot failure, Newton failure, overflow, or collapse
    onto the b=0 boundary -> grid bracket -> plain Newton inside it; if that
    fails too -> fallback b=0.001 with the flag set.
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    xs = np.sort(x, axis=1)
    pilot = _pilot(*_pilot_ingredients(xs)) if n >= PILOT_MIN_N else np.full(m, np.nan)
    start_ok = np.isfinite(pilot)
    b = np.where(start_ok, pilot, 1.0)
    # h/b^2 tends to xbar^2 - mean(x^2)/2 as b -> 0, positive iff the sample
    # CV is below 1; only there does deflating b=0 leave a root to find.
    xbar = _row_mean(xs)
    deflate = xbar * xbar > 0.5 * _row_mean(xs * xs)
    b_fit, converged, iterations = _newton(
        b, xs, start_ok, np.zeros(m), np.full(m, np.inf), deflate
    )
    # Convergence onto the boundary root b=0 is not a fit.
    converged &= b_fit > B_FLOOR
    if not np.all(converged):
        rows = np.nonzero(~converged)[0]
        has, lo, hi = _grid_rescue(xs[rows])
        rows, lo, hi = rows[has], lo[has], hi[has]
        b_r, conv_r, iter_r = _newton(
            0.5 * (lo + hi), xs[rows], np.ones(rows.size, bool), lo, hi, np.zeros(rows.size, bool)
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
