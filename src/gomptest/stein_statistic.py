"""Characterisation-based test statistic for the Gompertz hypothesis.

A random variable X follows GO(eta, b) exactly when the transform

    T(s) = E[(eta*b*e^(bX) - b) * min(X, s)]   (s > 0; 0 otherwise)

coincides with the CDF of GO(eta, b). The test statistic replaces the
expectation by the empirical analogue V_n built from rescaled data
Y_j = b_hat*X_j minus the empirical CDF, and integrates its square against
the weight w_a(s) = e^(-a*s):

    T_{n,a} = n * integral_0^inf V_n(s)^2 e^(-a*s) ds.

V_n is piecewise affine between consecutive order statistics, so the
integral has an exact piecewise antiderivative; t_statistic_quadrature
evaluates it that way with compensated summation and is the reference
implementation. t_statistic_closed_form is an O(n) prefix-sum evaluation
of the same integral used inside bootstrap loops; the two agree to 1e-8
relative, which the test suite enforces on randomised inputs (in practice
to about 1e-15). Its batched engine, _t_closed_form_rows, covers a whole
a-grid in one call: per block of rows it builds the a-free power-series
coefficients of every interval's quadratic form once, so that each a costs
one Horner pass, with the integration-by-parts ladder taking the intervals
where a*width is too large for the series.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .distributions import _FAMILIES, _as_spec, _positive, alt_pdf, as_sample

__all__ = [
    "WeightParam",
    "StatisticInput",
    "MomentConditionError",
    "v_process",
    "t_statistic_quadrature",
    "t_statistic_closed_form",
    "stein_transform",
    "delta_estimate",
]

# e^Y enters squared products; above this the statistic's terms overflow.
Y_OVERFLOW = 700.0


class MomentConditionError(ValueError):
    """E[X e^(bX)] diverges for the requested density and b."""


@dataclass(frozen=True)
class WeightParam:
    """Tuning parameter a > 0 of the weight w_a(s) = e^(-a*s)."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", _positive(self.a, "weight parameter a"))


def _weight_a(w):
    if isinstance(w, WeightParam):
        return w.a
    return WeightParam(w).a


@dataclass(frozen=True, eq=False)
class StatisticInput:
    """Rescaled sample Y_j = b_hat*X_j together with eta_hat.

    Keeps both the original-order values and a sorted copy. Construction
    rejects Y values above 700: e^Y would overflow in the statistic, and
    such values only arise from fits that did not converge.
    """

    values: np.ndarray = field(repr=False)
    eta_hat: float
    sorted_values: np.ndarray = field(init=False, repr=False)
    n: int = field(init=False)

    def __post_init__(self):
        v = as_sample(self.values)
        object.__setattr__(self, "eta_hat", _positive(self.eta_hat, "eta_hat"))
        if np.max(v) > Y_OVERFLOW:
            raise ValueError(
                "rescaled values exceed 700; e^Y overflows "
                "(upstream fit did not converge)"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "sorted_values", np.sort(v))
        object.__setattr__(self, "n", v.size)

    @classmethod
    def from_rescaled(cls, rescaled):
        """Build from estimation.rescale output."""
        return cls(rescaled.values, rescaled.fit.eta_hat)


def v_process(input, s):
    """Empirical transform minus empirical CDF at s > 0.

    (1/n) sum_j (eta_hat*e^(Y_j) - 1)*min(Y_j, s) - (1/n) sum_j 1{Y_j <= s}.
    """
    s = _positive(s, "s")
    y = input.sorted_values
    g = input.eta_hat * np.exp(y) - 1.0
    return float(
        np.mean(g * np.minimum(y, s)) - np.count_nonzero(y <= s) / input.n
    )


def _pieces(input):
    """Per-interval affine coefficients of V_n.

    Returns (knots, alpha, beta): on (knots[k], knots[k+1]) the process is
    alpha[k] + beta[k]*s, with knots[0] = 0 and an implicit +inf end.
    """
    y = input.sorted_values
    n = input.n
    g = input.eta_hat * np.exp(y) - 1.0
    gy = g * y
    head = np.concatenate(([0.0], np.cumsum(gy)))
    tail = np.concatenate((np.cumsum(g[::-1])[::-1], [0.0]))
    k = np.arange(n + 1)
    alpha = head / n - k / n
    beta = tail / n
    knots = np.concatenate(([0.0], y))
    return knots, alpha, beta


# Below this value of z = a*width the exponential moments use their series.
_MOMENT_SERIES_CUT = 0.5
_MOMENT_SERIES_TERMS = 17


def _moment_series_coeffs(m):
    # integral_0^1 tau^m e^(-z*tau) dtau = sum_k (-z)^k / (k! * (k+m+1))
    return [
        1.0 / (math.factorial(k) * (k + m + 1)) for k in range(_MOMENT_SERIES_TERMS)
    ]


_P0 = _moment_series_coeffs(0)
_P1 = _moment_series_coeffs(1)
_P2 = _moment_series_coeffs(2)


def _horner(coeffs, t):
    """sum_k coeffs[k] * t**k, updating one array it owns in place.

    out *= t; out += c performs the same IEEE operations as c + t*out.
    """
    out = np.full_like(t, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out *= t
        out += c
    return out


def _moment_ladder(a, z, width, width2):
    """E0, E1, E2 by the integration-by-parts ladder, with z = a*width.

    Well conditioned once z >= _MOMENT_SERIES_CUT; the closed expressions
    cancel catastrophically below it.
    """
    e = np.exp(-z)
    e0 = -np.expm1(-z) / a
    e1 = (e0 - width * e) / a
    e2 = (2.0 * e1 - width2 * e) / a
    return e0, e1, e2


def _exp_moments(a, width, width2, width3):
    """E_m = integral_0^width t^m e^(-a*t) dt for m = 0, 1, 2, elementwise.

    width2 and width3 are width**2 and width**3, which do not depend on a.
    Small z = a*width uses the power series of the scaled integral; larger
    values use _moment_ladder. Each branch is evaluated only on the elements
    that take it.
    """
    z = a * width
    small = z < _MOMENT_SERIES_CUT
    big = ~small
    e0 = np.empty_like(width)
    e1 = np.empty_like(width)
    e2 = np.empty_like(width)
    t = -z[small]
    e0[small] = width[small] * _horner(_P0, t)
    e1[small] = width2[small] * _horner(_P1, t)
    e2[small] = width3[small] * _horner(_P2, t)
    e0[big], e1[big], e2[big] = _moment_ladder(a, z[big], width[big], width2[big])
    return e0, e1, e2


def t_statistic_quadrature(input, w):
    """Exact piecewise evaluation of n * integral V_n^2(s) e^(-a*s) ds.

    On each interval (lo, hi) the integrand is (u + beta*t)^2 e^(-a*t)
    shifted by e^(-a*lo), with u = V_n at lo, so the piece equals
    e^(-a*lo) * (u^2 E0 + 2 u beta E1 + beta^2 E2) with the exponential
    moments E_m of the interval. That quadratic form is positive
    semidefinite with bounded condition number, every piece is nonnegative,
    and the pieces are combined with compensated summation; this is the
    reference implementation the closed form is validated against. The two
    share only _exp_moments, which the tests check against mpmath.
    """
    a = _weight_a(w)
    knots, alpha, beta = _pieces(input)
    width = np.diff(knots)
    moments = (e.tolist() for e in _exp_moments(a, width, width**2, width**3))
    pieces = []
    for lo, al, be, e0, e1, e2 in zip(knots.tolist(), alpha.tolist(), beta.tolist(), *moments):
        u = al + be * lo
        quad_form = math.fsum([u * u * e0, 2.0 * u * be * e1, be * be * e2])
        pieces.append(math.exp(-a * lo) * quad_form)
    # zip ends with the n finite intervals; on (Y_(n), inf) beta = 0, integrand alpha^2.
    al_inf = float(alpha[-1])
    pieces.append(math.exp(-a * float(knots[-1])) * al_inf * al_inf / a)
    return input.n * math.fsum(pieces)


# _t_closed_form_rows works on blocks of rows holding about this many
# elements, so that a block's series coefficients stay in cache across the
# a loop.
_ROW_BLOCK = 1 << 13


def _t_closed_form_rows(ys, eta, a_grid):
    """Integration-free statistic over an (m, n) batch of sorted rows.

    Returns a (len(a_grid), m) array: row i holds the statistic at
    a = a_grid[i]. Same per-interval quadratic form as
    t_statistic_quadrature, vectorised with exclusive prefix sums, one
    block of about _ROW_BLOCK elements at a time (see _closed_form_block).
    All reductions are row-local, so a row is bitwise identical under any
    batching, any block size and any grid.
    """
    m, n = ys.shape
    out = np.empty((len(a_grid), m))
    step = max(1, _ROW_BLOCK // n)
    for r0 in range(0, m, step):
        rows = slice(r0, r0 + step)
        out[:, rows] = _closed_form_block(ys[rows], eta[rows], a_grid)
    return out


def _closed_form_block(ys, eta, a_grid):
    """_t_closed_form_rows on one block of rows.

    The a-free terms are computed once: the prefix sums and, per interval,
    the coefficients Q_k of the whole quadratic form
    u^2 E0 + 2 u beta E1 + beta^2 E2 as a power series in t = -a*width,
    Q_k = u^2 w P0[k] + 2 u beta w^2 P1[k] + beta^2 w^3 P2[k]. Each a then
    costs one Horner pass over every element, after which the elements with
    a*width >= _MOMENT_SERIES_CUT are overwritten with the ladder's
    quadratic form. They are found within the candidates taken once for
    max(a_grid); rounding is monotone, so each a finds the same elements as
    it would alone.

    Each Q_k is built into one (m, n) buffer and every a's Horner sum takes
    its step with it, so the block holds only (m, n) arrays. A (17, m, n)
    array of all the Q_k would be too large for the allocator's free lists
    and would page-fault afresh on every call.
    """
    m, n = ys.shape
    g = eta[:, None] * np.exp(ys) - 1.0
    zero = np.zeros((m, 1))
    head_gy = np.concatenate((zero, np.cumsum(g * ys, axis=1)), axis=1)
    tail_g = np.concatenate((np.cumsum(g[:, ::-1], axis=1)[:, ::-1], zero), axis=1)
    counts = np.arange(n + 1, dtype=float)[None, :]
    alpha = head_gy / n - counts / n
    beta = tail_g / n
    lo = np.concatenate((zero, ys[:, :-1]), axis=1)
    width = ys - lo
    be = beta[:, :-1]
    u = alpha[:, :-1] + be * lo
    uu = u * u
    two_ub = 2.0 * u * be
    bb = be * be
    width2 = width**2
    last = ys[:, -1]
    tail_sq = alpha[:, -1] ** 2
    cand = np.flatnonzero(max(a_grid) * width >= _MOMENT_SERIES_CUT)
    w_c, w2_c, uu_c, two_ub_c, bb_c = (
        v.reshape(-1)[cand] for v in (width, width2, uu, two_ub, bb)
    )
    c0, c1, c2 = uu * width, two_ub * width2, bb * width**3
    del g, head_gy, tail_g, alpha, beta, be, u, uu, two_ub, bb, width2
    ts = [-a * width for a in a_grid]
    q = np.empty((m, n))
    tmp = np.empty((m, n))
    sums = None
    # on the elements the ladder overwrites, t**16 may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for k in reversed(range(_MOMENT_SERIES_TERMS)):
            np.multiply(c0, _P0[k], out=q)
            q += np.multiply(c1, _P1[k], out=tmp)
            q += np.multiply(c2, _P2[k], out=tmp)
            if sums is None:
                sums = [q.copy() for _ in a_grid]
            else:
                for quad_form, t in zip(sums, ts):
                    quad_form *= t
                    quad_form += q
    del c0, c1, c2, ts, q, tmp
    out = np.empty((len(a_grid), m))
    for i, (a, quad_form) in enumerate(zip(a_grid, sums)):
        zc = a * w_c
        big = zc >= _MOMENT_SERIES_CUT
        e0, e1, e2 = _moment_ladder(a, zc[big], w_c[big], w2_c[big])
        quad_form.reshape(-1)[cand[big]] = uu_c[big] * e0 + two_ub_c[big] * e1 + bb_c[big] * e2
        interior = np.sum(np.exp(-a * lo) * quad_form, axis=1)
        tail = np.exp(-a * last) * tail_sq / a
        out[i] = n * (interior + tail)
    return out


def t_statistic_closed_form(input, w):
    """O(n) evaluation of the statistic; agrees with the quadrature to 1e-8."""
    a = _weight_a(w)
    ys = input.sorted_values[None, :]
    eta = np.asarray([input.eta_hat])
    return float(_t_closed_form_rows(ys, eta, (a,))[0, 0])


def delta_estimate(input, w, n):
    """T_{n,a}/n, the plug-in estimate of the statistic's almost-sure limit."""
    if n != input.n:
        raise ValueError(f"n={n} does not match the input's sample size {input.n}")
    return t_statistic_closed_form(input, w) / n


# ---------------------------------------------------------------------------
# population transform


def stein_transform(density, p, s):
    """Population transform E[(eta*b*e^(bX) - b) * min(X, s)] for s > 0.

    X has the given density; (eta, b) = (p.eta, p.b). Equals the GO(eta, b)
    CDF for every s exactly when X follows GO(eta, b). Returns 0 for
    s <= 0. Raises MomentConditionError when the defining expectation
    diverges, which happens whenever b is at least the density's
    exponential tail rate.
    """
    s = float(s)
    if s <= 0.0:
        return 0.0
    eta, b = p.eta, p.b
    spec = _as_spec(density)
    fam = _FAMILIES[spec.family]
    rate = fam.tail_rate(**spec.params)
    if not b < rate:
        raise MomentConditionError(
            f"E[X e^(bX)] diverges: b={b:g} is not below the tail rate {rate:g}"
        )
    upper = fam.upper(**spec.params)

    def weighted(x):
        # e^(bx) alone can overflow where the density has already underflowed
        # to 0; fold the two together in log space.
        fx = alt_pdf(spec, x)
        if fx <= 0.0:
            return 0.0
        return eta * b * math.exp(b * x + math.log(fx)) - b * fx

    opts = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    total, err = integrate.quad(lambda x: weighted(x) * x, 0.0, min(s, upper), **opts)
    if s < upper:
        tail, err2 = integrate.quad(weighted, s, upper, **opts)
        total += s * tail
        err += abs(s) * err2
    if not math.isfinite(total) or err > max(1e-7, 1e-7 * abs(total)):
        raise MomentConditionError(
            f"transform quadrature did not converge (value={total!r}, err={err!r})"
        )
    return total
