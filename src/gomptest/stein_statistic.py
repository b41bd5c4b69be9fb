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
evaluates it that way, with each interval's exponential moments taken about
its left end and compensated summation, and is the reference
implementation. t_statistic_closed_form is an O(n) prefix-sum evaluation
of the same integral used inside bootstrap loops; the two agree to 1e-8
relative, which the test suite enforces on randomised inputs (in practice
to about 1e-15). Its batched engine, _t_closed_form_rows, covers a whole
a-grid in one call, with a as an array axis. It expands each interval's
quadratic form about the interval's midpoint, a series in a*width/2 of 13
terms (truncation below 1e-17 relative), under the prefactor e^(-a*mid);
per block of rows it builds the a-free coefficients once, and each takes
one Horner step over the whole (a, row, interval) array. The elements where
a*width is too large for the series take the integration-by-parts ladder
about the left end, under e^(-a*lo). The two (a, row, interval) buffers are
allocated once per call.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import _FAMILIES, _as_spec, _points, _positive, alt_pdf, as_sample

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


def _pieces(ys, eta):
    """Per-interval terms of V_n over an (m, n) batch of sorted rows.

    Returns (lo, width, u, beta, alpha_n), each (m, n) but alpha_n (m,): on
    the k-th interval (lo, lo + width), with lo[:, 0] = 0, V_n is
    u + beta*(s - lo), so u is V_n at lo; past the last order statistic it
    is the constant alpha_n.
    """
    m, n = ys.shape
    g = eta[:, None] * np.exp(ys) - 1.0
    zero = np.zeros((m, 1))
    head_gy = np.concatenate((zero, np.cumsum(g * ys, axis=1)), axis=1)
    alpha = head_gy / n - np.arange(n + 1) / n
    beta = np.cumsum(g[:, ::-1], axis=1)[:, ::-1] / n
    lo = np.concatenate((zero, ys[:, :-1]), axis=1)
    return lo, ys - lo, alpha[:, :-1] + beta * lo, beta, alpha[:, -1]


# Below this value of z = a*width the exponential moments, and the engine's
# quadratic forms, use their series.
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
    reference implementation the closed form is validated against. It is
    the m=1 case of _pieces, which the engine shares; the moments come from
    _exp_moments, whose ladder the engine also uses but whose series about
    the left end it does not. The tests check _exp_moments and the engine
    against mpmath, and the statistic and v_process against V_n built from
    its definition.
    """
    a = _weight_a(w)
    ys = input.sorted_values
    lo, width, u, beta, alpha_n = _pieces(ys[None, :], np.asarray([input.eta_hat]))
    width = width[0]
    moments = (e.tolist() for e in _exp_moments(a, width, width**2, width**3))
    pieces = []
    for lo_k, u_k, be, e0, e1, e2 in zip(lo[0].tolist(), u[0].tolist(), beta[0].tolist(), *moments):
        quad_form = math.fsum([u_k * u_k * e0, 2.0 * u_k * be * e1, be * be * e2])
        pieces.append(math.exp(-a * lo_k) * quad_form)
    # on (Y_(n), inf) V_n is the constant alpha_n
    al = float(alpha_n[0])
    pieces.append(math.exp(-a * float(ys[-1])) * al * al / a)
    return input.n * math.fsum(pieces)


# _t_closed_form_rows works on blocks of rows holding about this many
# elements, so that a block's series coefficients stay in cache across the
# a axis.
_ROW_BLOCK = 1 << 13


def _mid_moment(p):
    # mu_p = integral_{-1/2}^{1/2} sigma^p dsigma
    return 0.0 if p % 2 else 0.5**p / (p + 1)


# The engine's series about each interval's midpoint. Its relative truncation
# error after K terms is at most e^z (z/2)^K / K!; this is the smallest K that
# keeps it below 1e-17 at the cut (13).
_MID_SERIES_TERMS = next(
    k
    for k in itertools.count(1)
    if math.exp(_MOMENT_SERIES_CUT) * (_MOMENT_SERIES_CUT / 2) ** k / math.factorial(k)
    < 1e-17
)
# Term k is (-z)^k R_k / k!, with R_k = c^2 mu_k + d^2 mu_(k+2) for even k
# and 2 c d mu_(k+1) for odd k; these are the a-free factors of c^2, d^2, c*d.
_MID_C2 = [_mid_moment(k) / math.factorial(k) for k in range(_MID_SERIES_TERMS)]
_MID_D2 = [_mid_moment(k + 2) / math.factorial(k) for k in range(_MID_SERIES_TERMS)]
_MID_CD = [2.0 * _mid_moment(k + 1) / math.factorial(k) for k in range(_MID_SERIES_TERMS)]


def _t_closed_form_rows(ys, eta, a_grid):
    """Integration-free statistic over an (m, n) batch of sorted rows.

    Returns a (len(a_grid), m) array: row i holds the statistic at
    a = a_grid[i]. Same intervals as t_statistic_quadrature (_pieces),
    vectorised, one block of about _ROW_BLOCK elements at a time, with a as
    the leading axis of one (len(a_grid), rows, n) array.

    Each interval (lo, lo + w) is expanded about its midpoint mid = lo + w/2:
    with c = V_n(mid), d = beta*w, z = a*w and sigma = (s - mid)/w,

        integral V_n^2 e^(-a*s) ds = w e^(-a*mid) sum_k (-z)^k/k! R_k,

    R_k = c^2 mu_k + d^2 mu_(k+2) for even k and 2 c d mu_(k+1) for odd k,
    where mu_p is the p-th moment of sigma on (-1/2, 1/2), zero for odd p.
    The series is in z/2 and both terms of R_0 = c^2 + d^2/12 are positive,
    so it has no cancellation at z = 0. Its relative truncation error after
    K terms is at most e^z (z/2)^K/K!, below 1e-17 at the cut z = 0.5 with
    K = 13 terms (_MID_SERIES_TERMS). Per block the a-free coefficients
    w*R_k are built once per term from w*c^2, w*d^2 and w*c*d, and each takes
    one Horner step in t = -a*w over the whole (a, row, interval) array.
    The elements with a*w >= _MOMENT_SERIES_CUT are then overwritten with
    the ladder's quadratic form u^2 E0 + 2 u beta E1 + beta^2 E2 about lo.
    They are found within the candidates taken once for max(a_grid);
    rounding is monotone, so each a finds the same elements as it would
    alone. The prefactor is e^(-a*mid) on series elements and e^(-a*lo) on
    ladder elements.

    The two (a, row, interval) arrays, t and the quadratic form, are
    allocated once per call and reused by every block (the last block uses
    a prefix). Every operation is elementwise or a row-local reduction, so
    a row is bitwise identical under any batching, any block size and any
    grid.
    """
    m, n = ys.shape
    a = np.asarray(a_grid, dtype=float)
    neg_a = -a[:, None, None]
    out = np.empty((a.size, m))
    step = max(1, _ROW_BLOCK // n)
    t_buf = np.empty(a.size * min(step, m) * n)
    form_buf = np.empty_like(t_buf)
    for r0 in range(0, m, step):
        rows = slice(r0, r0 + step)
        lo, width, u, be, alpha_n = _pieces(ys[rows], eta[rows])
        shape = (a.size,) + width.shape
        t = t_buf[: a.size * width.size].reshape(shape)
        quad_form = form_buf[: t.size].reshape(shape)
        d = be * width
        c = u + 0.5 * d
        c2, d2, cd = c * c * width, d * d * width, c * d * width
        np.multiply(neg_a, width, out=t)
        q = np.empty_like(width)
        tmp = np.empty_like(width)
        # on the elements the ladder overwrites, t**12 may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for k in reversed(range(_MID_SERIES_TERMS)):
                if k % 2:
                    np.multiply(cd, _MID_CD[k], out=q)
                else:
                    np.multiply(c2, _MID_C2[k], out=q)
                    q += np.multiply(d2, _MID_D2[k], out=tmp)
                if k == _MID_SERIES_TERMS - 1:
                    quad_form[...] = q
                else:
                    quad_form *= t
                    quad_form += q
        cand = np.flatnonzero(a.max() * width >= _MOMENT_SERIES_CUT)
        z = np.multiply.outer(a, width.reshape(-1)[cand])
        ia, ic = np.nonzero(z >= _MOMENT_SERIES_CUT)
        big = cand[ic]
        w_c, u_c, be_c, lo_c = (v.reshape(-1)[big] for v in (width, u, be, lo))
        e0, e1, e2 = _moment_ladder(a[ia], z[ia, ic], w_c, w_c**2)
        ladder = u_c * u_c * e0 + 2.0 * u_c * be_c * e1 + be_c * be_c * e2
        quad_form.reshape(a.size, -1)[ia, big] = ladder
        np.multiply(neg_a, lo + 0.5 * width, out=t)
        t.reshape(a.size, -1)[ia, big] = -a[ia] * lo_c
        np.exp(t, out=t)
        interior = np.sum(np.multiply(t, quad_form, out=t), axis=2)
        tail = np.exp(np.multiply.outer(-a, ys[rows, -1])) * alpha_n**2 / a[:, None]
        out[:, rows] = n * (interior + tail)
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
    s <= 0 and raises ValueError for a NaN s. Raises MomentConditionError
    when the defining expectation diverges, which happens whenever b is at
    least the density's exponential tail rate.
    """
    s = float(_points(s, "s"))
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
    # Only this function needs scipy, so `import gomptest` does not load it.
    from scipy import integrate

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
