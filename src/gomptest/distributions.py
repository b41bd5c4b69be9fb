"""Gompertz distribution core and the alternative families of the power study.

The Gompertz law GO(eta, b) has density b*eta*exp(eta + b*x - eta*e^(b*x))
and CDF 1 - exp(-eta*(e^(b*x) - 1)) on x >= 0. All samplers draw from
deterministic seed-indexed Philox streams (see rng.substream); the same seed
always reproduces the same sample, and families driven by plain uniforms
share those uniforms, which keeps couplings like Pow(1) == U(0,1) exact.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .rng import substream

__all__ = [
    "GompertzParams",
    "AlternativeSpec",
    "as_sample",
    "gompertz_pdf",
    "gompertz_cdf",
    "gompertz_quantile",
    "gompertz_sample",
    "alt_sample",
    "alt_pdf",
]


@dataclass(frozen=True)
class GompertzParams:
    """Shape eta > 0 and rate/scale b > 0 of a Gompertz law."""

    eta: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _positive(self.eta, "eta"))
        object.__setattr__(self, "b", _positive(self.b, "b"))


def as_sample(values):
    """Validate and return a 1-d float array of strictly positive finite values."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("sample must be a nonempty one-dimensional collection")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("sample values must be strictly positive and finite")
    return x


# The rules for scalar inputs; each raises ValueError naming the argument. A bool is
# not a number, and text is converted where it arrives: config reader, parse_family, CLI.


def _count(v, name, least):
    """v as an int, once it is an integer (not a bool) of at least `least`."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral) and v >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {v!r}")
    return int(v)


def _positive(v, name):
    """v as a float, once it is a finite real number (not a bool) above 0."""
    # compared, not converted, so that an int too large for a float is refused too
    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and 0 < v <= sys.float_info.max):
        raise ValueError(f"{name} must be a positive finite real, got {v!r}")
    return float(v)


def _level(v, name, closed=False):
    """v as a float, once it is a real number (not a bool) strictly inside (0, 1),
    or inside [0, 1] when `closed`."""
    real = isinstance(v, numbers.Real) and not isinstance(v, bool)
    if not (real and (0 <= v <= 1 if closed else 0 < v < 1)):
        where = "lie in [0, 1]" if closed else "be a real strictly inside (0, 1)"
        raise ValueError(f"{name} must {where}, got {v!r}")
    return float(v)


def _points(x, name="x"):
    """Evaluation points as a float array (0-d for a scalar), once none is NaN."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError(f"{name} must not be NaN")
    return x


def gompertz_pdf(p, x):
    """Density of GO(p.eta, p.b); zero for x < 0."""
    return alt_pdf(p, x)


def gompertz_cdf(p, x):
    """CDF of GO(p.eta, p.b); zero for x < 0."""
    x = _points(x)
    out = np.where(x >= 0.0, _gompertz_cdf_unit(p.eta, p.b * x), 0.0)
    return out if out.ndim else float(out)


def gompertz_quantile(p, u):
    """Inverse CDF: (1/b) * log(1 - log(1-u)/eta) for u in (0, 1)."""
    u = _points(u, "u")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = _gompertz_quantile_raw(p.eta, p.b, u)
    return out if out.ndim else float(out)


def _gompertz_cdf_unit(eta, y):
    # CDF of GO(eta, 1) at y = b*x; e^y overflowing to inf gives exactly 1.
    with np.errstate(over="ignore"):
        return -np.expm1(-eta * np.expm1(y))


def _gompertz_quantile_raw(eta, b, u):
    # Kept as a division by b so samples with b and b' differ exactly by b'/b.
    return np.log1p(-np.log1p(-u) / eta) / b


def gompertz_sample(p, n, seed):
    """n i.i.d. GO(p.eta, p.b) draws by inverse transform, seed-deterministic."""
    return alt_sample(p, n, seed)


def _positive_uniforms(gen, n):
    # random() can return exactly 0.0; nudge it off so inverse transforms stay > 0.
    u = gen.random(n)
    return np.maximum(u, np.finfo(float).tiny)


def _gompertz_density(x, eta, b):
    return b * eta * np.exp(eta + b * x - eta * np.exp(b * x))


def _sample_invgauss(gen, n, mu, lam):
    # Michael-Schucany-Haas transformation: one chi-square root, one uniform.
    nu = gen.standard_normal(n) ** 2
    x = mu + mu * mu * nu / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * nu + (mu * nu) ** 2
    )
    u = gen.random(n)
    return np.where(u <= mu / (mu + x), x, mu * mu / x)


def _sample_linear_failure(gen, n, nu):
    # Invert the survival exp(-nu*(x^2/2 + x)): x^2 + 2x - 2w/nu = 0.
    w = -np.log1p(-_positive_uniforms(gen, n))
    t = 2.0 * w / nu
    return t / (np.sqrt(1.0 + t) + 1.0)


def _sample_mixture(gen, n, p):
    pick = gen.random(n)
    go = _gompertz_quantile_raw(1.0, 1.0, _positive_uniforms(gen, n))
    gam = gen.standard_gamma(5.0, n)
    return np.where(pick < p, go, gam)


def _mixture_density(x, p):
    gam = x**4 * np.exp(-x) / math.gamma(5.0)
    return p * _gompertz_density(x, 1.0, 1.0) + (1.0 - p) * gam, x > 0.0


def _infinite(**_):
    return math.inf


@dataclass(frozen=True)
class _Family:
    """What the code knows about one family; each function takes its parameters.

    sample(gen, n, **params) draws from a Philox generator; density(x,
    **params) returns the density formula and the support test, which
    alt_pdf combines; tail_rate(**params) is sup{c : E[e^(cX)] < inf};
    upper(**params) is the right end of the support. Parameters named in
    `unit` lie in [0, 1]; all others must be strictly positive.
    """

    params: tuple
    sample: object
    density: object
    tail_rate: object
    upper: object = _infinite
    unit: tuple = ()


_FAMILIES = {
    "gompertz": _Family(
        ("eta", "b"),
        lambda gen, n, eta, b: _gompertz_quantile_raw(eta, b, _positive_uniforms(gen, n)),
        lambda x, eta, b: (_gompertz_density(x, eta, b), x >= 0.0),
        _infinite,
    ),
    "lognormal": _Family(
        ("sigma",),
        lambda gen, n, sigma: np.exp(sigma * gen.standard_normal(n)),
        lambda x, sigma: (
            np.exp(-np.log(x) ** 2 / (2.0 * sigma * sigma))
            / (x * sigma * math.sqrt(2.0 * math.pi)),
            x > 0.0,
        ),
        lambda sigma: 0.0,
    ),
    "gamma": _Family(
        ("k",),
        lambda gen, n, k: gen.standard_gamma(k, n),
        lambda x, k: (x ** (k - 1.0) * np.exp(-x) / math.gamma(k), x > 0.0),
        lambda k: 1.0,
    ),
    "invgauss": _Family(
        ("mu", "lam"),
        _sample_invgauss,
        lambda x, mu, lam: (
            np.sqrt(lam / (2.0 * math.pi * x**3))
            * np.exp(-lam * (x - mu) ** 2 / (2.0 * mu * mu * x)),
            x > 0.0,
        ),
        lambda mu, lam: lam / (2.0 * mu**2),
    ),
    "weibull": _Family(
        ("k",),
        lambda gen, n, k: (-np.log1p(-_positive_uniforms(gen, n))) ** (1.0 / k),
        lambda x, k: (k * x ** (k - 1.0) * np.exp(-(x**k)), x > 0.0),
        lambda k: math.inf if k > 1.0 else (1.0 if k == 1.0 else 0.0),
    ),
    "uniform": _Family(
        ("c",),
        lambda gen, n, c: c * _positive_uniforms(gen, n),
        lambda x, c: (np.full_like(x, 1.0 / c), (x > 0.0) & (x < c)),
        _infinite,
        upper=lambda c: c,
    ),
    "power": _Family(
        ("nu",),
        lambda gen, n, nu: _positive_uniforms(gen, n) ** nu,
        lambda x, nu: (x ** (1.0 / nu - 1.0) / nu, (x > 0.0) & (x <= 1.0)),
        _infinite,
        upper=lambda nu: 1.0,
    ),
    "shifted_pareto": _Family(
        ("nu",),
        lambda gen, n, nu: np.expm1(-np.log1p(-_positive_uniforms(gen, n)) / nu),
        lambda x, nu: (nu * (x + 1.0) ** (-nu - 1.0), x > 0.0),
        lambda nu: 0.0,
    ),
    "linear_failure": _Family(
        ("nu",),
        _sample_linear_failure,
        lambda x, nu: (nu * (x + 1.0) * np.exp(-nu * (x * x / 2.0 + x)), x > 0.0),
        _infinite,
    ),
    # p * GO(1,1) + (1-p) * Gamma(5): the gamma part caps the tail rate at 1.
    "mixture": _Family(
        ("p",),
        _sample_mixture,
        _mixture_density,
        lambda p: 1.0 if p < 1.0 else math.inf,
        unit=("p",),
    ),
}

_ALIASES = {
    "go": "gompertz",
    "ln": "lognormal",
    "ig": "invgauss",
    "w": "weibull",
    "u": "uniform",
    "pow": "power",
    "sp": "shifted_pareto",
    "lf": "linear_failure",
    "mix": "mixture",
}


@dataclass(frozen=True, init=False)
class AlternativeSpec:
    """One of the study's distribution families with its parameters.

    Families and parameters:
        gompertz(eta, b), lognormal(sigma), gamma(k), invgauss(mu, lam),
        weibull(k), uniform(c), power(nu), shifted_pareto(nu),
        linear_failure(nu), mixture(p).

    mixture(p) is p * GO(1,1) + (1-p) * Gamma(5) with p in [0, 1]; every
    other parameter must be strictly positive. Short aliases (ln, ig, w, u,
    pow, sp, lf, mix, go) are accepted for the family name.
    """

    family: str
    params: dict

    def __init__(self, family, **params):
        name = _ALIASES.get(str(family).lower(), str(family).lower())
        if name not in _FAMILIES:
            raise ValueError(f"unknown distribution family {family!r}")
        fam = _FAMILIES[name]
        required = fam.params
        if set(params) != set(required):
            raise ValueError(
                f"family {name!r} takes parameters {required}, got {tuple(params)}"
            )
        clean = {
            key: _level(params[key], f"{name}.{key}", closed=True) if key in fam.unit
            else _positive(params[key], f"{name}.{key}")
            for key in required
        }
        object.__setattr__(self, "family", name)
        object.__setattr__(self, "params", clean)

    def __hash__(self):
        # params is a dict, so the generated hash would fail
        return hash((self.family, tuple(sorted(self.params.items()))))

    def __repr__(self):
        kw = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"AlternativeSpec({self.family!r}, {kw})"

    def label(self):
        """Compact text tag, e.g. 'gamma(3)' or 'gompertz(0.5,1)'."""
        args = ",".join(f"{v:g}" for v in self.params.values())
        return f"{self.family}({args})"


def _as_spec(dist):
    """The AlternativeSpec of a distribution; GompertzParams is its 'gompertz' spec."""
    if isinstance(dist, GompertzParams):
        return AlternativeSpec("gompertz", eta=dist.eta, b=dist.b)
    return dist


def alt_sample(spec, n, seed):
    """n i.i.d. draws from the family in `spec`, seed-deterministic.

    `spec` is an AlternativeSpec or a GompertzParams. Inverse-transform
    families consume one uniform per draw from the same stream
    gompertz_sample uses, so e.g. power(nu=1) reproduces uniform(c=1) draw
    for draw under a shared seed.
    """
    n = _count(n, "n", 1)
    spec = _as_spec(spec)
    return _FAMILIES[spec.family].sample(substream(seed), n, **spec.params)


def alt_pdf(spec, x):
    """Density of `spec` (AlternativeSpec or GompertzParams); 0 outside support."""
    x = _points(x)
    spec = _as_spec(spec)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val, inside = _FAMILIES[spec.family].density(x, **spec.params)
    out = np.where(inside, val, 0.0)
    return out if out.ndim else float(out)
