import hashlib
import math
import pickle

import numpy as np
import pytest
from scipy import integrate, stats

from gomptest.distributions import (
    _FAMILIES,
    _as_spec,
    AlternativeSpec,
    GompertzParams,
    alt_pdf,
    alt_sample,
    as_sample,
    gompertz_cdf,
    gompertz_pdf,
    gompertz_quantile,
    gompertz_sample,
)


def test_params_validation():
    GompertzParams(0.5, 2.0)
    for eta, b in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0),
                   ("1", 1.0), (1.0, "1"), (True, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            GompertzParams(eta, b)


def test_as_sample_validation():
    out = as_sample([1.0, 2.0])
    assert out.dtype == float and out.shape == (2,)
    for bad in ([], [1.0, -1.0], [1.0, 0.0], [1.0, math.inf], [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError):
            as_sample(bad)


def test_gompertz_pdf_integrates_to_one():
    for eta, b in [(0.5, 1.0), (2.0, 0.3), (1.0, 4.0)]:
        p = GompertzParams(eta, b)
        val, err = integrate.quad(lambda x: gompertz_pdf(p, x), 0, np.inf)
        assert abs(val - 1.0) < 1e-9


def test_gompertz_cdf_matches_integrated_pdf():
    p = GompertzParams(1.5, 0.8)
    for x in (0.1, 0.7, 2.0):
        val, err = integrate.quad(lambda t: gompertz_pdf(p, t), 0, x)
        assert abs(val - gompertz_cdf(p, x)) < 1e-10


def test_gompertz_quantile_inverts_cdf():
    p = GompertzParams(0.7, 1.9)
    u = np.linspace(0.001, 0.999, 101)
    back = gompertz_cdf(p, gompertz_quantile(p, u))
    assert np.allclose(back, u, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        gompertz_quantile(p, 0.0)
    with pytest.raises(ValueError):
        gompertz_quantile(p, 1.0)


def test_gompertz_negative_argument():
    p = GompertzParams(1.0, 1.0)
    assert gompertz_pdf(p, -1.0) == 0.0
    assert gompertz_cdf(p, -1.0) == 0.0


def test_gompertz_sample_deterministic_and_positive():
    p = GompertzParams(1.0, 2.0)
    x1 = gompertz_sample(p, 1000, seed=5)
    x2 = gompertz_sample(p, 1000, seed=5)
    assert np.array_equal(x1, x2)
    assert np.all(x1 > 0)
    assert not np.array_equal(x1, gompertz_sample(p, 1000, seed=6))


def test_gompertz_sample_scale_coupling():
    # quantile divides by b, so samples at b and 2b differ exactly by the ratio
    x1 = gompertz_sample(GompertzParams(1.0, 1.0), 500, seed=3)
    x2 = gompertz_sample(GompertzParams(1.0, 2.0), 500, seed=3)
    assert np.array_equal(x1, 2.0 * x2)


def test_gompertz_sample_ks_against_cdf():
    p = GompertzParams(0.5, 1.0)
    x = gompertz_sample(p, 20000, seed=9)
    d, pval = stats.kstest(x, lambda t: gompertz_cdf(p, t))
    assert pval > 0.01


def test_spec_validation():
    AlternativeSpec("gamma", k=3)
    with pytest.raises(ValueError):
        AlternativeSpec("nosuch", x=1)
    with pytest.raises(ValueError):
        AlternativeSpec("gamma", wrong=3)
    with pytest.raises(ValueError):
        AlternativeSpec("gamma", k=-1)
    with pytest.raises(ValueError):
        AlternativeSpec("mixture", p=1.5)
    AlternativeSpec("mixture", p=0.0)
    AlternativeSpec("mixture", p=1.0)
    for bad in ("3", True, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma.k must"):
            AlternativeSpec("gamma", k=bad)
    for bad in (math.nan, -0.5, math.inf):
        with pytest.raises(ValueError, match=r"mixture.p must lie in \[0, 1\]"):
            AlternativeSpec("mixture", p=bad)


def test_spec_aliases_and_label():
    assert AlternativeSpec("LN", sigma=0.8) == AlternativeSpec("lognormal", sigma=0.8)
    assert AlternativeSpec("gamma", k=3).label() == "gamma(3)"
    assert AlternativeSpec("go", eta=0.5, b=1).label() == "gompertz(0.5,1)"
    assert hash(AlternativeSpec("w", k=2)) == hash(AlternativeSpec("weibull", k=2))


def test_spec_is_frozen_and_pickles():
    spec = AlternativeSpec("mix", p=0.25)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec) and back.label() == "mixture(0.25)"
    assert spec != AlternativeSpec("mixture", p=0.5)
    with pytest.raises(AttributeError):
        spec.family = "gamma"


_PDF_ORACLES = {
    AlternativeSpec("lognormal", sigma=0.5): stats.lognorm(s=0.5).pdf,
    AlternativeSpec("gamma", k=3): stats.gamma(3).pdf,
    AlternativeSpec("gamma", k=1): stats.expon().pdf,
    AlternativeSpec("invgauss", mu=1.5, lam=2.0): stats.invgauss(1.5 / 2.0, scale=2.0).pdf,
    AlternativeSpec("weibull", k=2.5): stats.weibull_min(2.5).pdf,
    AlternativeSpec("uniform", c=3.0): stats.uniform(0, 3).pdf,
    AlternativeSpec("power", nu=2.0): lambda x: stats.beta(0.5, 1).pdf(x),
    AlternativeSpec("shifted_pareto", nu=1.5): lambda x: stats.lomax(1.5).pdf(x),
}


def test_alt_pdf_against_scipy():
    x = np.linspace(0.01, 4.0, 57)
    for spec, oracle in _PDF_ORACLES.items():
        assert np.allclose(alt_pdf(spec, x), oracle(x), rtol=1e-10, atol=1e-12), spec


def test_alt_pdf_linear_failure_and_mixture():
    x = np.linspace(0.01, 4.0, 57)
    nu = 2.0
    lf = nu * (1.0 + x) * np.exp(-nu * (x**2 / 2.0 + x))
    assert np.allclose(alt_pdf(AlternativeSpec("lf", nu=nu), x), lf, rtol=1e-12)
    p = 0.3
    mix = p * gompertz_pdf(GompertzParams(1.0, 1.0), x) + (1 - p) * stats.gamma(5).pdf(x)
    assert np.allclose(alt_pdf(AlternativeSpec("mixture", p=p), x), mix, rtol=1e-10)


def test_alt_pdf_integrates_to_one():
    for spec in list(_PDF_ORACLES) + [
        AlternativeSpec("lf", nu=3.0),
        AlternativeSpec("mixture", p=0.5),
    ]:
        val, err = integrate.quad(
            lambda x: alt_pdf(spec, x), 0, np.inf, limit=200
        )
        assert abs(val - 1.0) < 1e-7, spec


def test_alt_pdf_zero_outside_support():
    assert alt_pdf(AlternativeSpec("uniform", c=2.0), 2.5) == 0.0
    assert alt_pdf(AlternativeSpec("power", nu=1.0), 1.5) == 0.0
    assert alt_pdf(AlternativeSpec("gamma", k=3), -1.0) == 0.0


def test_alt_sample_deterministic_and_positive():
    for spec in list(_PDF_ORACLES) + [
        AlternativeSpec("lf", nu=3.0),
        AlternativeSpec("mixture", p=0.5),
    ]:
        x1 = alt_sample(spec, 400, seed=2)
        x2 = alt_sample(spec, 400, seed=2)
        assert np.array_equal(x1, x2)
        assert np.all(x1 > 0), spec


def test_alt_sample_agrees_with_pdf():
    # one-sample KS against the family CDF obtained by integrating alt_pdf
    for spec, cdf in [
        (AlternativeSpec("lognormal", sigma=0.5), stats.lognorm(s=0.5).cdf),
        (AlternativeSpec("gamma", k=3), stats.gamma(3).cdf),
        (AlternativeSpec("invgauss", mu=1.5, lam=2.0),
         stats.invgauss(1.5 / 2.0, scale=2.0).cdf),
        (AlternativeSpec("weibull", k=2.5), stats.weibull_min(2.5).cdf),
        (AlternativeSpec("shifted_pareto", nu=1.5), stats.lomax(1.5).cdf),
    ]:
        x = alt_sample(spec, 20000, seed=4)
        d, pval = stats.kstest(x, cdf)
        assert pval > 0.005, (spec, pval)


def test_alt_sample_gompertz_matches_gompertz_sample():
    spec = AlternativeSpec("gompertz", eta=0.7, b=1.3)
    a = alt_sample(spec, 300, seed=8)
    b = gompertz_sample(GompertzParams(0.7, 1.3), 300, seed=8)
    assert np.array_equal(a, b)


def test_power_one_is_uniform():
    a = alt_sample(AlternativeSpec("power", nu=1.0), 300, seed=5)
    b = alt_sample(AlternativeSpec("uniform", c=1.0), 300, seed=5)
    assert np.array_equal(a, b)


def test_uniform_support_bound():
    x = alt_sample(AlternativeSpec("uniform", c=0.25), 1000, seed=1)
    assert np.all(x <= 0.25) and np.all(x > 0)


def test_sample_size_validation():
    with pytest.raises(ValueError):
        gompertz_sample(GompertzParams(1, 1), 0, seed=1)
    with pytest.raises(ValueError):
        alt_sample(AlternativeSpec("gamma", k=1), 0, seed=1)


def test_sample_size_must_be_an_integer():
    # the count rule of the bootstrap's request check; a NumPy integer counts
    for n in (2.5, 3.0, "3", None, True):
        with pytest.raises(ValueError, match="integer"):
            gompertz_sample(GompertzParams(1, 1), n, seed=1)
        with pytest.raises(ValueError, match="integer"):
            alt_sample(AlternativeSpec("gamma", k=1), n, seed=1)
    assert np.array_equal(
        gompertz_sample(GompertzParams(1, 1), np.int64(5), seed=1),
        gompertz_sample(GompertzParams(1, 1), 5, seed=1),
    )


_PIN_X = (0.25, 0.9, 2.5)
# Each family's exact behaviour: (distribution, first 16 hex digits of the
# sha256 of its 50 draws at seed 3, its density at _PIN_X, its exponential
# tail rate, the right end of its support).
_PINNED = [
    (GompertzParams(0.7, 1.3), "9fa3f5f9c6ed3521",
     (0.9625857444378897, 0.6189656339850923, 6.824690755205966e-07), math.inf, math.inf),
    (AlternativeSpec("gompertz", eta=0.7, b=1.3), "9fa3f5f9c6ed3521",
     (0.9625857444378897, 0.6189656339850923, 6.824690755205966e-07), math.inf, math.inf),
    (AlternativeSpec("lognormal", sigma=0.5), "30fde1bb8010c8c6",
     (0.06834949509643216, 0.8670726478423408, 0.05953091657028574), 0.0, math.inf),
    (AlternativeSpec("gamma", k=3), "9a6687c8012c04d9",
     (0.024337524470981402, 0.16466071219494266, 0.25651562069968376), 1.0, math.inf),
    (AlternativeSpec("invgauss", mu=1.5, lam=2.0), "f4c6b316b196730b",
     (0.28063477755587896, 0.5531633417436586, 0.11948328181663026), 2.0 / 4.5, math.inf),
    (AlternativeSpec("weibull", k=0.5), "cf32f1ac7e5ef501",
     (0.6065306597126334, 0.20409897713189917, 0.06506090963336202), 0.0, math.inf),
    (AlternativeSpec("weibull", k=1.0), "e85982df79b757b4",
     (0.7788007830714049, 0.4065696597405991, 0.0820849986238988), 1.0, math.inf),
    (AlternativeSpec("weibull", k=2.5), "732a84d54e917e2c",
     (0.30288538577385754, 0.9898681633708111, 0.0005047784901208285), math.inf, math.inf),
    (AlternativeSpec("uniform", c=3.0), "d092cb23111622df",
     (0.3333333333333333, 0.3333333333333333, 0.3333333333333333), math.inf, 3.0),
    (AlternativeSpec("power", nu=2.0), "b0d452104189a431",
     (1.0, 0.5270462766947299, 0.0), math.inf, 1.0),
    (AlternativeSpec("shifted_pareto", nu=1.5), "0c2344aa7dfbbe38",
     (0.8586501033599193, 0.3014444252534675, 0.06545173271324678), 0.0, math.inf),
    (AlternativeSpec("linear_failure", nu=2.0), "5e75ca69f4807af0",
     (1.4244570618273076, 0.27943126629961684, 9.105108357847334e-05), math.inf, math.inf),
    (AlternativeSpec("mixture", p=0.0), "5aabe41a501227a9",
     (0.00012675793995302814, 0.011114598073158628, 0.13360188578108528), 1.0, math.inf),
    (AlternativeSpec("mixture", p=0.3), "2bb8558892af01c7",
     (0.2900528119290463, 0.17921096325558075, 0.0935721783700827), 1.0, math.inf),
    (AlternativeSpec("mixture", p=1.0), "df8d6e078cf485d2",
     (0.9665469379035974, 0.5714358153478991, 0.00016952774441003813), math.inf, math.inf),
]


def test_family_outputs_are_pinned():
    for dist, digest, pdf, rate, end in _PINNED:
        if isinstance(dist, GompertzParams):
            sample, density = gompertz_sample, gompertz_pdf
        else:
            sample, density = alt_sample, alt_pdf
        draws = sample(dist, 50, seed=3)
        assert hashlib.sha256(draws.tobytes()).hexdigest()[:16] == digest, dist
        assert tuple(density(dist, x) for x in _PIN_X) == pdf, dist
        spec = _as_spec(dist)
        fam = _FAMILIES[spec.family]
        assert (fam.tail_rate(**spec.params), fam.upper(**spec.params)) == (rate, end), dist
