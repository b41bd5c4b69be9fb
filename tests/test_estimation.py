import hashlib
import math

import numpy as np
import pytest

from gomptest.distributions import (
    AlternativeSpec,
    GompertzParams,
    alt_sample,
    gompertz_pdf,
    gompertz_sample,
)
from gomptest.estimation import (
    B_FLOOR,
    NEWTON_TOL,
    FitResult,
    PilotFailedError,
    ScoreOverflowError,
    fit_batch,
    fit_mle,
    nelson_aalen,
    pilot_from_cumhaz,
    pilot_scale,
    rescale,
    score_h,
)

# frozen during development: exponential data at this seed defeats both the
# Newton start and the grid rescue, exercising the fallback path
FALLBACK_SEED = 2


def test_nelson_aalen_hand_values():
    x = [1.0, 2.0, 3.0]
    assert nelson_aalen(x, 0.5) == 0.0
    assert math.isclose(nelson_aalen(x, 1.0), 1 / 3, rel_tol=1e-15)
    assert math.isclose(nelson_aalen(x, 1.5), 1 / 3, rel_tol=1e-15)
    assert math.isclose(nelson_aalen(x, 2.0), 1 / 3 + 1 / 2, rel_tol=1e-15)
    assert math.isclose(nelson_aalen(x, 10.0), 1 / 3 + 1 / 2 + 1.0, rel_tol=1e-15)


def test_nelson_aalen_ties_and_vector_argument():
    x = [2.0, 2.0, 5.0]
    # both tied points jump: 1/3 + 1/2
    assert math.isclose(nelson_aalen(x, 2.0), 1 / 3 + 1 / 2, rel_tol=1e-15)
    out = nelson_aalen(x, [1.0, 2.0, 5.0])
    assert np.allclose(out, [0.0, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2 + 1.0], rtol=1e-15)


def test_pilot_identity_exact_on_dyadic_b():
    # with the exact Gompertz cumulative hazard eta*(e^(b x)-1) at eta=1/2,
    # z = 2 ln 3 / b gives lam(z)=4, lam(z/2)=1 and the pilot returns b bitwise
    for b in (0.5, 1.0, 2.0, 4.0):
        z = 2.0 * math.log(3.0) / b
        assert pilot_from_cumhaz(z, 4.0, 1.0) == b


def test_pilot_identity_near_exact_on_general_b():
    for b in (0.3, 0.7, 1.3, 3.7):
        z = 2.0 * math.log(3.0) / b
        got = pilot_from_cumhaz(z, 4.0, 1.0)
        assert abs(got - b) <= 2 * math.ulp(b)


def test_pilot_from_cumhaz_degenerate():
    with pytest.raises(PilotFailedError):
        pilot_from_cumhaz(1.0, 1.0, 1.0)
    with pytest.raises(PilotFailedError):
        pilot_from_cumhaz(1.0, 0.5, 0.0)
    with pytest.raises(PilotFailedError):
        pilot_from_cumhaz(1.0, 0.2, 0.5)


def test_pilot_scale_matches_ingredients():
    x = gompertz_sample(GompertzParams(1.0, 2.0), 200, seed=7)
    z = float(np.quantile(x, 0.9))
    expected = pilot_from_cumhaz(z, nelson_aalen(x, z), nelson_aalen(x, z / 2.0))
    assert pilot_scale(x) == expected


def test_pilot_scale_needs_five_points():
    with pytest.raises(ValueError):
        pilot_scale([1.0, 2.0, 3.0, 4.0])


def test_pilot_scale_flat_lower_half_fails():
    # 90th percentile z has lam(z/2)=0 when no observation sits below z/2
    with pytest.raises(PilotFailedError):
        pilot_scale([10.0, 10.5, 11.0, 11.5, 12.0])


def _profile_loglik(b, x):
    eta = 1.0 / np.mean(np.expm1(b * x))
    return float(np.sum(np.log(gompertz_pdf(GompertzParams(eta, b), x))))


def test_score_root_maximizes_profile_likelihood():
    x = gompertz_sample(GompertzParams(0.8, 1.5), 400, seed=3)
    fit = fit_mle(x)
    assert fit.converged
    assert abs(score_h(fit.b_hat, x)) < 1e-10
    center = _profile_loglik(fit.b_hat, x)
    for b in np.linspace(0.2 * fit.b_hat, 3.0 * fit.b_hat, 21):
        assert _profile_loglik(float(b), x) <= center + 1e-9


def test_score_sign_tracks_profile_likelihood_slope():
    x = gompertz_sample(GompertzParams(1.0, 1.0), 300, seed=12)
    for b in (0.3, 0.8, 1.5, 3.0):
        h = score_h(b, x)
        slope = (_profile_loglik(b + 1e-6, x) - _profile_loglik(b - 1e-6, x)) / 2e-6
        assert math.copysign(1.0, h) == math.copysign(1.0, slope)


def test_score_h_validation():
    x = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        score_h(0.0, x)
    with pytest.raises(ScoreOverflowError):
        score_h(10.0, [100.0, 200.0, 300.0])


def test_fit_mle_eta_is_profile_formula():
    x = gompertz_sample(GompertzParams(2.0, 0.5), 150, seed=4)
    fit = fit_mle(x)
    # fit_batch sums over the sorted row; the same order gives equality.
    assert fit.eta_hat == 1.0 / np.mean(np.expm1(fit.b_hat * np.sort(x)))


def test_fit_mle_consistency():
    fit = fit_mle(gompertz_sample(GompertzParams(2.0, 1.0), 10000, seed=3))
    assert fit.converged and not fit.fallback_used
    assert abs(fit.eta_hat - 2.0) / 2.0 < 0.05
    assert abs(fit.b_hat - 1.0) < 0.05


def test_fit_equivariance_dyadic_scale_is_bitwise():
    # Power-of-two scaling commutes with every rounding step of the
    # pilot+Newton path, so a happy-path fit tracks exactly.
    x = gompertz_sample(GompertzParams(1.0, 1.0), 80, seed=3)
    base = fit_mle(x)
    scaled = fit_mle(4.0 * x)
    assert not base.fallback_used
    assert scaled.b_hat == base.b_hat / 4.0
    assert scaled.b_pilot == base.b_pilot / 4.0
    assert scaled.eta_hat == base.eta_hat
    assert scaled.iterations == base.iterations


def test_fit_equivariance_through_grid_rescue():
    # This sample collapses onto the b=0 boundary and is re-bracketed on a
    # grid with absolute bounds, so tracking is only near-exact there.
    x = gompertz_sample(GompertzParams(1.0, 1.0), 80, seed=6)
    base = fit_mle(x)
    scaled = fit_mle(4.0 * x)
    assert base.converged and scaled.converged
    assert math.isclose(scaled.b_hat, base.b_hat / 4.0, rel_tol=1e-10)
    assert math.isclose(scaled.eta_hat, base.eta_hat, rel_tol=1e-10)


def test_fit_equivariance_general_scale():
    x = gompertz_sample(GompertzParams(0.5, 1.0), 120, seed=9)
    base = fit_mle(x)
    for beta in (0.5, 2.0, 10.0, 1.7):
        scaled = fit_mle(beta * x)
        assert math.isclose(scaled.b_hat * beta, base.b_hat, rel_tol=1e-8)
        assert math.isclose(scaled.eta_hat, base.eta_hat, rel_tol=1e-8)


def _same_fit(a, b):
    pilots_equal = (a.b_pilot == b.b_pilot) or (
        math.isnan(a.b_pilot) and math.isnan(b.b_pilot)
    )
    return (
        a.eta_hat == b.eta_hat
        and a.b_hat == b.b_hat
        and pilots_equal
        and a.converged == b.converged
        and a.fallback_used == b.fallback_used
        and a.iterations == b.iterations
    )


def test_fit_batch_matches_scalar_bitwise():
    rows = []
    for seed in range(10):
        rows.append(gompertz_sample(GompertzParams(1.0, 1.0), 40, seed=seed))
        rows.append(alt_sample(AlternativeSpec("gamma", k=1), 40, seed=seed))
        rows.append(alt_sample(AlternativeSpec("gamma", k=3), 40, seed=seed))
    batch = fit_batch(np.stack(rows))
    for i, row in enumerate(rows):
        assert _same_fit(batch.result(i), fit_mle(row)), i


def _boundary_refits():
    # GO(eta_hat, 1) refits of gamma(0.8) data, as the bootstrap draws them:
    # many pilot failures, rescues and noise roots just above B_FLOOR.
    data = alt_sample(AlternativeSpec("gamma", k=0.8), 1000, seed=1)
    eta = fit_mle(data).eta_hat
    return [gompertz_sample(GompertzParams(eta, 1.0), 1000, seed=s) for s in range(200)]


# (rows, converged count, sha256 of np.packbits(converged)), frozen from the
# grid-rescue fit; the converged/fallback verdict must not move.
_VERDICT_CASES = {
    "go_n80": (
        lambda: [gompertz_sample(GompertzParams(1.0, 1.0), 80, seed=s) for s in range(50)],
        50,
        "afcb7669a66d4c769b8c32b267333b1816bd5537832630f3b283a3f272285151",
    ),
    "gamma1_n30": (
        lambda: [alt_sample(AlternativeSpec("gamma", k=1.0), 30, seed=s) for s in range(50)],
        34,
        "6f4164d4919dbc9f22336a789ee3821836733b8848294f8f888f7f2c22e8c4e7",
    ),
    "lognormal_n30": (
        lambda: [alt_sample(AlternativeSpec("lognormal", sigma=0.5), 30, seed=s) for s in range(50)],
        50,
        "afcb7669a66d4c769b8c32b267333b1816bd5537832630f3b283a3f272285151",
    ),
    "boundary_refits_n1000": (
        _boundary_refits,
        147,
        "a9d5e7463b90cdcb10614c869064fcb6e33ea4b328ece63c2ac02826dab58616",
    ),
}


@pytest.mark.parametrize("case", sorted(_VERDICT_CASES))
def test_fit_verdicts_are_pinned(case):
    make_rows, n_conv, digest = _VERDICT_CASES[case]
    rows = make_rows()
    fits = fit_batch(np.stack(rows))
    assert int(fits.converged.sum()) == n_conv
    assert hashlib.sha256(np.packbits(fits.converged).tobytes()).hexdigest() == digest
    assert np.all(fits.b[fits.fallback] == 0.001)
    for i in np.nonzero(fits.converged)[0]:
        assert fits.b[i] > B_FLOOR
        assert abs(score_h(fits.b[i], rows[i])) < NEWTON_TOL


def test_fallback_path():
    x = alt_sample(AlternativeSpec("gamma", k=1), 30, seed=FALLBACK_SEED)
    fit = fit_mle(x)
    assert fit.fallback_used and not fit.converged
    assert fit.b_hat == 0.001
    assert fit.eta_hat == 1.0 / np.mean(np.expm1(0.001 * x))


def test_converged_iff_not_fallback():
    for seed in range(25):
        x = alt_sample(AlternativeSpec("gamma", k=1), 25, seed=seed)
        fit = fit_mle(x)
        assert fit.converged == (not fit.fallback_used)
        assert fit.b_hat > 0 and fit.eta_hat > 0


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_mle([3.0])
    with pytest.raises(ValueError):
        fit_mle([2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        fit_mle([1.0, -2.0])


def test_fit_result_frozen():
    fit = fit_mle([0.5, 1.2, 2.0, 0.7, 1.5])
    assert isinstance(fit, FitResult)
    with pytest.raises(Exception):
        fit.b_hat = 2.0


def test_rescale_preserves_order():
    x = np.array([2.0, 0.5, 1.0, 3.0, 1.7])
    fit = fit_mle(x)
    resc = rescale(x, fit)
    assert np.array_equal(resc.values, fit.b_hat * x)
    assert resc.fit is fit
