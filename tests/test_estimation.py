import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gomptest.distributions import (
    AlternativeSpec,
    GompertzParams,
    alt_sample,
    gompertz_pdf,
    gompertz_sample,
)
from gomptest import estimation
from gomptest.estimation import (
    B_FLOOR,
    GRID_EXP_CAP,
    GRID_POINTS,
    NEWTON_TOL,
    PILOT_MIN_N,
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
    with pytest.raises(ValueError, match="x must not be NaN"):
        nelson_aalen(x, math.nan)


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


def test_pilot_from_cumhaz_rejects_nonpositive_z():
    # the hazard ratio is fine here; z = 0 would give inf and z < 0 a negative scale
    for z in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(PilotFailedError):
            pilot_from_cumhaz(z, 4.0, 1.0)


def test_a_pilot_is_usable_only_as_a_positive_finite_scale():
    # pilot_from_cumhaz raises exactly where the fit's pilot is NaN
    for lam_z in (math.nan, math.inf, 1.5):
        with pytest.raises(PilotFailedError, match="no positive finite scale"):
            pilot_from_cumhaz(1.0, lam_z, 1.0)
    # this sample's hazard ratio gives a negative scale, which the fit never
    # starts Newton from: b_pilot reports NaN, and the fit is unchanged
    fit = fit_mle(alt_sample(AlternativeSpec("weibull", k=0.5), 30, 0))
    assert math.isnan(fit.b_pilot)
    assert (fit.b_hat, fit.converged, fit.fallback_used, fit.iterations) == (0.001, False, True, 0)
    assert fit.eta_hat == pytest.approx(356.47211938370276, rel=1e-12)


def test_pilot_scale_matches_ingredients():
    x = gompertz_sample(GompertzParams(1.0, 2.0), 200, seed=7)
    z = float(np.quantile(x, 0.9))
    expected = pilot_from_cumhaz(z, nelson_aalen(x, z), nelson_aalen(x, z / 2.0))
    assert pilot_scale(x) == expected


def test_pilot_quantile_is_numpys_bitwise():
    # the pilot's 90th percentile of sorted rows is np.quantile's, bit for bit,
    # at every size and whichever side of 0.5 the interpolation weight falls
    rng = np.random.default_rng(11)
    for n in range(2, 3001):
        xs = np.sort(rng.gamma(0.8, size=(2, n)), axis=1)
        for scale in (1e-5, 1.0, 1e5):
            rows = xs * scale
            z, _, _ = estimation._pilot_ingredients(rows)
            assert np.array_equal(z, np.quantile(rows, 0.9, axis=1)), (n, scale)


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


def test_score_h_rejects_a_non_finite_scale():
    # a NaN or infinite b is bad input, not an overflow of e^(b*x)
    for b in (math.nan, math.inf):
        with pytest.raises(ValueError):
            score_h(b, [1.0, 2.0, 3.0])
    for b in ("1", True):
        with pytest.raises(ValueError, match="b must"):
            score_h(b, [1.0, 2.0, 3.0])


def test_score_h_overflow_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    # This sample once collapsed onto the b=0 boundary and went to the grid;
    # the deflated first run now fits it directly, and
    # test_fit_equivariance_when_no_pilot_sends_the_row_to_the_grid covers
    # the grid.
    x = gompertz_sample(GompertzParams(1.0, 1.0), 80, seed=6)
    base = fit_mle(x)
    scaled = fit_mle(4.0 * x)
    assert base.converged and scaled.converged
    assert math.isclose(scaled.b_hat, base.b_hat / 4.0, rel_tol=1e-10)
    assert math.isclose(scaled.eta_hat, base.eta_hat, rel_tol=1e-10)


def test_fit_equivariance_when_no_pilot_sends_the_row_to_the_grid(monkeypatch):
    # Below PILOT_MIN_N there is no pilot, so even a CV < 1 sample starts at
    # the grid, whose bounds are absolute: the two scales get different
    # brackets, and Newton inside them tracks only to its tolerance.
    x = gompertz_sample(GompertzParams(1.0, 1.0), PILOT_MIN_N - 1, seed=0)
    assert np.mean(x) ** 2 > 0.5 * np.mean(x * x)
    seen = []
    inner = estimation._grid_rescue

    def spy(xs):
        seen.append(xs.shape[0])
        return inner(xs)

    monkeypatch.setattr(estimation, "_grid_rescue", spy)
    base = fit_mle(x)
    scaled = fit_mle(4.0 * x)
    assert seen == [1, 1]
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


# Interior batches (sample CV < 1 on nearly every row) that plain Newton
# from the pilot used to drop onto the double root b=0 of h on 18-25% of rows.
_INTERIOR_CASES = {
    "go(1,1)_n100": lambda: [
        gompertz_sample(GompertzParams(1.0, 1.0), 100, seed=s) for s in range(300)
    ],
    "go(0.5,1)_n30": lambda: [
        gompertz_sample(GompertzParams(0.5, 1.0), 30, seed=s) for s in range(300)
    ],
    "lognormal(0.5)_n30": lambda: [
        alt_sample(AlternativeSpec("lognormal", sigma=0.5), 30, seed=s) for s in range(300)
    ],
}


def _rescue_every_row(xs):
    # The rescue path run on every sorted row: the first sign change of h on
    # the grid above B_FLOOR, then plain Newton kept inside that cell.
    has, lo, hi = estimation._grid_rescue(xs)
    b, conv, _ = estimation._newton(0.5 * (lo + hi), xs, has, lo, hi, np.zeros_like(has))
    return b, conv & has


@pytest.mark.parametrize("case", sorted(_INTERIOR_CASES))
def test_deflated_run_finds_the_first_positive_root(case):
    fits = fit_batch(np.stack(_INTERIOR_CASES[case]()))
    b_ref, conv_ref = _rescue_every_row(fits.xs)
    assert np.array_equal(fits.converged, conv_ref)
    conv = fits.converged
    assert conv.any()
    assert np.all(np.abs(fits.b[conv] - b_ref[conv]) <= 1e-7 * b_ref[conv])


def test_rows_with_cv_at_least_one_keep_the_undeflated_path(monkeypatch):
    rows = np.stack(_boundary_refits())
    fits = fit_batch(rows)
    xs = fits.xs
    cv_ge_1 = np.mean(xs, axis=1) ** 2 <= 0.5 * np.mean(xs * xs, axis=1)
    assert cv_ge_1.any() and not cv_ge_1.all()
    inner = estimation._newton

    def undeflated(b0, xs, active, lo, hi, deflate):
        return inner(b0, xs, active, lo, hi, np.zeros_like(deflate))

    monkeypatch.setattr(estimation, "_newton", undeflated)
    plain = fit_batch(rows)
    for name in ("b", "eta", "converged", "iterations"):
        got, want = getattr(fits, name)[cv_ge_1], getattr(plain, name)[cv_ge_1]
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("case, most", [("go(1,1)_n100", 0), ("go(0.5,1)_n30", 3)])
def test_interior_rows_rarely_reach_the_grid(case, most, monkeypatch):
    # 54 and 68 of these 300 rows reached the grid before the first run was
    # deflated.
    seen = []
    inner = estimation._grid_rescue

    def spy(xs):
        seen.append(xs.shape[0])
        return inner(xs)

    monkeypatch.setattr(estimation, "_grid_rescue", spy)
    fits = fit_batch(np.stack(_INTERIOR_CASES[case]()))
    assert fits.converged.all()
    assert sum(seen) <= most


@pytest.mark.parametrize("k", [-10, 3, 10])
def test_interior_fits_are_bitwise_equivariant_under_dyadic_scaling(k):
    # A power of two commutes with every rounding step of the pilot and the
    # Newton run; only the grid's absolute bounds (and B_FLOOR, FALLBACK_B)
    # break it, and no row of this batch reaches them.
    x = np.stack(_INTERIOR_CASES["go(1,1)_n100"]()[:50])
    base = fit_batch(x)
    scaled = fit_batch(math.ldexp(1.0, k) * x)
    assert scaled.b.tobytes() == (math.ldexp(1.0, -k) * base.b).tobytes()
    for name in ("eta", "converged", "iterations"):
        assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name


def _full_grid_scores(xs):
    # Reference: the grid, and h at all GRID_POINTS columns through _score_and_deriv.
    m = xs.shape[0]
    top = np.maximum(np.minimum(50.0, GRID_EXP_CAP / xs[:, -1]), 2.0 * B_FLOOR)
    t = np.linspace(0.0, 1.0, GRID_POINTS)
    grid = B_FLOOR * (top[:, None] / B_FLOOR) ** t[None, :]
    hvals = np.empty((m, GRID_POINTS))
    for j in range(GRID_POINTS):
        h, _ = estimation._score_and_deriv(grid[:, j], xs)
        hvals[:, j] = h
    return grid, hvals


def _full_grid_flips(xs):
    # Reference: every cell of the full grid whose two ends are finite with
    # signs multiplying to <= 0.
    grid, hvals = _full_grid_scores(xs)
    finite = np.isfinite(hvals)
    sign = np.where(finite, np.sign(hvals), np.nan)
    return grid, finite[:, :-1] & finite[:, 1:] & (sign[:, :-1] * sign[:, 1:] <= 0.0)


def _grid_rescue_full(xs):
    grid, flip = _full_grid_flips(xs)
    first = np.argmax(flip, axis=1)
    rows = np.arange(xs.shape[0])
    return np.any(flip, axis=1), grid[rows, first], grid[rows, first + 1]


def _grid_rows(rows):
    # The sorted rows that fit_batch hands to the grid rescue.
    seen = []
    inner = estimation._grid_rescue

    def spy(xs):
        seen.append(xs)
        return inner(xs)

    estimation._grid_rescue = spy
    try:
        fit_batch(np.stack(rows))
    finally:
        estimation._grid_rescue = inner
    return seen[0]


_GRID_CASES = {
    "boundary_refits_n1000": lambda: np.sort(np.stack(_boundary_refits()[:40]), axis=1),
    # Interior rows that fit_batch no longer hands to the grid (its deflated
    # first run finds their roots); the scan's contract holds for any sorted rows.
    "go_n100_rescued": lambda: np.sort(np.stack(_INTERIOR_CASES["go(1,1)_n100"]()), axis=1),
    "gamma1_n30": lambda: np.sort(
        np.stack([alt_sample(AlternativeSpec("gamma", k=1.0), 30, seed=s) for s in range(50)]),
        axis=1,
    ),
    "gamma1_n30_times_1e9": lambda: 1e9 * _GRID_CASES["gamma1_n30"](),
    "go_n4_no_pilot": lambda: _grid_rows(
        [gompertz_sample(GompertzParams(1.0, 1.0), 4, seed=s) for s in range(50)]
    ),
    "single_row": lambda: _GRID_CASES["go_n100_rescued"]()[:1],
}


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_grid_scan_matches_full_grid(case):
    xs = _GRID_CASES[case]()
    assert xs.shape[0] > 0
    has, lo, hi = estimation._grid_rescue(xs)
    ref_has, ref_lo, ref_hi = _grid_rescue_full(xs)
    assert np.array_equal(has, ref_has)
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()
    if case == "gamma1_n30_times_1e9":
        # every row overflows somewhere on the grid and never changes sign
        _, flip = _full_grid_flips(xs)
        assert not flip.any() and not has.any()


def _horizon_of(xs):
    return estimation._horizon(xs, estimation._grid(xs))


def _block_schedule(has, first, horizon, n, block):
    # The blocks of the grid scan as (first column, width, rows in the scan)
    # for an element budget `block`, given each row's first flip cell from
    # the full-grid oracle and its horizon J: a row needs column
    # min(first + 1, J - 1) and leaves after the block that holds it. A row
    # with J = 0 needs no column.
    last = np.minimum(np.where(has, first + 1, GRID_POINTS - 1), horizon - 1)
    blocks, j = [], 0
    while j < GRID_POINTS and (r := int(np.sum(last >= j))):
        k = min(max(1, block // (r * n)), GRID_POINTS - j)
        blocks.append((j, k, r))
        j += k
    return blocks


def test_grid_scan_stops_each_row_at_its_first_sign_change(monkeypatch):
    # The scan evaluates h exactly as often as the block schedule built from
    # the full-grid oracle says, which holds only if each row leaves after
    # the block with its first sign change; the full grid would cost
    # GRID_POINTS for every row.
    xs = _GRID_CASES["boundary_refits_n1000"]()
    _, flip = _full_grid_flips(xs)
    has, first = flip.any(axis=1), np.argmax(flip, axis=1)
    assert has.any() and not has.all() and np.any(has & (first == 0))
    assert np.any(first > GRID_POINTS // 2)
    evaluated = []
    inner = estimation._score_rows

    def spy(b, xs, xbar, e):
        evaluated.append(b.size)
        return inner(b, xs, xbar, e)

    monkeypatch.setattr(estimation, "_score_rows", spy)
    estimation._grid_rescue(xs)
    horizon = _horizon_of(xs)
    assert np.any(horizon < GRID_POINTS) and np.any(~has & (horizon < GRID_POINTS))
    blocks = _block_schedule(has, first, horizon, xs.shape[1], estimation._SCAN_BLOCK)
    assert len(evaluated) == len(blocks)
    expected = sum(k * r for _, k, r in blocks)
    assert sum(evaluated) == expected < GRID_POINTS * xs.shape[0]


def _straddling_block(xs):
    # An element budget whose first block ends just before the column that
    # completes the earliest first flip in a cell >= 1, so that flip
    # straddles two blocks; None when no row flips there.
    _, flip = _full_grid_flips(xs)
    has, first = flip.any(axis=1), np.argmax(flip, axis=1)
    late = first[has & (first >= 1)]
    if not late.size:
        return None
    horizon, n = _horizon_of(xs), xs.shape[1]
    block = (int(late.min()) + 1) * int(np.sum(horizon > 0)) * n
    starts = {j for j, _, _ in _block_schedule(has, first, horizon, n, block)}
    assert any(f + 1 in starts for f in first[has]), "no flip straddles two blocks"
    return block


@pytest.mark.parametrize("width", ["one_column", "straddling", "whole_grid"])
@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_grid_scan_does_not_depend_on_the_block_width(case, width, monkeypatch):
    xs = _GRID_CASES[case]()
    m, n = xs.shape
    block = {
        "one_column": lambda: 1,
        "straddling": lambda: _straddling_block(xs) or 7 * m * n,
        "whole_grid": lambda: m * n * GRID_POINTS,
    }[width]()
    monkeypatch.setattr(estimation, "_SCAN_BLOCK", block)
    has, lo, hi = estimation._grid_rescue(xs)
    ref_has, ref_lo, ref_hi = _grid_rescue_full(xs)
    assert np.array_equal(has, ref_has)
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()


def _cv_at_least_one(xs):
    xbar = np.mean(xs, axis=1)
    return np.mean(xs * xs, axis=1) >= 2.0 * xbar * xbar


def _assert_horizon_holds(xs):
    # The scan equals the full-grid oracle byte for byte, and the float score
    # is finite and negative at every column at or past each row's horizon.
    grid, hvals = _full_grid_scores(xs)
    has, lo, hi = estimation._grid_rescue(xs)
    ref_has, ref_lo, ref_hi = _grid_rescue_full(xs)
    assert np.array_equal(has, ref_has)
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()
    horizon = estimation._horizon(xs, grid)
    proven = np.arange(GRID_POINTS)[None, :] >= horizon[:, None]
    assert np.all(np.isfinite(hvals[proven]) & (hvals[proven] < 0.0))
    return horizon


@given(
    family=st.sampled_from(["exponential", "gamma", "weibull", "mixture"]),
    shape=st.floats(0.3, 0.95),
    n=st.integers(5, 2000),
    m=st.integers(1, 4),
    k=st.integers(-20, 20),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_grid_scan_horizon_is_exact_on_cv_at_least_one_rows(family, shape, n, m, k, seed):
    rng = np.random.default_rng(seed)
    x = {
        "exponential": lambda: rng.standard_exponential((m, n)),
        "gamma": lambda: rng.standard_gamma(shape, (m, n)),
        "weibull": lambda: rng.weibull(shape, (m, n)),
        # two exponential scales: CV >= 1 in the population
        "mixture": lambda: rng.standard_exponential((m, n))
        * np.where(rng.random((m, n)) < shape, 1.0, 1.0 / shape**4),
    }[family]()
    x = np.sort(np.ldexp(x, k), axis=1)
    x = x[_cv_at_least_one(x) & (x[:, 0] > 0.0)]
    assume(x.shape[0] > 0)
    _assert_horizon_holds(x)


def test_a_row_proven_from_column_zero_is_not_scanned(monkeypatch):
    xs = _GRID_CASES["gamma1_n30"]()
    horizon = _assert_horizon_holds(xs)
    assert np.any(horizon == 0) and np.any(horizon > 0)
    scanned = []
    inner = estimation._score_rows

    def spy(b, xs, xbar, e):
        scanned.append(b.shape[0])
        return inner(b, xs, xbar, e)

    monkeypatch.setattr(estimation, "_score_rows", spy)
    has, _, _ = estimation._grid_rescue(xs)
    assert scanned[0] == np.sum(horizon > 0)
    assert not has[horizon == 0].any()


def _nine_ones_and_one(excess):
    # [1]*9 + [t] with mean(x^2) = 2*mean(x)^2*(1 + excess); t = 6 at 0.
    d = 1.0 + excess
    a, b, c = 10.0 - 2.0 * d, -36.0 * d, 90.0 - 162.0 * d
    t = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return np.array([[1.0] * 9 + [t]])


def test_a_row_inside_the_cv_margin_gets_no_horizon():
    inside = _nine_ones_and_one(0.5 * estimation.HORIZON_CV_MARGIN)
    outside = _nine_ones_and_one(1e3 * estimation.HORIZON_CV_MARGIN)
    assert _cv_at_least_one(inside).all()
    assert _assert_horizon_holds(inside)[0] == GRID_POINTS
    assert _assert_horizon_holds(outside)[0] < GRID_POINTS


def test_horizon_is_silent_where_the_exponent_overflows():
    # At 1e9 every grid column has e^(b*max(x)) = inf: nothing is proven.
    xs = _GRID_CASES["gamma1_n30_times_1e9"]()
    assert _cv_at_least_one(xs).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        horizon = _horizon_of(xs)
        estimation._grid_rescue(xs)
    assert np.all(horizon == GRID_POINTS)


def _mp_score_and_bounds(x, y):
    # h, the moment bound L and the largest observation's bound T of
    # _horizon, at b = y/max(x), in the working precision of mpmath.
    x = [mpmath.mpf(float(v)) for v in x]
    n, top = len(x), max(x)
    b = mpmath.mpf(y) / top
    mu = [mpmath.fsum(v**p for v in x) / n for p in range(estimation.HORIZON_TERMS)]
    m1 = mpmath.fsum(mpmath.exp(b * v) for v in x) / n
    s1 = mpmath.fsum(v * mpmath.exp(b * v) for v in x) / n
    h = (m1 - 1) * (b * mu[1] + 1) - b * s1
    low = (mu[2] / 2 - mu[1] ** 2) * b**2 + mpmath.fsum(
        mu[1] * mu[k - 1] * (k - 2) * b**k / mpmath.factorial(k)
        for k in range(3, estimation.HORIZON_TERMS + 1)
    )
    y = b * top
    tail = mu[1] / top * ((y - 2) * mpmath.exp(y) + y + 2) / n
    return h, low, tail


def test_score_has_no_positive_root_at_cv_at_least_one():
    # The lemma behind the horizon, in 50-digit arithmetic: at CV >= 1 the
    # score is negative on (0, inf), by at least L and at least T.
    rng = np.random.default_rng(5)
    samples = [
        rng.standard_gamma(0.5, 30),
        rng.weibull(0.5, 15),
        _nine_ones_and_one(0.0)[0],  # CV = 1 exactly
        alt_sample(AlternativeSpec("gamma", k=1.0), 30, seed=2) * 1e-3,
    ]
    for x in samples:
        assert _cv_at_least_one(x[None, :])[0]
        with mpmath.workdps(50):
            for y in np.geomspace(1e-6, 690.0, 40):
                h, low, tail = _mp_score_and_bounds(x, y)
                assert h < 0 and -h >= low > 0 and -h >= tail >= 0, (y, h, low, tail)
    # CV just below 1: h/b^2 -> xbar^2 - mean(x^2)/2 > 0, so h > 0 near 0.
    below = _nine_ones_and_one(-1e-6)[0]
    assert not _cv_at_least_one(below[None, :])[0]
    with mpmath.workdps(50):
        assert _mp_score_and_bounds(below, 1e-6)[0] > 0


def test_score_h_matches_the_batched_score():
    x = gompertz_sample(GompertzParams(1.0, 1.0), 50, seed=8)
    xs = np.sort(x)[None, :]
    for b in (0.01, 0.5, 1.0, 3.0):
        h, _ = estimation._score_and_deriv(np.array([b]), xs)
        assert score_h(b, x) == h[0]


def test_fallback_path():
    x = alt_sample(AlternativeSpec("gamma", k=1), 30, seed=FALLBACK_SEED)
    fit = fit_mle(x)
    assert fit.fallback_used and not fit.converged
    assert fit.b_hat == 0.001
    assert fit.eta_hat == 1.0 / np.mean(np.expm1(0.001 * x))


def test_fallback_eta_overflow_raises():
    # The fallback scale 0.001 is absolute: at data values near 1e6
    # e^(0.001 x) overflows, the mean is inf and eta would come out 0.
    x = alt_sample(AlternativeSpec("gamma", k=1.0), 30, seed=0) * 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = fit_batch(x[None, :])
    assert batch.fallback[0] and batch.eta[0] == 0.0
    with pytest.raises(ScoreOverflowError):
        batch.result(0)
    with pytest.raises(ScoreOverflowError):
        fit_mle(x)


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


@pytest.mark.parametrize(
    "dist",
    [
        GompertzParams(1.0, 1.0),
        GompertzParams(0.5, 2.0),
        AlternativeSpec("gamma", k=1.0),
        AlternativeSpec("lognormal", sigma=0.5),
    ],
    ids=["go(1,1)", "go(0.5,2)", "gamma(1)", "lognormal(0.5)"],
)
def test_pilot_scale_agrees_with_the_fit_pilot(dist):
    # The single-sample pilot and the fit's pilot are one formula. fit_mle is
    # row 0 of fit_batch (test_fit_batch_matches_scalar_bitwise), so one batch
    # of 300 seeds per n stands in for 300 fit_mle calls.
    for n in (5, 10, 30, 100, 1000):
        xs = [alt_sample(dist, n, seed) for seed in range(300)]
        b_pilot = fit_batch(np.stack(xs)).pilot
        for seed, x in enumerate(xs):
            try:
                pilot = pilot_scale(x)
            except PilotFailedError:
                assert math.isnan(b_pilot[seed]), (n, seed)
            else:
                assert pilot == b_pilot[seed], (n, seed, pilot, b_pilot[seed])
