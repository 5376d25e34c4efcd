import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfepr.constants import FWHM_PER_SIGMA
from zfepr.hamiltonians import (
    TargetSpec,
    level_shifts_exact,
    level_shifts_perturbative,
    shift_coefficients,
)
from zfepr.noise import (
    DRAWS_PER_BLOCK,
    NoiseModel,
    ShiftMoments,
    linewidth_stats,
    sample_noise,
    shift_characteristic,
    shift_moments,
)


def test_sample_noise_zero_width():
    model = NoiseModel(0.0, 0.0, 0.0, seed=1)
    assert np.abs(sample_noise(model, 50)).max() == 0.0


def test_sample_noise_moments():
    model = NoiseModel.isotropic(0.5, seed=2)
    draws = sample_noise(model, 10000)
    assert np.abs(draws.mean(axis=0)).max() < 4 * 0.5 / math.sqrt(10000)
    assert np.abs(draws.std(axis=0) / 0.5 - 1.0).max() < 0.05


def test_sample_noise_deterministic_and_chunkable():
    model = NoiseModel(0.1, 0.2, 0.3, seed=99)
    bulk = sample_noise(model, 20)
    assert np.array_equal(bulk, sample_noise(model, 20))
    head = sample_noise(model, 8)
    tail = sample_noise(model, 12, start=8)
    assert np.array_equal(bulk, np.vstack([head, tail]))
    other = NoiseModel(0.1, 0.2, 0.3, seed=100)
    assert not np.array_equal(bulk, sample_noise(other, 20))
    # splits at and around the block edges, and a start inside a block
    bulk = sample_noise(model, 1100)
    for cut in (511, 512, 513, 1023, 1024, 1025):
        pieces = [sample_noise(model, cut), sample_noise(model, 1100 - cut, start=cut)]
        assert np.array_equal(bulk, np.vstack(pieces))
    assert np.array_equal(bulk[300:1100], sample_noise(model, 800, start=300))
    assert np.array_equal(bulk[1024:1025], sample_noise(model, 1, start=1024))


@pytest.mark.parametrize("start, n", [(0, 1), (0, 50), (17, 50), (500, 30), (0, 512),
                                      (512, 512), (300, 700)])
def test_sample_noise_is_the_documented_block_stream(start, n):
    # the module docstring's contract, with every block generated whole: a
    # call that generates only the rows it needs must return the same bits
    model = NoiseModel(0.1, 0.2, 0.3, seed=7)
    blocks = [np.random.default_rng(np.random.SeedSequence(7, spawn_key=(b,)))
              .standard_normal((DRAWS_PER_BLOCK, 3)) for b in range(3)]
    stream = np.concatenate(blocks) * model.widths
    assert np.array_equal(sample_noise(model, n, start=start), stream[start : start + n])


@settings(max_examples=50, deadline=None)
@given(start=st.integers(0, 3000), n=st.integers(1, 1500),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_sample_noise_pieces_concatenate_to_the_whole(start, n, cuts):
    model = NoiseModel(0.1, 0.2, 0.3, seed=7)
    edges = sorted({start, start + n, *(start + int(c * n) for c in cuts)})
    pieces = [sample_noise(model, b - a, start=a) for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.vstack(pieces), sample_noise(model, n, start=start))


@pytest.mark.parametrize("other", [6, 5 + 3 * 2**32], ids=["adjacent", "high_word"])
def test_distinct_seeds_share_no_draw(other):
    # 5 + 3 * 2**32 is seed 5's block 3 if seed and block index are hashed
    # as one entropy list [seed, block]
    draws = [sample_noise(NoiseModel.isotropic(1.0, seed=s), 2048) for s in (5, other)]
    shared = (draws[0][:, None, :] == draws[1][None, :, :]).all(axis=2)
    assert not shared.any()


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_noise_model_rejects_a_bad_seed_by_name(seed):
    with pytest.raises(ValueError, match="noise seed must be a non-negative integer"):
        NoiseModel.isotropic(0.1, seed=seed)


@pytest.mark.parametrize("widths", [(-0.1, 0.1, 0.1), (0.1, math.nan, 0.1),
                                    (0.1, 0.1, math.inf), (-math.inf, 0.1, 0.1)])
def test_noise_model_rejects_a_width_that_is_not_finite_and_non_negative(widths):
    with pytest.raises(ValueError, match="noise widths must be finite and >= 0"):
        NoiseModel(*widths)


def test_sample_noise_anisotropic_scaling():
    model = NoiseModel(0.0, 1.0, 3.0, seed=4)
    draws = sample_noise(model, 5000)
    assert np.abs(draws[:, 0]).max() == 0.0
    assert draws[:, 2].std() / draws[:, 1].std() == pytest.approx(3.0, rel=0.1)


#: The default target's second-order S0<->T+-1 coefficients: c_x = c_y =
#: a_par/(2(a_par^2 - a_perp^2)) + 1/(2(a_par + a_perp)) and c_z = 1/(4 a_perp).
Q_PERP, Q_Z = 160.0 / (2 * 12604.0) + 1.0 / 548.0, 1.0 / 456.0
#: sum_j c_j^2 of the default target's S0<->T0 shift.
ST0_C2 = 2 * (114.0 / 12604.0) ** 2 + (1.0 / 228.0) ** 2


def test_linewidth_stats_paper_point(spec):
    stats = linewidth_stats(0.196, spec)
    # sigma/2 at first order, and 2 sigma^4 sum_j c_j^2 more variance at second
    sigma_st1 = math.sqrt(0.196**2 / 4 + 2 * 0.196**4 * (2 * Q_PERP**2 + Q_Z**2))
    assert stats.sigma_st1_mhz == pytest.approx(sigma_st1, rel=1e-12)
    assert stats.sigma_st1_mhz == pytest.approx(0.0980021, abs=5e-8)
    assert stats.sigma_st0_mhz == pytest.approx(7.3464e-4, rel=1e-3)
    assert abs(stats.chi - 133.0) <= 5.0  # consistent with the reported ~130


def test_linewidth_stats_zero_noise(spec):
    stats = linewidth_stats(0.0, spec)
    assert stats.sigma_st1_mhz == 0.0
    assert stats.sigma_st0_mhz == 0.0
    assert math.isinf(stats.chi)
    with pytest.raises(ValueError):
        linewidth_stats(-0.1, spec)


def test_chi_scale_covariance(spec):
    # chi carries a 1/sigma prefactor: chi * sigma is sigma_st1/sigma over
    # sigma_st0/sigma^2, scale-invariant but for S0<->T+-1's second order
    sigmas = np.array([0.05, 0.1, 0.2, 0.4])
    products = np.array([linewidth_stats(s, spec).chi * s for s in sigmas])
    written = np.sqrt(0.25 + 2 * sigmas**2 * (2 * Q_PERP**2 + Q_Z**2)) / math.sqrt(2 * ST0_C2)
    assert np.abs(products / written - 1.0).max() < 1e-12


def test_shift_statistics_without_noise(spec):
    t = np.linspace(0.0, 500.0, 7)
    for transition in ("st1", "st0"):
        assert shift_moments(NoiseModel(), spec, transition) == ShiftMoments(0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(shift_characteristic(NoiseModel(), spec, transition, t),
                              np.ones(7))


def test_st0_shift_is_skewed_and_sharp(spec):
    moments = shift_moments(NoiseModel.isotropic(2.3), spec, "st0")
    assert moments.skewness < -0.1
    assert moments.excess_kurtosis > 0.0


def test_st1_shift_moments_are_its_noncentral_chi_square_cumulants(spec):
    # each axis adds c_j (delta_j + m_j)^2 - c_j m_j^2 with m_j = b_j/(2 c_j):
    # a scaled noncentral chi-square of one degree of freedom, whose cumulants
    # are 2^(n-1) (n-1)! (c_j sigma_j^2)^n (1 + n m_j^2 / sigma_j^2); the
    # offset takes the c_j m_j^2 out of its mean
    sigma = np.array([0.7, 0.3, 1.0])
    b, c = np.array([0.0, 0.0, 0.5]), np.array([Q_PERP, Q_PERP, Q_Z])
    m2 = (b / (2 * c)) ** 2
    kappa = [float(np.sum(c * sigma**2))] + [
        float(np.sum(2 ** (n - 1) * math.factorial(n - 1) * (c * sigma**2) ** n
                     * (1 + n * m2 / sigma**2))) for n in (2, 3, 4)]
    moments = shift_moments(NoiseModel(*sigma), spec, "st1")
    expected = (kappa[0], math.sqrt(kappa[1]), kappa[2] / kappa[1] ** 1.5, kappa[3] / kappa[1] ** 2)
    assert moments == pytest.approx(expected, rel=1e-12)
    # the second order moves the line and skews it to the blue
    assert moments.mean > 6e-3 and moments.skewness > 0.0


def test_st0_mean_matches_analytic_moments(spec):
    # analytic first moment of the quadratic form
    sigma = 0.5
    moments = shift_moments(NoiseModel.isotropic(sigma), spec, "st0")
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    mean = -2 * sigma**2 * ap / (al**2 - ap**2) + sigma**2 / (2 * ap)
    assert moments.mean == pytest.approx(mean, rel=1e-12)


def test_unknown_transition_raises(spec):
    model = NoiseModel.isotropic(1.0)
    with pytest.raises(ValueError, match="unknown transition 'st7'"):
        shift_moments(model, spec, "st7")
    with pytest.raises(ValueError, match="unknown transition 'st7'"):
        shift_characteristic(model, spec, "st7", 1.0)


#: (target, noise) for the characteristic functions: the paper's point,
#: anisotropic noise, and a_perp > a_par, where all three S0<->T0 c_j share a
#: sign.  S0<->T+-1 is sampled over its microsecond decay, S0<->T0 out to a
#: long record; with a_perp > a_par, by 250 us the phases of the three
#: S0<->T0 factors 1 - 4 pi i c_j sigma_j^2 t add up past pi.
NOISE_CASES = {
    "paper": (TargetSpec(), NoiseModel.isotropic(0.196, seed=31)),
    "anisotropic": (TargetSpec(), NoiseModel(0.1, 0.3, 0.2, seed=32)),
    "perp_above_par": (TargetSpec(a_perp_mhz=160.0, a_par_mhz=114.0),
                       NoiseModel.isotropic(0.5, seed=33)),
}
TIMES = {
    ("paper", "st1"): (0.5, 2.0, 4.0),
    ("paper", "st0"): (0.2, 60.0, 250.0, 1500.0),
    ("anisotropic", "st1"): (0.5, 2.0, 4.0),
    ("anisotropic", "st0"): (0.2, 90.0, 700.0),
    ("perp_above_par", "st1"): (0.2, 0.8, 1.6),
    ("perp_above_par", "st0"): (30.0, 250.0, 600.0),
}


def _sampled_shifts(draws, spec, transition):
    """Each draw's line shift from the level shifts: S0<->T+-1 is T+1 - S0 of
    exact diagonalization, and S0<->T0 the second-order shifts of T0 and S0."""
    if transition == "st1":
        levels = level_shifts_exact(draws, spec)
        return levels[:, 0] - levels[:, 1]
    levels = level_shifts_perturbative(draws, spec)
    return levels[:, 2] - levels[:, 1]


def _check_characteristic_against_sampling(case, transition):
    """phi(t) = <exp(2 pi i dw t)> against 200,000 draws of the shift."""
    spec, model = NOISE_CASES[case]
    t = np.array(TIMES[case, transition])
    n = 200_000
    dw = _sampled_shifts(sample_noise(model, n), spec, transition)
    samples = np.exp(2j * math.pi * np.multiply.outer(t, dw))
    mean = samples.mean(axis=1)
    se_re, se_im = samples.real.std(axis=1) / math.sqrt(n), samples.imag.std(axis=1) / math.sqrt(n)
    phi = shift_characteristic(model, spec, transition, t)
    assert phi.shape == t.shape
    assert np.all(np.abs(phi.real - mean.real) < 5 * se_re)
    assert np.all(np.abs(phi.imag - mean.imag) < 5 * se_im)
    if (case, transition) == ("perp_above_par", "st0"):
        # the root of the product takes the other branch once its phase
        # passes pi, and the samples tell the two apart
        scaled = shift_coefficients(spec, "st0")[1] * model.widths**2
        factors = 1.0 - 4j * math.pi * np.multiply.outer(t, scaled)
        assert -np.angle(factors).sum(axis=1)[1] > math.pi
        rooted_product = np.prod(factors, axis=1) ** -0.5
        assert np.abs(rooted_product[1] - mean[1]) > 20 * max(se_re[1], se_im[1])


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_st0_characteristic_matches_sampling(case):
    _check_characteristic_against_sampling(case, "st0")


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_st1_characteristic_matches_sampling(case):
    _check_characteristic_against_sampling(case, "st1")


def _check_cumulants(case, transition):
    """The cumulants of log phi are the exact moments, through the fourth.

    log phi(t) = sum_n kappa_n (2 pi i t)^n / n!; its Taylor coefficients at
    t = 0 come from 64 samples on a circle in the complex t plane, well
    inside the radius of convergence.
    """
    spec, model = NOISE_CASES[case]
    b, c = shift_coefficients(spec, transition)
    rate = max(np.abs(c * model.widths**2).max(), np.abs(b * model.widths).max())
    radius = 0.2 / (4 * math.pi * rate)
    angles = 2 * math.pi * np.arange(64) / 64
    log_phi = np.log(shift_characteristic(model, spec, transition, radius * np.exp(1j * angles)))
    kappa1, kappa2, kappa3, kappa4 = (
        np.mean(log_phi * np.exp(-1j * n * angles)) / radius**n * math.factorial(n)
        / (2j * math.pi) ** n for n in (1, 2, 3, 4))
    moments = shift_moments(model, spec, transition)
    # the mean and variance of sum_j b_j delta_j + c_j delta_j^2, written out
    scaled = c * model.widths**2
    assert moments.mean == pytest.approx(scaled.sum(), rel=1e-12, abs=0.0)
    assert moments.std**2 == pytest.approx(2 * (scaled**2).sum() + ((b * model.widths)**2).sum(),
                                           rel=1e-12)
    # S0<->T+-1 has no mean, so its first cumulant is held to the width's scale
    scale1 = abs(moments.mean) or moments.std
    assert abs(kappa1.real - moments.mean) < 1e-12 * scale1
    assert kappa2.real == pytest.approx(moments.std**2, rel=1e-12)
    assert abs(kappa1.imag) < 1e-12 * scale1 and abs(kappa2.imag) < 1e-12 * kappa2.real
    assert kappa3.real / moments.std**3 == pytest.approx(moments.skewness, abs=1e-10)
    assert kappa4.real / moments.std**4 == pytest.approx(moments.excess_kurtosis, abs=1e-10)
    if model.sigma_x_mhz == model.sigma_y_mhz == model.sigma_z_mhz:
        stats = linewidth_stats(model.sigma_x_mhz, spec)
        width = stats.sigma_st1_mhz if transition == "st1" else stats.sigma_st0_mhz
        assert math.sqrt(kappa2.real) == pytest.approx(width, rel=1e-12)


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_st0_characteristic_cumulants(case):
    _check_cumulants(case, "st0")


@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_st1_characteristic_cumulants(case):
    _check_cumulants(case, "st1")


def test_st0_characteristic_without_noise_is_one(spec):
    t = np.linspace(0.0, 500.0, 7)
    assert np.array_equal(shift_characteristic(NoiseModel(), spec, "st0", t), np.ones(7))


def test_fwhm_constant():
    assert FWHM_PER_SIGMA == pytest.approx(math.sqrt(8 * math.log(2)))
