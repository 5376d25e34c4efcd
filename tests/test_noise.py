import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfepr.hamiltonians import TargetSpec, st0_fluctuation
from zfepr.noise import (
    FWHM_PER_SIGMA,
    NoiseModel,
    frequency_histogram,
    linewidth_stats,
    sample_noise,
    st0_characteristic,
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


def test_linewidth_stats_paper_point(spec):
    stats = linewidth_stats(0.196, spec)
    assert stats.sigma_st1_mhz == 0.098
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
    # chi carries a 1/sigma prefactor: chi * sigma is scale-invariant
    sigmas = np.array([0.05, 0.1, 0.2, 0.4])
    products = np.array([linewidth_stats(s, spec).chi * s for s in sigmas])
    assert np.abs(products / products[0] - 1.0).max() < 1e-12


def test_histogram_degenerate(spec):
    model = NoiseModel(0.0, 0.0, 0.0, seed=1)
    hist = frequency_histogram(model, spec, "st0", 2000)
    assert hist.std == 0.0
    assert hist.mean == 0.0
    assert hist.skewness == 0.0 and hist.excess_kurtosis == 0.0


def test_histogram_st0_asymmetric_sharp(spec):
    model = NoiseModel.isotropic(2.3, seed=6)
    hist = frequency_histogram(model, spec, "st0", 100000)
    assert abs(hist.skewness) > 0.1
    assert hist.excess_kurtosis > 0.0


def test_histogram_st1_gaussian(spec):
    sigma = 1.0
    model = NoiseModel.isotropic(sigma, seed=7)
    hist = frequency_histogram(model, spec, "st1", 100000)
    assert abs(hist.skewness) < 0.05
    assert hist.std == pytest.approx(sigma / 2, rel=0.02)


def test_histogram_st0_mean_matches_analytic_moments(spec):
    # analytic first moment of the quadratic form
    sigma = 0.5
    model = NoiseModel.isotropic(sigma, seed=8)
    n = 200000
    hist = frequency_histogram(model, spec, "st0", n)
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    mean = -2 * sigma**2 * ap / (al**2 - ap**2) + sigma**2 / (2 * ap)
    se = hist.std / math.sqrt(n)
    assert abs(hist.mean - mean) < 5 * se


#: (target, noise, times in us) for the S0<->T0 characteristic function: the
#: paper's point out to a long record, anisotropic noise, and a_perp > a_par,
#: where all three c_j share a sign and by 250 us the phases of the three
#: factors 1 - 4 pi i c_j sigma_j^2 t add up past pi.
ST0_CASES = {
    "paper": (TargetSpec(), NoiseModel.isotropic(0.196, seed=31), (0.2, 60.0, 250.0, 1500.0)),
    "anisotropic": (TargetSpec(), NoiseModel(0.1, 0.3, 0.2, seed=32), (0.2, 90.0, 700.0)),
    "perp_above_par": (TargetSpec(a_perp_mhz=160.0, a_par_mhz=114.0),
                       NoiseModel.isotropic(0.5, seed=33), (30.0, 250.0, 600.0)),
}


def _scaled_coefficients(spec, model):
    """c_j sigma_j^2 per axis, each from the shift of a one-axis draw."""
    widths = (model.sigma_x_mhz, model.sigma_y_mhz, model.sigma_z_mhz)
    return np.array([st0_fluctuation(*(w if j == k else 0.0 for j, w in enumerate(widths)),
                                     spec) for k in range(3)])


@pytest.mark.parametrize("case", sorted(ST0_CASES))
def test_st0_characteristic_matches_sampling(case):
    # phi(t) = <exp(2 pi i dw_st0 t)> against 200,000 draws of the shift
    spec, model, times = ST0_CASES[case]
    t = np.array(times)
    n = 200_000
    draws = sample_noise(model, n)
    dw = st0_fluctuation(draws[:, 0], draws[:, 1], draws[:, 2], spec)
    samples = np.exp(2j * math.pi * np.multiply.outer(t, dw))
    mean = samples.mean(axis=1)
    se_re, se_im = samples.real.std(axis=1) / math.sqrt(n), samples.imag.std(axis=1) / math.sqrt(n)
    phi = st0_characteristic(model, spec, t)
    assert phi.shape == t.shape
    assert np.all(np.abs(phi.real - mean.real) < 5 * se_re)
    assert np.all(np.abs(phi.imag - mean.imag) < 5 * se_im)
    if case == "perp_above_par":
        # the root of the product takes the other branch once its phase
        # passes pi, and the samples tell the two apart
        factors = 1.0 - 4j * math.pi * np.multiply.outer(t, _scaled_coefficients(spec, model))
        assert -np.angle(factors).sum(axis=1)[1] > math.pi
        rooted_product = np.prod(factors, axis=1) ** -0.5
        assert np.abs(rooted_product[1] - mean[1]) > 20 * max(se_re[1], se_im[1])


@pytest.mark.parametrize("case", sorted(ST0_CASES))
def test_st0_characteristic_cumulants(case):
    # log phi(t) = sum_n kappa_n (2 pi i t)^n / n!; its Taylor coefficients at
    # t = 0 come from 64 samples on a circle in the complex t plane, well
    # inside the radius of convergence
    spec, model, _ = ST0_CASES[case]
    scaled = _scaled_coefficients(spec, model)
    radius = 0.2 / (4 * math.pi * np.abs(scaled).max())
    angles = 2 * math.pi * np.arange(64) / 64
    log_phi = np.log(st0_characteristic(model, spec, radius * np.exp(1j * angles)))
    a1, a2 = (np.mean(log_phi * np.exp(-1j * n * angles)) / radius**n for n in (1, 2))
    kappa1, kappa2 = a1 / (2j * math.pi), -a2 / (2 * math.pi**2)
    mean = st0_fluctuation(model.sigma_x_mhz, model.sigma_y_mhz, model.sigma_z_mhz, spec)
    assert kappa1.real == pytest.approx(mean, rel=1e-12)
    assert kappa2.real == pytest.approx(2 * (scaled**2).sum(), rel=1e-12)
    assert abs(kappa1.imag) < 1e-12 * abs(mean) and abs(kappa2.imag) < 1e-12 * kappa2.real
    if model.sigma_x_mhz == model.sigma_y_mhz == model.sigma_z_mhz:
        sigma_st0 = linewidth_stats(model.sigma_x_mhz, spec).sigma_st0_mhz
        assert math.sqrt(kappa2.real) == pytest.approx(sigma_st0, rel=1e-12)


def test_st0_characteristic_without_noise_is_one(spec):
    t = np.linspace(0.0, 500.0, 7)
    assert np.array_equal(st0_characteristic(NoiseModel(), spec, t), np.ones(7))


def test_histogram_validation(spec):
    model = NoiseModel.isotropic(1.0, seed=1)
    with pytest.raises(ValueError):
        frequency_histogram(model, spec, "st0", 100)
    with pytest.raises(ValueError):
        frequency_histogram(model, spec, "st7", 2000)


def test_fwhm_constant():
    assert FWHM_PER_SIGMA == pytest.approx(math.sqrt(8 * math.log(2)))
