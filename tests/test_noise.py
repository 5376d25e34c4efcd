import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfepr.hamiltonians import TargetSpec
from zfepr.noise import (
    FWHM_PER_SIGMA,
    NoiseModel,
    frequency_histogram,
    linewidth_stats,
    sample_noise,
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


def test_histogram_validation(spec):
    model = NoiseModel.isotropic(1.0, seed=1)
    with pytest.raises(ValueError):
        frequency_histogram(model, spec, "st0", 100)
    with pytest.raises(ValueError):
        frequency_histogram(model, spec, "st7", 2000)


def test_fwhm_constant():
    assert FWHM_PER_SIGMA == pytest.approx(math.sqrt(8 * math.log(2)))
