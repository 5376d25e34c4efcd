"""Quasi-static Gaussian noise: sampling, linewidth theory, and the
Monte Carlo distribution of transition frequencies.

Reproducibility contract: draw ``i`` of a model with seed ``s`` comes from
``numpy.random.default_rng(s + i)`` (PCG64), taking three normal deviates
scaled by (sigma_x, sigma_y, sigma_z).  Per-draw seeding makes the stream
identical however its consumers split it into chunks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import FWHM_PER_SIGMA
from .hamiltonians import st0_fluctuation

__all__ = [
    "FWHM_PER_SIGMA",
    "NoiseModel",
    "LinewidthStats",
    "HistogramResult",
    "sample_noise",
    "linewidth_stats",
    "frequency_histogram",
]


@dataclass(frozen=True)
class NoiseModel:
    """Per-axis standard deviations (MHz) of the quasi-static field noise."""

    sigma_x_mhz: float = 0.0
    sigma_y_mhz: float = 0.0
    sigma_z_mhz: float = 0.0
    seed: int = 12345

    def __post_init__(self):
        if min(self.sigma_x_mhz, self.sigma_y_mhz, self.sigma_z_mhz) < 0:
            raise ValueError("noise widths must be >= 0")

    @classmethod
    def isotropic(cls, sigma_mhz, seed=12345):
        return cls(sigma_mhz, sigma_mhz, sigma_mhz, seed)


def sample_noise(model, n, start=0):
    """``n`` independent quasi-static draws as an (n, 3) array of MHz triples.

    ``start`` offsets the draw index so chunked consumers see one continuous,
    order-independent stream.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    sigmas = np.array([model.sigma_x_mhz, model.sigma_y_mhz, model.sigma_z_mhz])
    out = np.empty((n, 3))
    for i in range(n):
        rng = np.random.default_rng(model.seed + start + i)
        out[i] = rng.standard_normal(3) * sigmas
    return out


@dataclass(frozen=True)
class LinewidthStats:
    """Transition-frequency fluctuation widths and their ratio chi."""

    sigma_st1_mhz: float
    sigma_st0_mhz: float
    chi: float


def linewidth_stats(sigma_mhz, spec):
    """Isotropic-noise linewidth theory.

    sigma_st1 = sigma/2 exactly; sigma_st0 is quadratic in the noise,
    sigma^2 * sqrt(4*a_perp^2/(a_par^2-a_perp^2)^2 + 1/(2*a_perp^2)); chi is
    their ratio, the predicted spectral-resolution improvement (about 133 for
    the default hyperfine constants at sigma_st1 = 98 kHz).
    """
    if sigma_mhz < 0:
        raise ValueError("sigma must be >= 0")
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    sigma_st1 = 0.5 * sigma_mhz
    sigma_st0 = sigma_mhz**2 * math.sqrt(
        4.0 * ap * ap / (al * al - ap * ap) ** 2 + 1.0 / (2.0 * ap * ap)
    )
    chi = sigma_st1 / sigma_st0 if sigma_st0 > 0 else math.inf
    return LinewidthStats(sigma_st1, sigma_st0, chi)


@dataclass(frozen=True)
class HistogramResult:
    """Monte Carlo transition-frequency distribution with its moments."""

    bin_edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    values: np.ndarray


def frequency_histogram(model, spec, transition, n):
    """Distribution of the transition-frequency shift over ``n`` noise draws,
    in 128 bins.

    The S0<->T0 shift is a quadratic form in three Gaussians, so its
    distribution is asymmetric and sharper than a matched Gaussian; S0<->T+-1
    stays Gaussian (it is linear in delta_z).  Moments are population moments
    of the sampled shifts.
    """
    if n < 1000:
        raise ValueError("histogram needs at least 1000 draws")
    if transition not in ("st1", "st0"):
        raise ValueError(f"unknown transition {transition!r}")
    draws = sample_noise(model, n)
    if transition == "st1":
        values = 0.5 * draws[:, 2]
    else:
        values = st0_fluctuation(draws[:, 0], draws[:, 1], draws[:, 2], spec)

    counts, edges = np.histogram(values, bins=128)
    mean = float(values.mean())
    centered = values - mean
    var = float(np.mean(centered**2))
    std = math.sqrt(var)
    if std > 0:
        skew = float(np.mean(centered**3)) / std**3
        exkurt = float(np.mean(centered**4)) / std**4 - 3.0
    else:
        skew, exkurt = 0.0, 0.0
    return HistogramResult(
        bin_edges=edges, counts=counts, mean=mean, std=std,
        skewness=skew, excess_kurtosis=exkurt, values=values,
    )
