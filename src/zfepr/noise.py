"""Quasi-static Gaussian noise: sampling, linewidth theory, the exact
S0<->T0 noise average, and the Monte Carlo distribution of transition
frequencies.

Reproducibility contract: the draws of a model with seed ``s`` form one
stream cut into blocks of :data:`DRAWS_PER_BLOCK`.  Block ``b`` is
``numpy.random.default_rng(numpy.random.SeedSequence(s, spawn_key=(b,)))
.standard_normal((DRAWS_PER_BLOCK, 3))`` (PCG64), each row scaled by
(sigma_x, sigma_y, sigma_z), so draw ``i`` is row ``i % DRAWS_PER_BLOCK`` of
block ``i // DRAWS_PER_BLOCK``.  Keying every block by its index makes the
stream identical however its consumers split it into chunks.  The seed and
the block index are hashed together, with the seed padded to 128 bits
before the index, so different seeds below 2**128 give independent streams.
(Plain entropy ``[s, b]`` would not: numpy ignores trailing zero words, so
seed ``s + b * 2**32`` would repeat block ``b`` of seed ``s`` as its block 0.)
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constants import FWHM_PER_SIGMA
from .hamiltonians import st0_fluctuation

__all__ = [
    "DRAWS_PER_BLOCK",
    "FWHM_PER_SIGMA",
    "NoiseModel",
    "LinewidthStats",
    "HistogramResult",
    "sample_noise",
    "linewidth_stats",
    "st0_characteristic",
    "frequency_histogram",
]


#: Draws per generator block of a noise stream.  Monte Carlo averages take
#: their draws a block at a time, so each of their chunks builds one generator.
DRAWS_PER_BLOCK = 512


@dataclass(frozen=True)
class NoiseModel:
    """Per-axis standard deviations (MHz) of the quasi-static field noise."""

    sigma_x_mhz: float = 0.0
    sigma_y_mhz: float = 0.0
    sigma_z_mhz: float = 0.0
    seed: int = 12345

    def __post_init__(self):
        widths = (self.sigma_x_mhz, self.sigma_y_mhz, self.sigma_z_mhz)
        if not all(math.isfinite(w) and w >= 0 for w in widths):
            raise ValueError(f"noise widths must be finite and >= 0, got {widths}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError(f"noise seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def isotropic(cls, sigma_mhz, seed=seed):  # the default of the field above
        return cls(sigma_mhz, sigma_mhz, sigma_mhz, seed)


def sample_noise(model, n, start=0):
    """Draws ``start`` to ``start + n - 1`` of the model's stream as an (n, 3)
    array of MHz triples.

    The blocks that cover the range are generated whole and sliced (see the
    module docstring), so any split of a range into calls returns the same
    rows; a call inside one block builds one generator.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if start < 0:
        raise ValueError("start must be >= 0")
    first, stop = start // DRAWS_PER_BLOCK, (start + n - 1) // DRAWS_PER_BLOCK + 1
    blocks = [
        np.random.default_rng(np.random.SeedSequence(model.seed, spawn_key=(b,)))
        .standard_normal((DRAWS_PER_BLOCK, 3))
        for b in range(first, stop)
    ]
    offset = start - first * DRAWS_PER_BLOCK
    sigmas = np.array([model.sigma_x_mhz, model.sigma_y_mhz, model.sigma_z_mhz])
    return np.concatenate(blocks)[offset:offset + n] * sigmas


@dataclass(frozen=True)
class LinewidthStats:
    """Transition-frequency fluctuation widths and their ratio chi."""

    sigma_st1_mhz: float
    sigma_st0_mhz: float
    chi: float


def linewidth_stats(sigma_mhz, spec):
    """Isotropic-noise linewidth theory.

    sigma_st1 = sigma/2 exactly; sigma_st0 is quadratic in the noise: the
    shift is sum_j c_j delta_j^2 (see :func:`st0_characteristic`), so its
    width is sigma^2 * sqrt(2 * sum_j c_j^2), which is
    sigma^2 * sqrt(4*a_perp^2/(a_par^2-a_perp^2)^2 + 1/(2*a_perp^2)); chi is
    their ratio, the predicted spectral-resolution improvement (about 133 for
    the default hyperfine constants at sigma_st1 = 98 kHz).
    """
    if not (math.isfinite(sigma_mhz) and sigma_mhz >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma_mhz}")
    sigma_st1 = 0.5 * sigma_mhz
    c = st0_fluctuation(*np.eye(3), spec)
    sigma_st0 = sigma_mhz**2 * math.sqrt(2.0 * float(c @ c))
    chi = sigma_st1 / sigma_st0 if sigma_st0 > 0 else math.inf
    return LinewidthStats(sigma_st1, sigma_st0, chi)


def st0_characteristic(model, spec, t_us):
    """Exact noise average <exp(2 pi i dw_st0 t)> of the S0<->T0 shift.

    dw_st0 = sum_j c_j delta_j^2 (:func:`~zfepr.hamiltonians.st0_fluctuation`,
    c_x = c_y = -a_perp/(a_par^2 - a_perp^2), c_z = 1/(2 a_perp)) is a sum of
    scaled chi^2_1 variables, whose characteristic function is
    prod_j (1 - 4 pi i c_j sigma_j^2 t)^(-1/2).  Each factor lies in the
    right half-plane, so its principal root is continuous in t; the product
    is taken of those roots, not rooted itself, because the product's phase
    passes pi at long times when all c_j share a sign (a_perp > a_par).
    ``t_us`` may be complex: the function is analytic for |t| below
    1 / max_j |4 pi c_j sigma_j^2|.
    """
    scaled = st0_fluctuation(*np.eye(3), spec) * np.array(
        [model.sigma_x_mhz, model.sigma_y_mhz, model.sigma_z_mhz]) ** 2
    factors = 1.0 - 4j * math.pi * np.multiply.outer(t_us, scaled)
    return 1.0 / np.prod(np.sqrt(factors), axis=-1)


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
