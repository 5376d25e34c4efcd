"""Quasi-static Gaussian noise: sampling, and the exact noise average,
moments and linewidths of each transition's shift, all from the one
quadratic noise model of :func:`~zfepr.hamiltonians.shift_coefficients`.

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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .hamiltonians import shift_coefficients

__all__ = [
    "DRAWS_PER_BLOCK",
    "NoiseModel",
    "LinewidthStats",
    "ShiftMoments",
    "sample_noise",
    "shift_characteristic",
    "shift_moments",
    "linewidth_stats",
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

    @property
    def widths(self):
        """(sigma_x, sigma_y, sigma_z) as an array, MHz."""
        return np.array([self.sigma_x_mhz, self.sigma_y_mhz, self.sigma_z_mhz])


def sample_noise(model, n, start=0):
    """Draws ``start`` to ``start + n - 1`` of the model's stream as an (n, 3)
    array of MHz triples.

    Each block that covers the range (see the module docstring) is generated
    up to the last row the range needs: a generator's first rows are those of
    its whole block, bit for bit, so any split of a range into calls returns
    the same rows.  A call inside one block builds one generator.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if start < 0:
        raise ValueError("start must be >= 0")
    first, stop = start // DRAWS_PER_BLOCK, (start + n - 1) // DRAWS_PER_BLOCK + 1
    blocks = [
        np.random.default_rng(np.random.SeedSequence(model.seed, spawn_key=(b,)))
        .standard_normal((min(DRAWS_PER_BLOCK, start + n - b * DRAWS_PER_BLOCK), 3))
        for b in range(first, stop)
    ]
    offset = start - first * DRAWS_PER_BLOCK
    return np.concatenate(blocks)[offset:offset + n] * model.widths


def shift_characteristic(model, spec, transition, t_us):
    """Exact noise average <exp(2 pi i dw t)> of the shift
    dw = sum_j b_j delta_j + c_j delta_j^2 of ``transition``
    (:func:`~zfepr.hamiltonians.shift_coefficients`): the product over axes of
    f_j^(-1/2) exp(-(2 pi b_j sigma_j t)^2 / (2 f_j)), f_j = 1 - 4 pi i c_j sigma_j^2 t.
    It is complex on both transitions, whose shifts have a nonzero mean and a
    skewed distribution.  Each f_j lies in the right half-plane, so its
    principal root is continuous in t; the product is taken of those roots,
    not rooted itself, because the product's phase passes pi at long times
    when all c_j share a sign (on S0<->T+-1 always, on S0<->T0 when a_perp >
    a_par).  ``t_us`` may be complex: the function is analytic for |t| below
    1 / max_j |4 pi c_j sigma_j^2|.
    """
    b, c = shift_coefficients(spec, transition)
    factors = 1.0 - 4j * math.pi * np.multiply.outer(t_us, c * model.widths**2)
    linear = np.multiply.outer(t_us, TWO_PI * b * model.widths) ** 2
    envelope = np.exp(-np.sum(linear / (2.0 * factors), axis=-1))
    return envelope / np.prod(np.sqrt(factors), axis=-1)


#: Exact moments of a transition's noise shift: mean and standard deviation
#: in MHz, skewness and excess kurtosis.
ShiftMoments = namedtuple("ShiftMoments", "mean std skewness excess_kurtosis")


def shift_moments(model, spec, transition):
    """Exact :class:`ShiftMoments` of the noise shift of ``transition``, from
    the cumulants kappa_n = sum_j (n-1)! 2^(n-1) (c_j sigma_j^2)^n
    + n! b_j^2 sigma_j^2 (2 c_j sigma_j^2)^(n-2) / 2 (the second term for
    n >= 2) of sum_j b_j delta_j + c_j delta_j^2.  S0<->T0's shift is skewed
    and sharper than a matched Gaussian; S0<->T+-1's is near one, its
    second-order part a small mean and skew.  Without noise every moment is 0.
    """
    b, c = shift_coefficients(spec, transition)
    a, linear = c * model.widths**2, (b * model.widths) ** 2

    def kappa(n):
        cross = math.factorial(n) * linear * (2.0 * a) ** (n - 2) / 2.0 if n > 1 else 0.0
        return float(np.sum(math.factorial(n - 1) * (2.0 * a) ** n / 2.0 + cross))

    mean, var, k3, k4 = map(kappa, (1, 2, 3, 4))
    std = math.sqrt(var)
    return ShiftMoments(mean, std, k3 / std**3 if std else 0.0, k4 / var**2 if std else 0.0)


#: Transition-frequency fluctuation widths and their ratio chi.
LinewidthStats = namedtuple("LinewidthStats", "sigma_st1_mhz sigma_st0_mhz chi")


def linewidth_stats(sigma_mhz, spec):
    """Isotropic-noise linewidth theory: the widths of the S0<->T+-1 and
    S0<->T0 noise shifts (:func:`shift_moments`) and their ratio chi.

    sigma_st1 = sqrt(sigma^2/4 + 2 sigma^4 sum_j c_j^2) (sigma/2 within 2e-5 at
    sigma = 0.196 MHz) and sigma_st0 = sigma^2 sqrt(2 sum_j c_j^2), each with
    its transition's c_j; chi is the predicted spectral-resolution
    improvement (about 133 for the default hyperfine constants at sigma_st1 =
    98 kHz).
    """
    model = NoiseModel.isotropic(sigma_mhz)
    sigma_st1, sigma_st0 = (shift_moments(model, spec, tr).std for tr in ("st1", "st0"))
    chi = sigma_st1 / sigma_st0 if sigma_st0 > 0 else math.inf
    return LinewidthStats(sigma_st1, sigma_st0, chi)
