"""Time series, magnitude spectra, and alias-aware DFT.

The correlation measurements deliberately undersample: a line near 137 MHz is
recorded with a step of, say, 0.2 us and shows up folded below the 2.5 MHz
Nyquist edge.  With a hint band from prior knowledge of the rough resonance
frequency, the fold index is recovered and the frequency axis relabeled; the
hint must select exactly one fold, otherwise unfolding refuses to guess.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "Spectrum",
    "FoldAmbiguityError",
    "dft_spectrum",
]


class FoldAmbiguityError(ValueError):
    """Zero or multiple alias folds land inside the hint band."""


@dataclass(frozen=True)
class TimeSeries:
    """Signal sampled on a strictly increasing uniform grid (times in us)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(times) < 2:
            raise ValueError("need at least two samples")
        steps = np.diff(times)
        if steps.min() <= 0:
            raise ValueError("times must be strictly increasing")
        if np.abs(steps - steps[0]).max() > 1e-9 * max(steps[0], 1.0):
            raise ValueError("time grid must be uniform")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class Spectrum:
    """Magnitude spectrum; ``band_origin`` is the alias-recovery offset that
    was added to the raw (folded) frequency axis, 0 when no hint was given."""

    freqs: np.ndarray
    amps: np.ndarray
    band_origin: float = 0.0

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        amps = np.asarray(self.amps, dtype=float)
        if freqs.shape != amps.shape or freqs.ndim != 1:
            raise ValueError("freqs and amps must be 1-d arrays of equal length")
        if np.any(amps < 0):
            raise ValueError("amplitudes must be non-negative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amps", amps)


def dft_spectrum(series, band_hint=None):
    """Magnitude spectrum of a mean-subtracted series, zero-padded 4x.

    The record only covers t >= 0 but the model signal is even in t (every
    contribution is a cosine), so the series is even-extended about t = 0
    before transforming; the magnitude of that transform is the clean
    absorption-mode line, free of the dispersive wings a one-sided record
    would produce.

    ``band_hint=(lo, hi)`` in MHz unaliases the axis: the dominant peak at
    folded frequency f_a is assigned the unique true frequency k/dt + f_a
    inside the band, and the whole axis is shifted by that fold offset.
    Bands wider than the sampling rate 1/dt cannot be unfolded and are
    rejected; so is a hint admitting zero or several fold candidates.
    """
    if len(series) < 8:
        raise ValueError("need at least 8 samples for a spectrum")
    dt = series.dt
    values = series.values - series.values.mean()
    nfft = 4 * len(series)
    freqs = np.fft.rfftfreq(nfft, dt)
    # rfft phases are referenced to the first sample; rotate to absolute time,
    # then the even extension doubles the real part (a t = 0 sample, if any,
    # must not be counted twice)
    t0 = series.times[0]
    transform = np.fft.rfft(values, nfft) * np.exp(-2j * np.pi * freqs * t0)
    two_sided = 2.0 * transform.real
    if abs(t0) < 1e-12 * dt:
        two_sided -= values[0]
    amps = np.abs(two_sided) / len(series)

    origin = 0.0
    if band_hint is not None:
        lo, hi = float(band_hint[0]), float(band_hint[1])
        fs = 1.0 / dt
        if not lo < hi:
            raise ValueError("band hint must satisfy lo < hi")
        if hi - lo > fs:
            raise ValueError(
                f"hint band ({hi - lo:g} MHz) wider than sampling rate ({fs:g} MHz)")
        f_peak = freqs[int(np.argmax(amps))]
        k_min = int(np.ceil((lo - f_peak) / fs - 1e-12))
        k_max = int(np.floor((hi - f_peak) / fs + 1e-12))
        candidates = [k for k in range(k_min, k_max + 1) if k >= 0]
        if len(candidates) != 1:
            raise FoldAmbiguityError(
                f"{len(candidates)} fold candidates for peak at {f_peak:g} MHz "
                f"in band [{lo:g}, {hi:g}] MHz")
        origin = candidates[0] * fs
        freqs = freqs + origin
    return Spectrum(freqs=freqs, amps=amps, band_origin=origin)

