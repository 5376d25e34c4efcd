import math

import numpy as np
import pytest

from zfepr.spectra import (
    FoldAmbiguityError,
    Spectrum,
    TimeSeries,
    dft_spectrum,
)


def _cosine_series(f_mhz, dt, n, amp=1.0):
    t = dt * np.arange(n)
    return TimeSeries(t, amp * np.cos(2 * np.pi * f_mhz * t))


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0, 1.5]), np.zeros(3))  # non-uniform
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, -1.0]), np.zeros(2))  # decreasing
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0]), np.zeros(1))
    s = TimeSeries(np.array([0.0, 0.5, 1.0]), np.zeros(3))
    assert s.dt == 0.5 and len(s) == 3


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0]), np.array([1.0, -0.5]))


def test_zero_series_gives_flat_zero_spectrum():
    series = TimeSeries(np.arange(16.0), np.zeros(16))
    spec = dft_spectrum(series)
    assert np.abs(spec.amps).max() == 0.0
    assert spec.band_origin == 0.0


def test_low_frequency_peak_position():
    series = _cosine_series(0.017, 1.0, 512)
    spec = dft_spectrum(series)
    bin_width = spec.freqs[1] - spec.freqs[0]
    peak = spec.freqs[np.argmax(spec.amps)]
    assert abs(peak - 0.017) <= bin_width


def test_alias_unfolding_example():
    # 137.05 MHz sampled at 0.2 us aliases to 2.05 MHz; the hint band pins
    # the fold at 27 / dt
    series = _cosine_series(137.05, 0.2, 512)
    spec = dft_spectrum(series, band_hint=(136.0, 138.0))
    assert spec.band_origin == pytest.approx(135.0)
    bin_width = spec.freqs[1] - spec.freqs[0]
    peak = spec.freqs[np.argmax(spec.amps)]
    assert abs(peak - 137.05) <= bin_width


def test_band_hint_validation():
    series = _cosine_series(137.05, 0.2, 512)
    with pytest.raises(ValueError):
        dft_spectrum(series, band_hint=(130.0, 140.0))  # wider than 1/dt
    with pytest.raises(ValueError):
        dft_spectrum(series, band_hint=(138.0, 136.0))
    with pytest.raises(FoldAmbiguityError):
        dft_spectrum(series, band_hint=(138.0, 139.0))  # no fold lands inside
    # a signal sitting exactly on a DFT bin, with the hint band exactly one
    # sampling rate wide: both band edges are fold candidates
    alias = 840.0 / (4 * 512 * 0.2)
    exact = _cosine_series(135.0 + alias, 0.2, 512)
    with pytest.raises(FoldAmbiguityError):
        dft_spectrum(exact, band_hint=(130.0 + alias, 135.0 + alias))


def test_spectrum_scales_linearly():
    a = dft_spectrum(_cosine_series(0.31, 0.5, 256, amp=1.0))
    b = dft_spectrum(_cosine_series(0.31, 0.5, 256, amp=2.5))
    assert np.argmax(a.amps) == np.argmax(b.amps)
    mask = a.amps > 1e-6
    assert np.abs(b.amps[mask] / a.amps[mask] - 2.5).max() < 1e-9


def test_gaussian_envelope_gives_gaussian_line():
    # even extension turns the one-sided record into the absorption line
    sigma = 0.196
    t = 0.2 * np.arange(256)
    vals = np.exp(-np.pi**2 * sigma**2 * t**2 / 2) * np.cos(2 * np.pi * 137.0 * t)
    spec = dft_spectrum(TimeSeries(t, vals), band_hint=(136.0, 138.0))
    peak = np.argmax(spec.amps)
    assert spec.freqs[peak] == pytest.approx(137.0, abs=spec.freqs[1] - spec.freqs[0])
    mask = np.abs(spec.freqs - 137.0) < 0.8
    ideal = spec.amps[peak] * np.exp(-(spec.freqs[mask] - 137.0) ** 2 / (2 * (sigma / 2) ** 2))
    assert np.abs(spec.amps[mask] - ideal).max() / spec.amps[peak] < 0.002


def test_too_short_series_rejected():
    with pytest.raises(ValueError):
        dft_spectrum(TimeSeries(np.arange(4.0), np.ones(4)))

