"""Damped nonlinear least squares and multi-Gaussian spectrum fitting.

The solver is a plain Levenberg-Marquardt loop: damping starts at 1e-3 and
adapts by factors of 10 up / 0.1 down, the step tolerance is 1e-10 of the
parameter vector's norm, and the iteration cap is 200.  Non-convergence is
reported through a flag with the best parameters so far, never by raising.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import FWHM_PER_SIGMA

__all__ = [
    "FWHM_PER_SIGMA",
    "FitError",
    "GaussianPeak",
    "FitResult",
    "LMResult",
    "levenberg_marquardt",
    "fit_gaussians",
]


#: Convergence threshold on a step's norm relative to the parameter vector's.
_STEP_TOL = 1e-10
#: Largest number of Gaussians ``fit_gaussians`` fits.
_MAX_PEAKS = 4


class FitError(ValueError):
    """A fit failed numerically: no acceptable or converged solution."""


@dataclass(frozen=True)
class LMResult:
    params: np.ndarray
    covariance: np.ndarray
    rss: float
    iterations: int
    converged: bool


def levenberg_marquardt(residual_jacobian, p0, max_iter=200):
    """Minimize ||r(p)||^2 given a callable returning (residuals, jacobian).

    Returns an :class:`LMResult`; ``covariance`` is s^2 (J^T J)^-1 evaluated
    at the best parameters with s^2 the residual variance.
    """
    p = np.asarray(p0, dtype=float).copy()
    r, jac = residual_jacobian(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        scale = np.diag(np.maximum(np.diag(jtj), 1e-12))
        try:
            step = np.linalg.solve(jtj + lam * scale, -jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        p_new = p + step
        r_new, jac_new = residual_jacobian(p_new)
        cost_new = float(r_new @ r_new)
        # MINPACK-style norm test: a parameter whose optimum is near zero
        # would never pass a test of its own relative step
        rel = float(np.linalg.norm(step) / max(np.linalg.norm(p_new), 1e-12))
        if cost_new <= cost:
            p, r, jac, cost = p_new, r_new, jac_new, cost_new
            lam = max(lam * 0.1, 1e-12)
            if rel < _STEP_TOL:
                converged = True
                break
        else:
            # a rejected step that is already negligible means the minimum
            # is reached to within the tolerance
            if rel < _STEP_TOL:
                converged = True
                break
            lam *= 10.0
            if lam > 1e12:
                break

    n, k = len(r), len(p)
    dof = max(n - k, 1)
    s2 = cost / dof
    try:
        cov = s2 * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = s2 * np.linalg.pinv(jac.T @ jac)
    return LMResult(params=p, covariance=cov, rss=cost,
                    iterations=iterations, converged=converged)


@dataclass(frozen=True)
class GaussianPeak:
    """One fitted line: center and FWHM in MHz, amplitude in spectrum units,
    each with its standard error from the fit covariance."""

    center_mhz: float
    fwhm_mhz: float
    amplitude: float
    center_se_mhz: float = 0.0
    fwhm_se_mhz: float = 0.0
    amplitude_se: float = 0.0


@dataclass(frozen=True)
class FitResult:
    peaks: tuple
    baseline: float
    residual_norm: float
    m: int
    converged: bool

    def __post_init__(self):
        if any(p.fwhm_mhz <= 0 for p in self.peaks):
            raise ValueError("fitted FWHM must be positive")


def _residual_jacobian(freqs, amps):
    """Residuals and Jacobian of baseline + sum of Gaussians against ``amps``;
    params = [b, a1, c1, w1, a2, c2, w2, ...]."""
    def fun(params):
        n_peaks = (len(params) - 1) // 3
        model = np.full_like(freqs, params[0])
        jac = np.empty((len(freqs), len(params)))
        jac[:, 0] = 1.0
        for j in range(n_peaks):
            a, c, w = params[1 + 3 * j : 4 + 3 * j]
            z = (freqs - c) / w
            g = np.exp(-0.5 * z * z)
            model += a * g
            jac[:, 1 + 3 * j] = g
            jac[:, 2 + 3 * j] = a * g * z / w
            jac[:, 3 + 3 * j] = a * g * z * z / w
        return model - amps, jac

    return fun


def _half_max_footprint(amps, i, baseline):
    """Indices of the nearest half-maximum crossings around peak ``i``."""
    half = baseline + 0.5 * (amps[i] - baseline)
    left = i
    while left > 0 and amps[left] > half:
        left -= 1
    right = i
    while right < len(amps) - 1 and amps[right] > half:
        right += 1
    return left, right


def _initial_guess(freqs, amps, m):
    baseline = float(amps.min())
    interior = amps[1:-1]
    is_max = (interior >= amps[:-2]) & (interior > amps[2:])
    candidates = list((np.nonzero(is_max)[0] + 1)[np.argsort(amps[np.nonzero(is_max)[0] + 1])[::-1]])
    picked = set(candidates)
    candidates += [i for i in np.argsort(amps)[::-1] if i not in picked]

    # greedy pick by height, masking out each picked peak's half-max
    # footprint so noise bumps on one line cannot seed two components
    taken = np.zeros(len(amps), dtype=bool)
    peak_idx = []
    for i in candidates:
        if len(peak_idx) == m:
            break
        if taken[i]:
            continue
        peak_idx.append(int(i))
        left, right = _half_max_footprint(amps, i, baseline)
        taken[left : right + 1] = True
    for i in candidates:  # fall back to masked candidates if lines overlap
        if len(peak_idx) == m:
            break
        if i not in peak_idx:
            peak_idx.append(int(i))

    span = freqs[-1] - freqs[0]
    params = [baseline]
    for i in peak_idx:
        a = float(amps[i] - baseline)
        left, right = _half_max_footprint(amps, i, baseline)
        width = max((freqs[right] - freqs[left]) / FWHM_PER_SIGMA, span / (50.0 * m))
        params += [max(a, 1e-12), float(freqs[i]), float(width)]
    return np.array(params)


def _fit_fixed_m(freqs, amps, m):
    fun = _residual_jacobian(freqs, amps)
    res = levenberg_marquardt(fun, _initial_guess(freqs, amps, m))
    peaks = []
    for j in range(m):
        a, c, w = res.params[1 + 3 * j : 4 + 3 * j]
        se = np.sqrt(np.maximum(np.diag(res.covariance), 0.0))
        peaks.append(
            GaussianPeak(
                center_mhz=float(c),
                fwhm_mhz=float(abs(w)) * FWHM_PER_SIGMA,
                amplitude=float(a),
                center_se_mhz=float(se[2 + 3 * j]),
                fwhm_se_mhz=float(se[3 + 3 * j]) * FWHM_PER_SIGMA,
                amplitude_se=float(se[1 + 3 * j]),
            )
        )
    peaks.sort(key=lambda p: p.center_mhz)
    return FitResult(
        peaks=tuple(peaks),
        baseline=float(res.params[0]),
        residual_norm=math.sqrt(res.rss),
        m=m,
        converged=res.converged,
    ), res


def _aicc(rss, n, k):
    # small-sample corrected information criterion; k counts fit parameters + 1
    kk = k + 1
    if n - kk - 1 <= 0:
        return math.inf
    return n * math.log(max(rss, 1e-300) / n) + 2 * kk + 2 * kk * (kk + 1) / (n - kk - 1)


def fit_gaussians(spectrum, m):
    """Fit Gaussians plus a constant baseline to a magnitude spectrum.

    ``m`` is one peak count, or an ascending tuple of counts to choose among;
    each count is in 1..4.  Every candidate must pass the same validity
    tests: converged, centers inside the frequency range, no sub-bin or
    negative components.  A choice rises through the tuple while the
    small-sample-corrected information criterion keeps falling, and stops at
    the first count that ties, scores worse or fails those tests.  ``zfepr
    spectrum`` passes the counts up to the lines its target names.
    Initialization takes the highest local maxima.  Raises :class:`FitError`
    when the first count fails, so a fixed count is checked like a chosen one.
    """
    freqs = np.asarray(spectrum.freqs, dtype=float)
    amps = np.asarray(spectrum.amps, dtype=float)
    if amps.max() - amps.min() <= 1e-30:
        raise ValueError("flat spectrum cannot be fitted")

    candidates = tuple(m) if isinstance(m, tuple) else (int(m),)
    if (not candidates or not all(1 <= mm <= _MAX_PEAKS for mm in candidates)
            or list(candidates) != sorted(set(candidates))):
        raise ValueError(f"peak counts must be ascending, each in 1..{_MAX_PEAKS}")

    bin_spacing = float(np.median(np.diff(freqs))) if len(freqs) > 1 else 0.0
    best = None
    best_score = math.inf
    for mm in candidates:
        if len(freqs) < 15 * mm:
            if best is None:
                raise ValueError("too few spectrum points for requested peak count")
            break
        result, lm = _fit_fixed_m(freqs, amps, mm)
        # reject degenerate candidates: runaway centers, sub-bin spikes,
        # negative components, or fits that never settled
        valid = (result.converged
                 and all(freqs[0] <= p.center_mhz <= freqs[-1] for p in result.peaks)
                 and all(p.fwhm_mhz >= bin_spacing for p in result.peaks)
                 and all(p.amplitude > 0 for p in result.peaks))
        score = _aicc(lm.rss, len(freqs), 3 * mm + 1) if valid else math.inf
        if not score < best_score - 1e-9:
            break
        best, best_score = result, score
    if best is None:
        raise FitError(f"no acceptable fit found: {candidates[0]} Gaussian(s) failed the "
                       "validity tests")
    return best
