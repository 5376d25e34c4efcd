"""Damped nonlinear least squares and multi-Gaussian spectrum fitting.

The solver is a plain Levenberg-Marquardt loop: damping starts at 1e-3 and
adapts by factors of 10 up / 0.1 down, the step tolerance is 1e-10 of the
parameter vector's norm, and the iteration cap is 200.  Non-convergence is
reported through a flag with the best parameters so far, never by raising.
A stacked form runs many independent problems of one size under the same
policy, each step as one batched solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import FWHM_PER_SIGMA

__all__ = [
    "FitError",
    "GaussianPeak",
    "FitResult",
    "LMResult",
    "levenberg_marquardt",
    "levenberg_marquardt_stack",
    "fit_gaussians",
]


#: Convergence threshold on a step's norm relative to the parameter vector's.
_STEP_TOL = 1e-10
#: Largest number of Gaussians ``fit_gaussians`` fits.
_MAX_PEAKS = 4
#: Fewest spectrum bins ``fit_gaussians`` needs per Gaussian.
_BINS_PER_PEAK = 15


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
    k = len(p)

    for iterations in range(1, max_iter + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        # damping on the diagonal alone: the scaled identity adds 0.0 elsewhere
        jtj.flat[:: k + 1] += lam * np.maximum(np.diag(jtj), 1e-12)
        try:
            step = np.linalg.solve(jtj, -jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        p_new = p + step
        r_new, jac_new = residual_jacobian(p_new)
        cost_new = float(r_new @ r_new)
        # MINPACK-style norm test: a parameter whose optimum is near zero
        # would never pass a test of its own relative step.  Each norm is
        # rounded as np.linalg.norm rounds a 1-d vector's.
        rel = math.sqrt(step @ step) / max(math.sqrt(p_new @ p_new), 1e-12)
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

    n = len(r)
    dof = max(n - k, 1)
    s2 = cost / dof
    cov = s2 * _inverse(jac.T @ jac)
    return LMResult(params=p, covariance=cov, rss=cost,
                    iterations=iterations, converged=converged)


def _dot(x, y):
    """Row-wise dot products of (..., n) stacks, each rounded as ``x[i] @ y[i]``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def levenberg_marquardt_stack(residual_jacobian, p0, max_iter=200):
    """:func:`levenberg_marquardt` on a stack of independent problems at once.

    ``p0`` is (s, k), one start per problem.  ``residual_jacobian(params,
    rows)`` returns the residuals (m, n) and Jacobians (m, n, k) of the
    problems ``rows`` (indices into the stack) at ``params`` (m, k), as new
    arrays: the loop keeps them as its state, as the scalar loop does.  Every
    problem keeps its own damping, step acceptance, convergence flag and
    iteration count under the scalar loop's policy, and is no longer
    evaluated once it has converged or given up, so its result does not
    depend on the rest of the stack.  A damped system that is singular
    raises the damping of its own problem only.  Returns an
    :class:`LMResult` whose fields carry the stack axis first.

    The problems still running are kept as compact arrays of their own,
    which are indexed only on an iteration where one of them stops or
    cannot be solved, and written back to the stack when it stops.

    The scalar loop stays separate: run as a stack of one, the single
    spectrum fits are slower (a 2-peak fit of 4 iterations took 320-340 us
    against 254 us for the scalar loop, one process on a 2-core host).
    """
    p = np.array(p0, dtype=float)
    stack, k = p.shape
    live = np.arange(stack)
    r, jac = residual_jacobian(p, live)
    cost = _dot(r, r)
    n = r.shape[-1]
    converged = np.zeros(stack, dtype=bool)
    iterations = np.zeros(stack, dtype=int)
    # the running problems' state, in the order of ``live``
    p_l, r_l, jac_l, cost_l = p, r, jac, cost
    lam = np.full(stack, 1e-3)

    it = 0
    for it in range(1, max_iter + 1):
        if not len(live):
            break
        jac_t = np.swapaxes(jac_l, -1, -2)
        damped = jac_t @ jac_l
        jtr = (jac_t @ r_l[..., None])[..., 0]
        # damping on the diagonal alone: the scaled identity adds 0.0 elsewhere
        diagonal = damped.reshape(len(live), k * k)[:, :: k + 1]
        diagonal += lam[:, None] * np.maximum(diagonal, 1e-12)
        solved = None
        try:
            step = np.linalg.solve(damped, -jtr[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step, solved = np.zeros_like(jtr), np.zeros(len(live), dtype=bool)
            for i in range(len(live)):
                try:
                    step[i] = np.linalg.solve(damped[i], -jtr[i])
                    solved[i] = True
                except np.linalg.LinAlgError:
                    pass
        if solved is None:
            p_new = p_l + step
            r_new, jac_new = residual_jacobian(p_new, live)
        else:
            # only the solved problems are evaluated; the others keep their
            # state, raise their damping and do not stop
            rows = np.flatnonzero(solved)
            p_new, r_new, jac_new = p_l.copy(), r_l.copy(), jac_l.copy()
            p_new[rows] += step[rows]
            if len(rows):
                r_new[rows], jac_new[rows] = residual_jacobian(p_new[rows], live[rows])
        cost_new = _dot(r_new, r_new)
        # the scalar loop's norm test, each norm rounded as np.linalg.norm
        rel = np.sqrt(_dot(step, step)) / np.maximum(np.sqrt(_dot(p_new, p_new)), 1e-12)
        better = cost_new <= cost_l
        done = rel < _STEP_TOL
        if solved is not None:
            better &= solved
            done &= solved
        if better.all():
            p_l, r_l, jac_l, cost_l = p_new, r_new, jac_new, cost_new
            lam = np.maximum(lam * 0.1, 1e-12)
        else:
            p_l[better], r_l[better], jac_l[better] = p_new[better], r_new[better], jac_new[better]
            cost_l[better] = cost_new[better]
            lam[better] = np.maximum(lam[better] * 0.1, 1e-12)
            lam[~better & ~done] *= 10.0
        stop = done | (~better & (lam > 1e12))
        if solved is not None:
            stop &= solved
        if stop.any():
            rows = live[stop]
            p[rows], jac[rows], cost[rows] = p_l[stop], jac_l[stop], cost_l[stop]
            converged[rows] = done[stop]
            iterations[rows] = it
            keep = ~stop
            live, lam = live[keep], lam[keep]
            p_l, r_l, jac_l, cost_l = p_l[keep], r_l[keep], jac_l[keep], cost_l[keep]
    p[live], jac[live], cost[live] = p_l, jac_l, cost_l
    iterations[live] = it

    s2 = cost / max(n - k, 1)
    jtj = np.swapaxes(jac, -1, -2) @ jac
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        inv = np.array([_inverse(m) for m in jtj])
    return LMResult(params=p, covariance=s2[:, None, None] * inv, rss=cost,
                    iterations=iterations, converged=converged)


def _inverse(matrix):
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(matrix)


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
            g = np.exp(-0.5 * z * z, out=jac[:, 1 + 3 * j])
            ag = a * g
            model += ag
            # a g z / w and a g z z / w, each rounded left to right
            agz = np.multiply(ag, z, out=ag)
            np.divide(agz, w, out=jac[:, 2 + 3 * j])
            np.divide(np.multiply(agz, z, out=agz), w, out=jac[:, 3 + 3 * j])
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
    for a flat spectrum, and when the first count fails, so a fixed count is
    checked like a chosen one.
    """
    freqs = np.asarray(spectrum.freqs, dtype=float)
    amps = np.asarray(spectrum.amps, dtype=float)
    if amps.max() - amps.min() <= 1e-30:
        raise FitError("flat spectrum cannot be fitted")

    candidates = tuple(m) if isinstance(m, tuple) else (int(m),)
    if (not candidates or not all(1 <= mm <= _MAX_PEAKS for mm in candidates)
            or list(candidates) != sorted(set(candidates))):
        raise ValueError(f"peak counts must be ascending, each in 1..{_MAX_PEAKS}")

    bin_spacing = float(np.median(np.diff(freqs))) if len(freqs) > 1 else 0.0
    best = None
    best_score = math.inf
    for mm in candidates:
        if len(freqs) < _BINS_PER_PEAK * mm:
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
