"""Static-field dependence sweeps and residual-field compensation.

The compensation simulation mirrors the three-step lab procedure: the ODMR
linewidth of a sensor broadens symmetrically with the axial field, so
sweeping a coil current and locating the symmetric minimum of the linewidth
curve nulls one field projection.  Two sensors lying in the plane
perpendicular to X pin down Bz (their Y projections cancel on averaging) and
By; a third sensor perpendicular to Y fixes Bx.  What limits the residual is
the current stability of the supplies, not the fit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E_MHZ_PER_G
from .fitting import FitError, levenberg_marquardt_stack
from .hamiltonians import _field_levels, _line_offsets

__all__ = [
    "CoilConfig",
    "ScanPlan",
    "OdmrScan",
    "CompensationResult",
    "CenterFitError",
    "NV_AXES",
    "bsweep",
    "odmr_linewidth_model",
    "find_symmetric_center",
    "simulate_odmr_scan",
    "compensate_3axis",
]

_S6 = math.sqrt(6.0)
_S3 = math.sqrt(3.0)

#: Sensor axes used by the compensation procedure, lab frame.  A and B lie in
#: the plane perpendicular to X (opposite Y projections, equal Z projection);
#: C lies in the plane perpendicular to Y.
NV_AXES = {
    "A": np.array([0.0, 2.0 / _S6, 1.0 / _S3]),
    "B": np.array([0.0, -2.0 / _S6, 1.0 / _S3]),
    "C": np.array([2.0 / _S6, 0.0, 1.0 / _S3]),
}

_AXIS_VECTORS = {
    "X": np.array([1.0, 0.0, 0.0]),
    "Y": np.array([0.0, 1.0, 0.0]),
    "Z": np.array([0.0, 0.0, 1.0]),
}


@dataclass(frozen=True)
class CoilConfig:
    """Helmholtz coil pair: field per current and supply stability."""

    coefficient_g_per_a: float = 2.8
    current_stability_a: float = 0.004

    def __post_init__(self):
        if not self.coefficient_g_per_a > 0:
            raise ValueError("coil coefficient must be positive")


@dataclass(frozen=True)
class ScanPlan:
    """Linewidth-vs-current scan settings for the compensation simulation.

    The window must bracket the linewidth minimum.  The center's standard
    error is smallest when the window is centered on it, since the steep
    arms on both sides then pin the minimum.
    """

    i_min_a: float = -0.5
    i_max_a: float = 0.5
    n_points: int = 201
    base_width_mhz: float = 2.0
    jitter_frac: float = 0.03

    def __post_init__(self):
        if not self.i_min_a < self.i_max_a:
            raise ValueError("scan range must be increasing")
        if self.n_points < 7:
            raise ValueError("need at least 7 scan points")
        if not self.base_width_mhz > 0:
            raise ValueError("base width must be positive")

    def currents(self, center_a=0.0):
        return center_a + np.linspace(self.i_min_a, self.i_max_a, self.n_points)


@dataclass(frozen=True)
class OdmrScan:
    """Extracted ODMR linewidths versus coil current for one sensor."""

    currents_a: np.ndarray
    linewidths_mhz: np.ndarray
    nv_orientation: np.ndarray

    def __post_init__(self):
        currents = np.asarray(self.currents_a, dtype=float)
        widths = np.asarray(self.linewidths_mhz, dtype=float)
        if currents.shape != widths.shape or currents.ndim != 1:
            raise ValueError("currents and linewidths must be 1-d, equal length")
        if np.any(np.diff(currents) <= 0):
            raise ValueError("currents must be strictly increasing")
        object.__setattr__(self, "currents_a", currents)
        object.__setattr__(self, "linewidths_mhz", widths)
        object.__setattr__(self, "nv_orientation",
                           np.asarray(self.nv_orientation, dtype=float))


class CenterFitError(FitError):
    """The linewidth fit failed numerically: no convergence, or a center
    outside the scanned window."""


def odmr_linewidth_model(i_a, center_i0_a, coil, base_width_mhz, nv_axis_projection):
    """Unresolved-splitting broadening: the two shifted lines of an axial
    field merge into one line of width
    sqrt(base^2 + (2 gamma_e proj coeff (I - I0))^2), symmetric about I0."""
    if not base_width_mhz > 0:
        raise ValueError("base width must be positive")
    split = 2.0 * GAMMA_E_MHZ_PER_G * nv_axis_projection * coil.coefficient_g_per_a
    return np.sqrt(base_width_mhz**2 + (split * (np.asarray(i_a, float) - center_i0_a)) ** 2)


def find_symmetric_center(scan):
    """Locate the symmetric minimum of a linewidth-vs-current curve.

    Fits the exact broadening shape sqrt(base^2 + (k (I - I0))^2) of
    :func:`odmr_linewidth_model`, with base, slope k and I0 free, and returns
    (I0, standard error) in Amperes.  The scan must bracket the minimum with
    at least 7 points; a minimum on the scan edge is rejected.  Raises
    :class:`CenterFitError` when the fit does not converge or its center
    leaves the scan range.  This is the one-scan case of the stacked fit
    that :func:`compensate_3axis` runs on every trial's scans at once.
    """
    i0, se = _symmetric_centers(scan.currents_a[None], scan.linewidths_mhz[None])
    return float(i0[0]), float(se[0])


def _symmetric_centers(currents, widths):
    """:func:`find_symmetric_center` for a stack of scans (s, n) of equal
    length; returns the centers and their standard errors, each (s,)."""
    if currents.shape[-1] < 7:
        raise ValueError("need at least 7 scan points")
    # the squared model is a parabola in I: its least-squares vertex brackets
    # the minimum and seeds the fit, using every point rather than the
    # noisiest one; currents centred and scaled onto [-1, 1] keep the normal
    # equations well conditioned
    mid = 0.5 * (currents[:, -1] + currents[:, 0])
    half = 0.5 * (currents[:, -1] - currents[:, 0])
    x = (currents - mid[:, None]) / half[:, None]
    basis = np.stack([x * x, x, np.ones_like(x)], axis=-1)
    basis_t = np.swapaxes(basis, -1, -2)
    c2, c1, c0 = np.linalg.solve(basis_t @ basis, basis_t @ (widths**2)[..., None])[..., 0].T
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(c2 > 0, -c1 / (2.0 * c2), np.nan)
    i0 = mid + half * vertex
    if not np.all((currents[:, 0] < i0) & (i0 < currents[:, -1])):
        raise ValueError("linewidth minimum not bracketed by the scan")
    base2 = c0 - c2 * vertex * vertex
    base = np.where(base2 > 0, np.sqrt(np.maximum(base2, 0.0)), widths.min(axis=-1))
    p0 = np.stack([base, np.sqrt(c2) / half, i0], axis=-1)

    def fun(params, rows):
        b, k, c = params.T[..., None]
        x = currents[rows] - c
        w = np.sqrt(b * b + (k * x) ** 2)
        jac = np.stack([b / w, k * x * x / w, -k * k * x / w], axis=-1)
        return w - widths[rows], jac

    res = levenberg_marquardt_stack(fun, p0)
    if not res.converged.all():
        raise CenterFitError("linewidth fit did not converge in "
                             f"{res.iterations[~res.converged][0]} iterations")
    i0 = res.params[:, 2]
    if not np.all((currents[:, 0] <= i0) & (i0 <= currents[:, -1])):
        raise CenterFitError("fitted center outside the scan range")
    return i0, np.sqrt(np.maximum(res.covariance[:, 2, 2], 0.0))


def _scan_widths(nv_axis, coil_axis, total_field, coil, plan, currents, jitter):
    """Jittered linewidths (MHz) of scans at ``currents`` (..., n).

    The sensor axes and the fields present before the coil is energized,
    each (..., 3), broadcast against the scans' leading axes; ``jitter``
    holds the scans' standard normal draws (..., n).
    """
    proj = (nv_axis @ _AXIS_VECTORS[coil_axis])[..., None]
    # one 1-d dot product per scan, as ``n @ b`` rounds it
    axial0 = (total_field[..., None, :] @ nv_axis[..., :, None])[..., 0]
    axial = axial0 + proj * coil.coefficient_g_per_a * currents
    widths = np.sqrt(plan.base_width_mhz**2 + (2.0 * GAMMA_E_MHZ_PER_G * axial) ** 2)
    return widths + plan.jitter_frac * plan.base_width_mhz * jitter


def simulate_odmr_scan(nv_axis, coil_axis, total_field, coil, plan, rng, center_a=0.0):
    """Synthesize one linewidth-vs-current scan for a sensor axis.

    ``total_field`` is the field present before this coil is energized; the
    extracted linewidths carry Gaussian jitter of ``jitter_frac * base``,
    drawn from ``rng``.  ``center_a`` recenters the scan window (used for
    the refinement pass).
    """
    n = np.asarray(nv_axis, dtype=float)
    currents = plan.currents(center_a)
    widths = _scan_widths(n, coil_axis, np.asarray(total_field, dtype=float), coil, plan,
                          currents, rng.standard_normal(len(currents)))
    return OdmrScan(currents_a=currents, linewidths_mhz=widths, nv_orientation=n)


@dataclass(frozen=True)
class CompensationResult:
    """Outcome of the three-step procedure: the delivered coil current and
    the standard error of its fitted center per axis "X", "Y", "Z" (A), and
    the residual field (x, y, z) left after compensation (G)."""

    currents_a: dict
    fit_errors_a: dict
    residual_g: np.ndarray


def compensate_3axis(true_field, coil, plan=ScanPlan(), seeds=(0,)):
    """Simulate the full Bz -> By -> Bx compensation of a :class:`FieldVector`,
    once per trial; returns one :class:`CompensationResult` per seed.

    Step (i) sweeps the Z coil with sensors A and B and averages the two
    symmetric centers, which cancels their equal-and-opposite Y projections.
    Steps (ii)/(iii) sweep Y with sensor A (insensitive to Bx) and X with
    sensor C.  Each applied current is the fitted center plus a
    supply-stability error, so the per-axis residual is of order
    stability * coefficient.

    Each seed is anything :func:`numpy.random.default_rng` accepts, such as
    an integer or a :class:`numpy.random.SeedSequence`, and gives its trial
    its own generator.  The trials run in lockstep: at each axis step every
    trial's coarse scans are fitted as one stack, then every fine scan.  A
    trial still draws in the order it would alone: for each sensor in turn
    the jitter of its coarse scan, then of its fine scan, and after the last
    sensor the supply error.  So a trial's result does not depend on the
    other trials, nor on how many there are.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    b = np.tile(true_field.as_array(), (len(rngs), 1))
    currents, fit_errors = {}, {}
    for axis, sensors in (("Z", "AB"), ("Y", "A"), ("X", "C")):
        nv_axes = np.array([NV_AXES[name] for name in sensors])
        jitter = np.array([rng.standard_normal((len(sensors), 2, plan.n_points))
                           for rng in rngs])
        supply = np.array([rng.standard_normal() for rng in rngs])
        # two passes: the fit is unbiased at any window position, but a
        # null near the window edge leaves one arm short and the center
        # poorly pinned; a window centered on the first estimate restores
        # the precision
        centers = np.zeros((len(rngs), len(sensors)))
        for fine in (0, 1):
            scan_currents = plan.currents(centers[..., None])
            widths = _scan_widths(nv_axes, axis, b[:, None, :], coil, plan, scan_currents,
                                  jitter[:, :, fine])
            centers, errors = (a.reshape(centers.shape) for a in _symmetric_centers(
                scan_currents.reshape(-1, plan.n_points), widths.reshape(-1, plan.n_points)))
        fit_errors[axis] = [math.hypot(*e) / len(sensors) for e in errors]
        currents[axis] = (centers.sum(axis=-1) / len(sensors)
                          + coil.current_stability_a * supply)
        b = b + coil.coefficient_g_per_a * currents[axis][:, None] * _AXIS_VECTORS[axis]
    return [CompensationResult(currents_a={axis: float(i[t]) for axis, i in currents.items()},
                               fit_errors_a={axis: e[t] for axis, e in fit_errors.items()},
                               residual_g=b[t])
            for t in range(len(rngs))]


# ---------------------------------------------------------------------------
# field-dependence sweep
# ---------------------------------------------------------------------------

def bsweep(spec, b_values_g, direction, mode="perturbative"):
    """Transition frequencies versus field magnitude along ``direction``.

    Returns an (n, 5) array with one row per field magnitude: the magnitude
    (G), then the lowest and highest S0<->T+-1 and the lowest and highest
    S0<->T0 line frequencies (MHz) over all orientations, the c13 and static
    offset doublets included.  Every magnitude and orientation takes the
    level shifts of :func:`transitions_vs_field` in one evaluation (one
    batched diagonalization in exact mode).

    ``direction`` must be a unit vector.  Along the surface normal of a
    (001) sample all four defect orientations project equally
    (cos theta = 1/sqrt(3)), so their lines coincide.

    ``mode`` is that of :func:`transitions_vs_field`.  The perturbative
    mode expands each line through second order in B: the S0<->T+-1 pair
    splits linearly by +-delta_z/2 about a quadratic common shift, and
    S0<->T0 moves only quadratically.  For an orientation perpendicular to
    the field (delta_z = 0) the perturbative T+-1 lines stay degenerate
    where second-order theory splits them by 2|v|; use ``mode="exact"`` for
    such directions, which resolves that pair at any field direction.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-6:
        raise ValueError("direction must be a unit vector")
    b_values = np.asarray(b_values_g, dtype=float)
    t_plus, s0, t0, t_minus = np.moveaxis(
        _field_levels(b_values[:, None] * direction, spec, mode), -1, 0)
    st1 = np.stack([t_plus - s0, t_minus - s0], axis=-1)[..., None] + _line_offsets(spec, "st1")
    st0 = (t0 - s0)[..., None] + _line_offsets(spec, "st0")
    st1, st0 = st1.reshape(len(b_values), -1), st0.reshape(len(b_values), -1)
    return np.column_stack([b_values, st1.min(axis=-1), st1.max(axis=-1),
                            st0.min(axis=-1), st0.max(axis=-1)])
