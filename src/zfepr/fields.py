"""Static-field dependence sweeps and residual-field compensation.

The compensation simulation mirrors the three-step lab procedure: the ODMR
linewidth of a sensor broadens symmetrically with the axial field, so
sweeping a coil current and locating the symmetric minimum of the linewidth
curve nulls one field projection.  Two sensors lying in the plane
perpendicular to X pin down Bz (their Y projections cancel on averaging) and
By; a third sensor perpendicular to Y fixes Bx.  What limits the residual is
the current stability of the supplies, not the fit.

One function fits the symmetric centers: :func:`find_symmetric_centers`
takes a stack of scans, fits them all at once, and reads a single scan as a
stack of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E_MHZ_PER_G
from .fitting import FitError, levenberg_marquardt_stack
from .hamiltonians import _require_finite, transitions_vs_field

__all__ = [
    "CoilConfig",
    "ScanPlan",
    "CompensationResult",
    "CenterFitError",
    "ScanWindowError",
    "NV_AXES",
    "bsweep",
    "odmr_linewidth_model",
    "find_symmetric_centers",
    "compensate_3axis",
]

_S6 = math.sqrt(6.0)
_S3 = math.sqrt(3.0)

#: Sensor axes used by the compensation procedure, lab frame.  A and B lie in
#: the plane perpendicular to X (opposite Y projections, equal Z projection);
#: C lies in the plane perpendicular to Y.  They are <111> axes in a frame
#: with x along [110] and z along [001]: turned by +45 deg about z, each lies
#: along +- one direction of
#: :data:`~zfepr.hamiltonians.P1_BOND_ORIENTATIONS`, whose x is along [100].
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
        _require_finite(self)
        if not self.coefficient_g_per_a > 0:
            raise ValueError("coil coefficient must be positive")
        if self.current_stability_a < 0:
            raise ValueError("current_stability_a must be >= 0")


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
        _require_finite(self)
        if not self.i_min_a < self.i_max_a:
            raise ValueError("scan range must be increasing")
        if self.n_points < 7:
            raise ValueError("need at least 7 scan points")
        if not self.base_width_mhz > 0:
            raise ValueError("base width must be positive")
        if self.jitter_frac < 0:
            raise ValueError("jitter_frac must be >= 0")

    def currents(self, center_a=0.0):
        return center_a + np.linspace(self.i_min_a, self.i_max_a, self.n_points)


class CenterFitError(FitError):
    """The linewidth fit failed numerically: no convergence, or a center
    outside the scanned window."""


class ScanWindowError(ValueError):
    """A scan's window does not bracket its linewidth minimum."""


def odmr_linewidth_model(i_a, center_i0_a, coil, base_width_mhz, nv_axis_projection):
    """Unresolved-splitting broadening: the two shifted lines of an axial
    field merge into one line of width
    sqrt(base^2 + (2 gamma_e proj coeff (I - I0))^2), symmetric about I0."""
    if not base_width_mhz > 0:
        raise ValueError("base width must be positive")
    split = 2.0 * GAMMA_E_MHZ_PER_G * nv_axis_projection * coil.coefficient_g_per_a
    return np.sqrt(base_width_mhz**2 + (split * (np.asarray(i_a, float) - center_i0_a)) ** 2)


def find_symmetric_centers(currents, widths):
    """Symmetric minima of linewidth-vs-current scans, all fitted at once.

    ``currents`` (A) and ``widths`` (MHz) are stacks (s, n) of s scans of
    n >= 7 points, each row of currents strictly increasing; a single scan
    is a stack of one.  Fits the exact broadening shape
    sqrt(base^2 + (k (I - I0))^2) of :func:`odmr_linewidth_model`, with
    base, slope k and I0 free, and returns I0 and its standard error, each
    (s,) in A.  Raises :class:`ScanWindowError`, naming the window and the
    parabola vertex of the squared widths, for the first scan whose window
    does not bracket its minimum (one on the scan edge is rejected), and
    :class:`CenterFitError` when a fit does not converge or its center
    leaves the scan range.
    """
    currents, widths = np.asarray(currents, dtype=float), np.asarray(widths, dtype=float)
    if currents.ndim != 2 or currents.shape != widths.shape:
        raise ValueError("currents and linewidths must be (scans, points) arrays of one shape")
    if not (currents[:, 1:] > currents[:, :-1]).all():
        raise ValueError("currents must be strictly increasing along each scan")
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
    outside = ~((currents[:, 0] < i0) & (i0 < currents[:, -1]))
    if outside.any():
        s = np.argmax(outside)
        near = (f"; the parabola through its squared widths puts the minimum at {i0[s]:.4g} A"
                if np.isfinite(i0[s]) else "")
        raise ScanWindowError("linewidth minimum not bracketed by the scan window "
                              f"[{currents[s, 0]:.4g}, {currents[s, -1]:.4g}] A{near}")
    base2 = c0 - c2 * vertex * vertex
    base = np.where(base2 > 0, np.sqrt(np.maximum(base2, 0.0)), widths.min(axis=-1))
    p0 = np.stack([base, np.sqrt(c2) / half, i0], axis=-1)

    def fun(params, rows):
        b, k, c = params.T[..., None]
        x = currents[rows] - c
        w = np.sqrt(b * b + (k * x) ** 2)
        jac = np.empty(x.shape + (3,))
        np.divide(b, w, out=jac[..., 0])
        np.divide(k * x * x, w, out=jac[..., 1])
        np.divide(-k * k * x, w, out=jac[..., 2])
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


@dataclass(frozen=True)
class CompensationResult:
    """Outcome of the three-step procedure for a stack of trials, one row
    per seed: per axis "X", "Y", "Z", the delivered coil currents and the
    standard errors of their fitted centers, each a (trials,) array (A), and
    the residual fields (x, y, z) left after compensation, (trials, 3) (G).
    A single trial is a stack of one."""

    currents_a: dict
    fit_errors_a: dict
    residual_g: np.ndarray


def compensate_3axis(true_field, coil, plan=ScanPlan(), seeds=(0,)):
    """Simulate the full Bz -> By -> Bx compensation of a :class:`FieldVector`,
    once per seed; returns one :class:`CompensationResult` whose arrays hold
    one trial per seed, in the order of ``seeds``.

    Step (i) sweeps the Z coil with sensors A and B and averages the two
    symmetric centers, which cancels their equal-and-opposite Y projections.
    Steps (ii)/(iii) sweep Y with sensor A (insensitive to Bx) and X with
    sensor C.  Each applied current is the fitted center plus a
    supply-stability error, so the per-axis residual is of order
    stability * coefficient.

    Each seed is anything :func:`numpy.random.default_rng` accepts, such as
    an integer or a :class:`numpy.random.SeedSequence`, and gives its trial
    its own generator.  The trials run in lockstep: at each axis step every
    trial's coarse scans are fitted as one stack by
    :func:`find_symmetric_centers`, then every fine scan.  A trial still
    draws in the order it would alone: for each sensor in turn the jitter of
    its coarse scan, then of its fine scan, and after the last sensor the
    supply error.  So a trial's result does not depend on the other trials,
    nor on how many there are.

    Raises :class:`ScanWindowError`, its message led by the axis step ("Z",
    "Y" or "X"), when a scan's window does not bracket that step's null.
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
            try:
                fit = find_symmetric_centers(scan_currents.reshape(-1, plan.n_points),
                                             widths.reshape(-1, plan.n_points))
            except ScanWindowError as exc:
                raise ScanWindowError(f"{axis} step: {exc}") from exc
            centers, errors = (a.reshape(centers.shape) for a in fit)
        fit_errors[axis] = np.array([math.hypot(*e) for e in errors]) / len(sensors)
        currents[axis] = (centers.sum(axis=-1) / len(sensors)
                          + coil.current_stability_a * supply)
        b = b + coil.coefficient_g_per_a * currents[axis][:, None] * _AXIS_VECTORS[axis]
    return CompensationResult(currents_a=currents, fit_errors_a=fit_errors, residual_g=b)


# ---------------------------------------------------------------------------
# field-dependence sweep
# ---------------------------------------------------------------------------

def bsweep(spec, b_values_g, direction, mode="perturbative"):
    """Transition frequencies versus field magnitude along ``direction``.

    Returns an (n, 5) array with one row per field magnitude: the magnitude
    (G), then the lowest and highest S0<->T+-1 and the lowest and highest
    S0<->T0 line frequencies (MHz) over all lines of
    :func:`transitions_vs_field`, whose ``mode`` this is, the c13 and static
    offset doublets included.

    ``direction`` must be a unit vector.  Along the surface normal of a
    (001) sample all four defect orientations project equally
    (cos theta = 1/sqrt(3)), so their lines coincide.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-6:
        raise ValueError("direction must be a unit vector")
    b_values = np.asarray(b_values_g, dtype=float)
    lines = transitions_vs_field(b_values[:, None] * direction, spec, mode)
    st1, st0 = (lines[tr][0].reshape(len(b_values), -1) for tr in ("st1", "st0"))
    return np.column_stack([b_values, st1.min(axis=-1), st1.max(axis=-1),
                            st0.min(axis=-1), st0.max(axis=-1)])
