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
from .fitting import FitError, levenberg_marquardt
from .hamiltonians import FieldVector, transitions_vs_field
from .spectra import write_csv

__all__ = [
    "CoilConfig",
    "ScanPlan",
    "OdmrScan",
    "CompensationResult",
    "CenterFitError",
    "BsweepPoint",
    "NV_AXES",
    "bsweep",
    "write_bsweep_csv",
    "odmr_linewidth_model",
    "find_symmetric_center",
    "simulate_odmr_scan",
    "compensate_3axis",
    "format_compensation_report",
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
    leaves the scan range.
    """
    currents = scan.currents_a
    widths = scan.linewidths_mhz
    if len(currents) < 7:
        raise ValueError("need at least 7 scan points")
    # the squared model is a parabola in I: its least-squares vertex brackets
    # the minimum and seeds the fit, using every point rather than the
    # noisiest one
    a2, a1, a0 = np.polyfit(currents, widths**2, 2)
    i0 = -a1 / (2.0 * a2) if a2 > 0 else math.nan
    if not currents[0] < i0 < currents[-1]:
        raise ValueError("linewidth minimum not bracketed by the scan")
    base2 = a0 - a2 * i0 * i0
    base = math.sqrt(base2) if base2 > 0 else float(widths.min())
    p0 = np.array([base, math.sqrt(a2), i0])

    def fun(params):
        b, k, c = params
        x = currents - c
        w = np.sqrt(b * b + (k * x) ** 2)
        jac = np.column_stack([b / w, k * x * x / w, -k * k * x / w])
        return w - widths, jac

    res = levenberg_marquardt(fun, p0)
    if not res.converged:
        raise CenterFitError(
            f"linewidth fit did not converge in {res.iterations} iterations")
    i0 = float(res.params[2])
    se = float(np.sqrt(max(res.covariance[2, 2], 0.0)))
    if not currents[0] <= i0 <= currents[-1]:
        raise CenterFitError("fitted center outside the scan range")
    return i0, se


def simulate_odmr_scan(nv_axis, coil_axis, total_field, coil, plan, rng, center_a=0.0):
    """Synthesize one linewidth-vs-current scan for a sensor axis.

    ``total_field`` is the field present before this coil is energized; the
    extracted linewidths carry Gaussian jitter of ``jitter_frac * base``.
    ``center_a`` recenters the scan window (used for the refinement pass).
    """
    n = np.asarray(nv_axis, dtype=float)
    axis_vec = _AXIS_VECTORS[coil_axis]
    proj = float(n @ axis_vec)
    axial0 = float(n @ np.asarray(total_field, dtype=float))
    currents = plan.currents(center_a)
    axial = axial0 + proj * coil.coefficient_g_per_a * currents
    widths = np.sqrt(plan.base_width_mhz**2 + (2.0 * GAMMA_E_MHZ_PER_G * axial) ** 2)
    widths = widths + plan.jitter_frac * plan.base_width_mhz * rng.standard_normal(len(currents))
    return OdmrScan(currents_a=currents, linewidths_mhz=widths, nv_orientation=n)


@dataclass(frozen=True)
class CompensationResult:
    """Outcome of the three-step procedure: the delivered coil current and
    the standard error of its fitted center per axis "X", "Y", "Z" (A), and
    the residual field (x, y, z) left after compensation (G)."""

    currents_a: dict
    fit_errors_a: dict
    residual_g: np.ndarray


def compensate_3axis(true_field, coil, plan=ScanPlan(), seed=0):
    """Simulate the full Bz -> By -> Bx compensation of a :class:`FieldVector`.

    Step (i) sweeps the Z coil with sensors A and B and averages the two
    symmetric centers, which cancels their equal-and-opposite Y projections.
    Steps (ii)/(iii) sweep Y with sensor A (insensitive to Bx) and X with
    sensor C.  Each applied current is the fitted center plus a
    supply-stability error, so the per-axis residual is of order
    stability * coefficient.
    """
    rng = np.random.default_rng(seed)
    b = true_field.as_array()
    currents, fit_errors = {}, {}

    def measure(nv_name, axis):
        # two passes: the fit is unbiased at any window position, but a
        # null near the window edge leaves one arm short and the center
        # poorly pinned; a window centered on the first estimate restores
        # the precision
        scan = simulate_odmr_scan(NV_AXES[nv_name], axis, b, coil, plan, rng)
        coarse, _ = find_symmetric_center(scan)
        scan = simulate_odmr_scan(NV_AXES[nv_name], axis, b, coil, plan, rng,
                                  center_a=coarse)
        return find_symmetric_center(scan)

    for axis, sensors in (("Z", "AB"), ("Y", "A"), ("X", "C")):
        centers, errors = zip(*(measure(name, axis) for name in sensors))
        fit_errors[axis] = math.hypot(*errors) / len(sensors)
        currents[axis] = (sum(centers) / len(sensors)
                          + coil.current_stability_a * rng.standard_normal())
        b = b + coil.coefficient_g_per_a * currents[axis] * _AXIS_VECTORS[axis]
    return CompensationResult(currents_a=currents, fit_errors_a=fit_errors, residual_g=b)


def format_compensation_report(result):
    lines = ["# three-axis compensation"]
    for axis in ("Z", "Y", "X"):
        lines.append(
            f"axis {axis}: current_A = {result.currents_a[axis]:+.6f}"
            f" ; fit_error_A = {result.fit_errors_a[axis]:.6f}"
        )
    rx, ry, rz = result.residual_g
    lines.append(f"residual_G = ({rx:+.6f}, {ry:+.6f}, {rz:+.6f})")
    lines.append(f"residual_abs_G = {np.abs(result.residual_g).max():.6f} (max axis)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# field-dependence sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BsweepPoint:
    """The lowest and highest S0<->T+-1 and S0<->T0 line frequencies (MHz)
    over all orientations at one field magnitude ``b_g`` (G)."""

    b_g: float
    f_st1_low: float
    f_st1_high: float
    f_st0_low: float
    f_st0_high: float


def bsweep(spec, b_values_g, direction, mode="perturbative"):
    """Transition frequencies versus field magnitude along ``direction``.

    ``direction`` must be a unit vector.  Along the surface normal of a
    (001) sample all four defect orientations project equally
    (cos theta = 1/sqrt(3)), so their lines coincide.

    ``mode`` is passed to :func:`transitions_vs_field`.  The perturbative
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
    points = []
    for b in np.asarray(b_values_g, dtype=float):
        lines = transitions_vs_field(FieldVector(*(b * direction)), spec, mode=mode)
        f1 = [f for orientation in lines for f, _ in orientation.st1]
        f0 = [f for orientation in lines for f, _ in orientation.st0]
        points.append(BsweepPoint(
            b_g=float(b),
            f_st1_low=min(f1), f_st1_high=max(f1),
            f_st0_low=min(f0), f_st0_high=max(f0),
        ))
    return points


def write_bsweep_csv(points, path, plot_data=False):
    """CSV columns: B_Gauss, f_ST1_low, f_ST1_high, f_ST0_low, f_ST0_high."""
    rows = [(p.b_g, p.f_st1_low, p.f_st1_high, p.f_st0_low, p.f_st0_high) for p in points]
    write_csv(path, ("B_Gauss", "f_ST1_low", "f_ST1_high", "f_ST0_low", "f_ST0_high"),
              list(zip(*rows)), plot_data)
