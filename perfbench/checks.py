"""Correctness checks computed apart from the program.

Nothing here imports ``zfepr``.  Every expected value comes from the
benchmark's own 4x4 hyperfine Hamiltonian, diagonalized with
``numpy.linalg.eigvalsh``, or from a closed form derived in a comment, so a
change that alters the program's seeded numbers but keeps the physics passes,
and a wrong answer fails.  Each ``check_*`` returns a list of messages, empty
when the output is acceptable.
"""

import math

import numpy as np

#: Electron gyromagnetic ratio, MHz per Gauss (bare electron spin).
GAMMA_E_MHZ_PER_G = 2.8025

#: FWHM of a Gaussian in units of its standard deviation.
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: The four N-C bond directions of a substitutional nitrogen in a (001)
#: frame: the tetrahedral [111]-type axes.
BOND_AXES = np.array([[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]]) / math.sqrt(3.0)

#: Compensation sensors (lab frame): A and B lie in the plane perpendicular to
#: X with opposite Y projections, C in the plane perpendicular to Y.
SENSOR_A = np.array([0.0, 2.0 / math.sqrt(6.0), 1.0 / math.sqrt(3.0)])
SENSOR_C = np.array([2.0 / math.sqrt(6.0), 0.0, 1.0 / math.sqrt(3.0)])

#: Standard errors allowed between the simulated Ramsey average and the
#: reference mean: at 6 sigma a Gaussian point strays past the bound about
#: once in 5e8, and a 30 s run checks about 500 points.
RAMSEY_Z = 6.0

#: Allowance (PL units) for the closed form's mean model error: within
#: 2.2e-4 of zero over 400 draws, against a signal amplitude of 0.5.
RAMSEY_BIAS_TOL = 1e-3

#: Draws per chunk of the Ramsey reference: (500, 4, 4) complex stacks are
#: 128 kB, so the reference stays far below the program's own memory and
#: the process's peak resident memory is the program's.
REFERENCE_CHUNK = 500

#: Line-position tolerance as a share of 1/dt: a line labelled one alias
#: fold off misses by 1/dt, 500 times the tolerance, while the benchmark's
#: fitted lines missed by at most 6.9e-5/dt over 200 lines.
LINE_TOL_FRAC = 2e-3

#: Relative tolerance of the S0<->T+-1 FWHM: the fitted widths were within
#: 0.24 % over 80 lines, and a width off by sqrt(2) (sigma for sigma/2, or
#: one axis of noise for two) misses by 41 %.
FWHM_REL_TOL = 0.02

#: Propagated standard deviations allowed for a compensation residual: the
#: largest of 960 residuals (40 operations, 2 runs, 4 trials, 3 axes) was
#: 3.5 sigma.
COMPENSATION_Z = 6.0

_SX = np.array([[0, 1], [1, 0]], dtype=complex) / 2
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
_SZ = np.array([[1, 0], [0, -1]], dtype=complex) / 2
_E2 = np.eye(2)


def hyperfine_levels(delta_mhz, a_perp, a_par):
    """Sorted eigenvalues (MHz) of A_perp(SxIx+SySy) + A_par SzIz + delta.S.

    ``delta_mhz`` is an (n, 3) array of electron Zeeman/noise terms.  At the
    small fields used here the order is S0 < T0 < (T-1, T+1): S0 sits at
    -A_par/4 - A_perp/2, T0 at -A_par/4 + A_perp/2 and the T+-1 pair at A_par/4.
    """
    h0 = (a_perp * (np.kron(_SX, _SX) + np.kron(_SY, _SY)) + a_par * np.kron(_SZ, _SZ))
    s = [np.kron(op, _E2) for op in (_SX, _SY, _SZ)]
    d = np.atleast_2d(np.asarray(delta_mhz, dtype=float))
    return np.linalg.eigvalsh(h0 + sum(d[:, j, None, None] * s[j] for j in range(3)))


# ---------------------------------------------------------------------------
# mc_ramsey: noise-averaged differential correlation Ramsey signal
# ---------------------------------------------------------------------------

def ramsey_per_draw(transition, t_us, delta_mhz, a_perp, a_par, coupling_mhz, tau_us):
    """Differential PL signal (signal minus reference) for each noise draw.

    Each interrogation block of length tau accumulates the dipolar phase
    2 pi C tau, giving the contrast 0.25 (1 - cos 2 pi C tau)^2; the PL
    difference is half of it.  During the locked window the target precesses
    at the exact transition frequency of its own noisy Hamiltonian: the T0-S0
    gap for S0<->T0, and the two T+-1 - S0 gaps with equal weight for
    S0<->T+-1.  Returns an (n_draws, n_times) array.
    """
    lv = hyperfine_levels(delta_mhz, a_perp, a_par)
    t = np.asarray(t_us, dtype=float)
    if transition == "st0":
        g = np.cos(2 * np.pi * np.outer(lv[:, 1] - lv[:, 0], t))
    elif transition == "st1":
        g = 0.5 * (np.cos(2 * np.pi * np.outer(lv[:, 2] - lv[:, 0], t))
                   + np.cos(2 * np.pi * np.outer(lv[:, 3] - lv[:, 0], t)))
    else:
        raise ValueError(f"unknown transition {transition!r}")
    contrast = 0.25 * (1.0 - math.cos(2 * math.pi * coupling_mhz * tau_us)) ** 2
    return 0.5 * contrast * g


def ramsey_reference(transition, t_us, sigma_mhz, n_ref, rng, **physics):
    """Mean and per-draw standard deviation of :func:`ramsey_per_draw` over
    ``n_ref`` isotropic Gaussian draws of width ``sigma_mhz``, accumulated in
    chunks of ``REFERENCE_CHUNK`` draws."""
    total = np.zeros(len(t_us))
    squares = np.zeros(len(t_us))
    for start in range(0, n_ref, REFERENCE_CHUNK):
        n = min(REFERENCE_CHUNK, n_ref - start)
        values = ramsey_per_draw(transition, t_us, sigma_mhz * rng.standard_normal((n, 3)),
                                 **physics)
        total += values.sum(axis=0)
        squares += (values ** 2).sum(axis=0)
    mean = total / n_ref
    return mean, np.sqrt(np.maximum(squares / n_ref - mean ** 2, 0.0))


def ramsey_model_scatter(sigma_mhz, a_perp, a_par, coupling_mhz, tau_us):
    """Bound on the per-draw RMS deviation of the simulated signal from
    :func:`ramsey_per_draw`.

    The RF pulses act on the noise-free S0, T0, T+-1 states, but transverse
    noise mixes T0 into T+-1 at an amplitude of order d_perp / g, with
    g = (A_par - A_perp)/2.  The resulting error is first order in d_perp / g
    and odd in the noise, so it averages to zero but scatters each draw.
    The bound is the PL amplitude times 2 <d_perp^2>^(1/2) / g; over 400 draws
    the largest RMS deviation seen was 0.6 of it.
    """
    contrast = 0.25 * (1.0 - math.cos(2 * math.pi * coupling_mhz * tau_us)) ** 2
    return 0.5 * contrast * 2.0 * math.sqrt(2.0) * sigma_mhz / (0.5 * (a_par - a_perp))


def check_ramsey(values, ref_mean, ref_std, n_draws, n_ref, scatter):
    """The simulated average must lie within ``RAMSEY_Z`` standard errors of
    the reference mean, plus ``RAMSEY_BIAS_TOL`` for the closed form's mean
    model error.  The standard error combines the
    per-draw spread of the reference and the model ``scatter`` over the
    program's ``n_draws`` with the reference's own over ``n_ref``."""
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(ref_mean):
        return [f"ramsey: {values.shape} points, expected {np.shape(ref_mean)}"]
    se = np.sqrt((ref_std ** 2 + scatter ** 2) / n_draws + ref_std ** 2 / n_ref)
    bound = RAMSEY_Z * se + RAMSEY_BIAS_TOL
    bad = np.nonzero(np.abs(values - ref_mean) > bound)[0]
    return [f"ramsey point {i}: {values[i]:.6f} vs expected {ref_mean[i]:.6f} "
            f"+- {bound[i]:.2e}" for i in bad]


# ---------------------------------------------------------------------------
# spectrum: unfolded line positions and the S0<->T+-1 linewidth
# ---------------------------------------------------------------------------

def st0_mean_shift(sigma_mhz, a_perp, a_par):
    """Mean S0<->T0 shift under isotropic Gaussian noise of width sigma.

    Second-order perturbation theory on the Hamiltonian above: a transverse
    field couples S0 to T+-1 (gap (A_par + A_perp)/2) and T0 to T+-1 (gap
    (A_par - A_perp)/2), an axial one couples S0 and T0 (gap A_perp).  The
    line moves by -A_perp d_perp^2/(A_par^2 - A_perp^2) + dz^2/(2 A_perp);
    averaging with <d_perp^2> = 2 sigma^2 and <dz^2> = sigma^2 gives this.
    """
    return sigma_mhz ** 2 * (1.0 / (2.0 * a_perp) - 2.0 * a_perp / (a_par ** 2 - a_perp ** 2))


def check_lines(peaks, expected_mhz, dt_us, fwhm_mhz=None):
    """One fitted peak per expected line, each within ``LINE_TOL_FRAC / dt``
    of its position, each with a positive amplitude, and each FWHM within
    ``FWHM_REL_TOL`` of ``fwhm_mhz`` when given.  ``peaks`` are dicts with ``center_mhz``,
    ``fwhm_mhz`` and ``amplitude``."""
    if len(peaks) != len(expected_mhz):
        return [f"{len(peaks)} peaks fitted, {len(expected_mhz)} lines expected"]
    errors = []
    tol = LINE_TOL_FRAC / dt_us
    found = sorted(peaks, key=lambda p: p["center_mhz"])
    for peak, want in zip(found, sorted(expected_mhz)):
        if not abs(peak["center_mhz"] - want) <= tol:
            errors.append(f"line at {peak['center_mhz']:.6f} MHz, expected {want:.6f} +- {tol:.2e}")
        if not peak["amplitude"] > 0:
            errors.append(f"line at {peak['center_mhz']:.6f} MHz has amplitude {peak['amplitude']:g}")
        if fwhm_mhz is not None and not abs(peak["fwhm_mhz"] / fwhm_mhz - 1.0) <= FWHM_REL_TOL:
            errors.append(f"FWHM {peak['fwhm_mhz']:.6f} MHz, expected {fwhm_mhz:.6f} "
                          f"within {FWHM_REL_TOL:.0%}")
    return errors


# ---------------------------------------------------------------------------
# fields: three-axis compensation and field sweeps
# ---------------------------------------------------------------------------

def compensation_sigmas(fit_errors_a, stability_a, coeff_g_per_a):
    """Standard deviation (G) of the residual on each axis, propagated through
    the Bz -> By -> Bx steps.

    Step (i) averages sensors A and B, whose Y projections cancel, so the Z
    residual is coeff * (center error + supply error).  Steps (ii) and (iii)
    null the projection on sensors A and C, which also see Bz: the Z residual
    enters the Y and X currents scaled by n_z/n_y of A and n_z/n_x of C.
    """
    var_z = coeff_g_per_a ** 2 * (fit_errors_a["Z"] ** 2 + stability_a ** 2)
    lever_y = SENSOR_A[2] / SENSOR_A[1]
    lever_x = SENSOR_C[2] / SENSOR_C[0]
    var_y = lever_y ** 2 * var_z + coeff_g_per_a ** 2 * (fit_errors_a["Y"] ** 2 + stability_a ** 2)
    var_x = lever_x ** 2 * var_z + coeff_g_per_a ** 2 * (fit_errors_a["X"] ** 2 + stability_a ** 2)
    return np.sqrt([var_x, var_y, var_z])


def check_compensation(residuals_g, fit_errors_a, stability_a, coeff_g_per_a):
    """Every trial's (x, y, z) residual within ``COMPENSATION_Z`` propagated
    sigmas."""
    bound = COMPENSATION_Z * compensation_sigmas(fit_errors_a, stability_a, coeff_g_per_a)
    errors = []
    for k, res in enumerate(np.atleast_2d(residuals_g)):
        for axis, r, b in zip("xyz", res, bound):
            if not abs(r) <= b:
                errors.append(f"trial {k}: residual_{axis} {r:+.3e} G beyond {b:.3e} G")
    return errors


def sweep_lines(b_values_g, direction, a_perp, a_par):
    """(f_st1_low, f_st1_high, f_st0_low, f_st0_high) in MHz per field value,
    taken over the four bond orientations from exact diagonalization."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    b = np.asarray(b_values_g, dtype=float)
    # in each bond's frame only the axial and transverse parts matter (the
    # hyperfine tensor is axial), so place the transverse part along x
    axial = GAMMA_E_MHZ_PER_G * np.outer(b, BOND_AXES @ direction)
    total = GAMMA_E_MHZ_PER_G * np.abs(b)[:, None] * np.ones(len(BOND_AXES))
    transverse = np.sqrt(np.maximum(total ** 2 - axial ** 2, 0.0))
    delta = np.stack([transverse, np.zeros_like(axial), axial], axis=-1).reshape(-1, 3)
    lv = hyperfine_levels(delta, a_perp, a_par).reshape(len(b), len(BOND_AXES), 4)
    st1 = lv[:, :, 2:] - lv[:, :, :1]
    st0 = lv[:, :, 1] - lv[:, :, 0]
    return np.column_stack([st1.min(axis=(1, 2)), st1.max(axis=(1, 2)),
                            st0.min(axis=1), st0.max(axis=1)])


def perturbative_bound(b_values_g, a_perp, a_par):
    """Third-order bound on a second-order line: ||V||^3 / g^2, with
    ||V|| = gamma_e B / 2 the norm of the Zeeman term and g = (A_par - A_perp)/2
    the smallest zero-field gap (T0 to T+-1)."""
    gap = 0.5 * (a_par - a_perp)
    return (0.5 * GAMMA_E_MHZ_PER_G * np.abs(np.asarray(b_values_g, float))) ** 3 / gap ** 2


def check_sweep(rows, expected, tol_mhz):
    """``rows`` and ``expected`` are (n, 4) line tables; ``tol_mhz`` a scalar
    or one tolerance per row."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape != expected.shape:
        return [f"sweep table {rows.shape}, expected {expected.shape}"]
    excess = np.abs(rows - expected) - np.reshape(tol_mhz, (-1, 1))
    return [f"sweep row {i} column {j}: {rows[i, j]:.9f} vs {expected[i, j]:.9f} MHz"
            for i, j in zip(*np.nonzero(excess > 0))]
