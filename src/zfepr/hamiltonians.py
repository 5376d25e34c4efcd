"""Target, NV, coupling and noise Hamiltonians plus level-shift theory.

The target is a spin-1/2 electron hyperfine-coupled to a spin-1/2 nucleus.  At
zero field its spectrum is fixed by the two hyperfine constants; quasi-static
magnetic noise shifts the singlet-triplet levels linearly (T+-1) or
quadratically (S0, T0), which is the whole point of probing the S0<->T0
transition.  Level shifts are available both from second-order perturbation
theory and from exact diagonalization so one can always cross-check the other.

Frequencies in/out of the shift and transition functions are ordinary MHz;
Hamiltonian matrices returned by the ``*_hamiltonian`` builders are angular
(rad/us) ready for the time evolvers.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import DIPOLAR_K_MHZ_NM3, GAMMA_E_MHZ_PER_G, NV_ZFS_MHZ, mhz_to_angular
from .operators import build_operator_set, eigh_jacobi, rotation_matrix

__all__ = [
    "TargetSpec",
    "NoiseDraw",
    "DipolarGeometry",
    "FieldVector",
    "TransitionLines",
    "DegenerateCrossingError",
    "P1_BOND_ORIENTATIONS",
    "DEFAULT_OPS",
    "target_levels_mhz",
    "transition_frequencies",
    "target_hamiltonian",
    "noise_hamiltonian",
    "level_shifts_perturbative",
    "level_shifts_exact",
    "transition_fluctuations",
    "st0_fluctuation",
    "dipolar_constant",
    "resolve_coupling",
    "joint_hamiltonian",
    "transitions_vs_field",
]

#: Shared immutable operator set; cheap to build, safe to reuse everywhere.
DEFAULT_OPS = build_operator_set()

_ACOS_INV_SQRT3 = math.acos(1.0 / math.sqrt(3.0))

#: The four N-C bond directions of a substitutional nitrogen defect in a
#: (001)-surface frame (z vertical).  The defect axis hops between them, so
#: by default all four carry equal weight.
P1_BOND_ORIENTATIONS = (
    (_ACOS_INV_SQRT3, 0.25 * math.pi, 0.25),
    (_ACOS_INV_SQRT3, 1.25 * math.pi, 0.25),
    (math.pi - _ACOS_INV_SQRT3, 0.75 * math.pi, 0.25),
    (math.pi - _ACOS_INV_SQRT3, 1.75 * math.pi, 0.25),
)


class DegenerateCrossingError(RuntimeError):
    """Perturbed eigenvectors could not be matched to unperturbed levels."""


@dataclass(frozen=True)
class TargetSpec:
    """Hyperfine constants and phenomenological line structure of the target.

    ``orientations`` lists (theta, phi, weight) principal-axis directions in
    the NV/lab frame; weights must sum to one.  ``st0_offset_doublet_mhz``
    models the electric/strain splitting of the S0<->T0 line as a pair of
    static frequency offsets, and ``c13_splitting_mhz`` models one nearby
    spectator nuclear spin as a +-half-splitting doublet on the S0<->T+-1
    lines.  Both are empirical knobs, not derived quantities.
    """

    a_perp_mhz: float = 114.0
    a_par_mhz: float = 160.0
    orientations: tuple = P1_BOND_ORIENTATIONS
    st0_offset_doublet_mhz: tuple | None = None
    c13_splitting_mhz: float = 0.0

    def __post_init__(self):
        if not (self.a_perp_mhz > 0 and self.a_par_mhz > 0):
            raise ValueError("hyperfine constants must be positive")
        weights = [w for (_, _, w) in self.orientations]
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("orientation weights must be >= 0 and sum to 1")
        if self.st0_offset_doublet_mhz is not None and len(self.st0_offset_doublet_mhz) != 2:
            raise ValueError("st0_offset_doublet_mhz must be a pair of offsets")

    @property
    def f_st1_mhz(self):
        """S0 <-> T+-1 transition frequency at zero field."""
        return 0.5 * (self.a_par_mhz + self.a_perp_mhz)

    @property
    def f_st0_mhz(self):
        """S0 <-> T0 transition frequency at zero field."""
        return self.a_perp_mhz


@dataclass(frozen=True)
class NoiseDraw:
    """One quasi-static magnetic noise sample, delta_j = gamma_e * db_j, MHz."""

    delta_x: float = 0.0
    delta_y: float = 0.0
    delta_z: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.delta_x, self.delta_y, self.delta_z))):
            raise ValueError("noise components must be finite")

    def as_array(self):
        return np.array([self.delta_x, self.delta_y, self.delta_z])


def _direction(theta, phi):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


@dataclass(frozen=True)
class DipolarGeometry:
    """Sensor-target geometry in the NV frame.

    ``r_nm`` with (theta_r, phi_r) locate the target; (theta_e, phi_e) give
    its principal axis.  The angle between the separation vector and the
    principal axis is derived, never supplied.
    """

    r_nm: float
    theta_r: float = 0.0
    phi_r: float = 0.0
    theta_e: float = 0.0
    phi_e: float = 0.0

    def __post_init__(self):
        if not self.r_nm > 0:
            raise ValueError("separation must be positive")

    @property
    def theta_r_prime(self):
        cosang = float(np.dot(_direction(self.theta_r, self.phi_r),
                              _direction(self.theta_e, self.phi_e)))
        return math.acos(min(1.0, max(-1.0, cosang)))


@dataclass(frozen=True)
class FieldVector:
    """Static magnetic field in Gauss, lab/NV frame components."""

    b_x: float = 0.0
    b_y: float = 0.0
    b_z: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b_x, self.b_y, self.b_z))):
            raise ValueError("field components must be finite")

    def as_array(self):
        return np.array([self.b_x, self.b_y, self.b_z])


@dataclass(frozen=True)
class TransitionLines:
    """Spectral lines of one principal-axis orientation.

    ``st1``/``st0`` are tuples of (frequency_mhz, weight); weights sum to one
    within each transition family.  ``weight`` is the orientation occupation.
    """

    theta_e: float
    phi_e: float
    weight: float
    st1: tuple
    st0: tuple


def target_levels_mhz(spec):
    """Zero-field eigenvalues (T+1, S0, T0, T-1) in MHz."""
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    return np.array([al / 4, -al / 4 - ap / 2, -al / 4 + ap / 2, al / 4])


def transition_frequencies(spec):
    """(f_st0, f_st1) in MHz; 114 and 137 MHz for the default constants."""
    return spec.f_st0_mhz, spec.f_st1_mhz


def target_hamiltonian(spec):
    """Zero-field target Hamiltonian, diagonal in the ST basis, rad/us."""
    return mhz_to_angular(np.diag(target_levels_mhz(spec)).astype(complex))


def noise_hamiltonian(draw, ops=DEFAULT_OPS):
    """Magnetic-noise perturbation sum_j delta_j S_j in the ST basis, rad/us."""
    return mhz_to_angular(_noise_matrix_mhz(draw, ops))


def _noise_matrix_mhz(draw, ops=DEFAULT_OPS):
    return (draw.delta_x * ops.sx_t + draw.delta_y * ops.sy_t + draw.delta_z * ops.sz_t)


def level_shifts_perturbative(draw, spec):
    """Second-order level shifts (T+1, S0, T0, T-1) in MHz.

    Complete through second order for every level.  Beyond the leading
    +-delta_z/2, the T+-1 pair picks up a common transverse shift and, being
    degenerate, an effective second-order coupling v through the S0/T0
    intermediate states; the pair splitting is the resummed
    sqrt((delta_z/2)^2 + v^2), signed to follow the delta_z branch.  Against
    exact diagonalization the residual is third order in the noise.  Warns
    when the noise is too large for perturbation theory to be trustworthy.
    """
    delta = draw.as_array() if isinstance(draw, NoiseDraw) else np.asarray(draw, float)
    if np.max(np.abs(delta)) > spec.a_perp_mhz / 10.0:
        warnings.warn("noise amplitude above a_perp/10; perturbative shifts degrade",
                      stacklevel=2)
    dx, dy, dz = delta
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    dperp2 = dx * dx + dy * dy
    t_common = dperp2 * al / (2.0 * (al * al - ap * ap))
    v_pair = dperp2 * ap / (2.0 * (al * al - ap * ap))
    root = math.copysign(math.sqrt(0.25 * dz * dz + v_pair * v_pair), dz)
    return np.array(
        [
            root + t_common,
            -dperp2 / (2.0 * (al + ap)) - dz * dz / (4.0 * ap),
            -dperp2 / (2.0 * (al - ap)) + dz * dz / (4.0 * ap),
            -root + t_common,
        ]
    )


def level_shifts_exact(draw, spec, ops=DEFAULT_OPS):
    """Level shifts from exact diagonalization, matched by eigenvector overlap.

    Valid at any noise amplitude.  Raises :class:`DegenerateCrossingError`
    when a perturbed eigenvector overlaps its nearest unperturbed level by
    less than 0.5 in probability, i.e. the level assignment is ambiguous.
    """
    h = np.diag(target_levels_mhz(spec)).astype(complex) + _noise_matrix_mhz(draw, ops)
    vals, vecs = eigh_jacobi(h)
    assignment = {}
    for col in range(4):
        overlaps = np.abs(vecs[:, col]) ** 2
        row = int(np.argmax(overlaps))
        if overlaps[row] < 0.5 - 1e-9 or row in assignment:
            raise DegenerateCrossingError(
                "level matching ambiguous; noise mixes degenerate states")
        assignment[row] = vals[col]
    levels0 = target_levels_mhz(spec)
    return np.array([assignment[i] - levels0[i] for i in range(4)])


def transition_fluctuations(draw, spec):
    """Leading-order transition-frequency shifts in MHz.

    Returns ``((d_st1_plus, d_st1_minus), d_st0)``: the S0<->T+-1 lines move
    as +-delta_z/2 while the S0<->T0 line picks up only the quadratic form
    -a_perp*(dx^2+dy^2)/(a_par^2-a_perp^2) + dz^2/(2*a_perp).
    """
    delta = draw.as_array() if isinstance(draw, NoiseDraw) else np.asarray(draw, float)
    dx, dy, dz = delta
    d_st1 = 0.5 * dz
    d_st0 = st0_fluctuation(dx, dy, dz, spec)
    return (d_st1, -d_st1), float(d_st0)


def st0_fluctuation(dx, dy, dz, spec):
    """Vectorized S0<->T0 shift; accepts scalars or equal-shape arrays."""
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    return -ap * (dx * dx + dy * dy) / (al * al - ap * ap) + dz * dz / (2.0 * ap)


def dipolar_constant(geometry):
    """Secular dipolar coupling C in MHz for the given geometry.

    C = (K/r^3) * (cos(theta_e) - 3*cos(theta_r)*cos(theta_r')), with K the
    electron-electron prefactor in MHz nm^3.
    """
    g = geometry
    angular = math.cos(g.theta_e) - 3.0 * math.cos(g.theta_r) * math.cos(g.theta_r_prime)
    return DIPOLAR_K_MHZ_NM3 / g.r_nm**3 * angular


def resolve_coupling(coupling):
    """Coupling strength in MHz from a strength or a :class:`DipolarGeometry`."""
    if isinstance(coupling, DipolarGeometry):
        return dipolar_constant(coupling)
    return float(coupling)


def joint_hamiltonian(spec, coupling, zfs_mhz=NV_ZFS_MHZ, ops=DEFAULT_OPS):
    """Joint NV+target Hamiltonian (12x12, rad/us) with secular coupling.

    ``coupling`` is either a coupling strength in MHz or a
    :class:`DipolarGeometry` from which one is derived.  Structure:
    ``zfs*(Sz_NV)^2 (x) I4 + I3 (x) H_target + C * Sz_NV (x) Szz``.
    """
    c_mhz = resolve_coupling(coupling)
    eye3 = np.eye(3, dtype=complex)
    eye4 = np.eye(4, dtype=complex)
    h_mhz = (
        zfs_mhz * np.kron(ops.sz_one @ ops.sz_one, eye4)
        + np.kron(eye3, np.diag(target_levels_mhz(spec)).astype(complex))
        + c_mhz * np.kron(ops.sz_one, ops.szz_t)
    )
    return mhz_to_angular(h_mhz)


def _doublet(center, splitting):
    if splitting:
        return ((center - 0.5 * splitting, 0.5), (center + 0.5 * splitting, 0.5))
    return ((center, 1.0),)


def transitions_vs_field(field, spec, mode="perturbative"):
    """Per-orientation transition lines under a static field.

    The field is projected onto each principal axis (delta = gamma_e * R^T B)
    and the level shifts are evaluated either perturbatively or by exact
    diagonalization.  The c13 doublet (ST+-1) and the static ST0 offset
    doublet are folded into the returned line lists.

    ``mode="perturbative"`` expands each transition frequency through second
    order in the field.  The effective T+-1 coupling v enters the pair
    splitting only at order v^2/delta_z, so the S0<->T+-1 lines sit at
    +-delta_z/2 about their common second-order shift; S0<->T0 takes the
    second-order shift of :func:`level_shifts_perturbative`.  Limit: for an
    orientation perpendicular to the field (delta_z = 0) the T+-1 lines stay
    degenerate, while second-order theory splits them by 2|v|; use
    ``mode="exact"`` there.
    """
    if mode not in ("perturbative", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    b = field.as_array()
    levels0 = target_levels_mhz(spec)
    out = []
    for theta_e, phi_e, weight in spec.orientations:
        delta = GAMMA_E_MHZ_PER_G * (rotation_matrix(theta_e, phi_e).T @ b)
        draw = NoiseDraw(*delta)
        if mode == "perturbative":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                shifts = level_shifts_perturbative(draw, spec)
            common = 0.5 * (shifts[0] + shifts[3])
            shifts[0], shifts[3] = common + 0.5 * delta[2], common - 0.5 * delta[2]
        else:
            shifts = level_shifts_exact(draw, spec)
        levels = levels0 + shifts
        f_plus = levels[0] - levels[1]
        f_minus = levels[3] - levels[1]
        f_zero = levels[2] - levels[1]

        st1 = []
        for center, w in ((f_plus, 0.5), (f_minus, 0.5)):
            for f, wd in _doublet(center, spec.c13_splitting_mhz):
                st1.append((f, w * wd))
        if spec.st0_offset_doublet_mhz is None:
            st0 = [(f_zero, 1.0)]
        else:
            o1, o2 = spec.st0_offset_doublet_mhz
            st0 = [(f_zero + o1, 0.5), (f_zero + o2, 0.5)]
        out.append(TransitionLines(theta_e=theta_e, phi_e=phi_e, weight=weight,
                                   st1=tuple(st1), st0=tuple(st0)))
    return out
