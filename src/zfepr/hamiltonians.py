"""Target, NV, coupling and noise Hamiltonians plus level-shift theory.

The target is a spin-1/2 electron hyperfine-coupled to a spin-1/2 nucleus.  At
zero field its spectrum is fixed by the two hyperfine constants; quasi-static
magnetic noise shifts the singlet-triplet levels linearly (T+-1) or
quadratically (S0, T0), which is the whole point of probing the S0<->T0
transition.  Level shifts are available both from second-order perturbation
theory and from exact diagonalization so one can always cross-check the other.

Basis orders are fixed globally: target (electron x nucleus) states are
``{|T+1>, |S0>, |T0>, |T-1>}``, its product basis is ``{up-up, up-dn, dn-up,
dn-dn}``, and the NV sensor's blocks run over ``m = +1, 0, -1``.  The
singlet-triplet operators are the bare ``S_j (x) I_2`` conjugated with the
basis transform, not typed in by hand, and are read-only shared constants.

The hyperfine tensor is axial about the defect's bond, so a static field acts
only through its component along the bond and its size across it: the joint
rotation exp(-i phi (S_z + I_z)) about the bond commutes with the hyperfine
term, turns the transverse field to any direction, and is diagonal in the
singlet-triplet basis.  Fields therefore need the bond axis alone.

Frequencies in/out of the shift and transition functions are ordinary MHz;
Hamiltonian matrices returned by the ``*_hamiltonian`` builders are angular
(rad/us).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import DIPOLAR_K_MHZ_NM3, GAMMA_E_MHZ_PER_G, NV_ZFS_MHZ, TWO_PI

__all__ = [
    "TargetSpec",
    "NoiseDraw",
    "DipolarGeometry",
    "FieldVector",
    "TransitionLines",
    "DegenerateCrossingError",
    "P1_BOND_ORIENTATIONS",
    "SX_HALF",
    "SY_HALF",
    "SZ_HALF",
    "ST_TRANSFORM",
    "SX_T",
    "SY_T",
    "SZ_T",
    "SZZ_T",
    "target_levels_mhz",
    "target_hamiltonian",
    "noise_hamiltonian",
    "level_shifts_perturbative",
    "level_shifts_exact",
    "st0_fluctuation",
    "dipolar_constant",
    "resolve_coupling",
    "joint_hamiltonian",
    "transitions_vs_field",
]


def _readonly(a):
    a.flags.writeable = False
    return a


#: Spin-1/2 operators of the bare electron or nucleus.
SX_HALF = _readonly(0.5 * np.array([[0, 1], [1, 0]], dtype=complex))
SY_HALF = _readonly(0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex))
SZ_HALF = _readonly(0.5 * np.array([[1, 0], [0, -1]], dtype=complex))

_R = 1.0 / math.sqrt(2.0)
#: Rows are <T+1|, <S0|, <T0|, <T-1| expressed in {up-up, up-dn, dn-up, dn-dn}.
ST_TRANSFORM = _readonly(np.array([[1, 0, 0, 0], [0, _R, -_R, 0], [0, _R, _R, 0],
                                   [0, 0, 0, 1]]))

#: Electron-spin operators S_j (x) I_2 in the singlet-triplet basis.
SX_T, SY_T, SZ_T = (
    _readonly(ST_TRANSFORM @ np.kron(s, np.eye(2, dtype=complex)) @ ST_TRANSFORM.T)
    for s in (SX_HALF, SY_HALF, SZ_HALF))
#: SZ_T without its S0<->T0 block: the secular part kept by the dipolar coupling.
SZZ_T = _readonly(np.diag(np.diag(SZ_T)).astype(complex))

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
        if self.a_par_mhz == self.a_perp_mhz:
            raise ValueError("a_par_mhz == a_perp_mhz leaves T0 and T+-1 degenerate at "
                             "zero field")
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
        return np.array([self.b_x, self.b_y, self.b_z], dtype=float)


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


def target_hamiltonian(spec):
    """Zero-field target Hamiltonian, diagonal in the ST basis, rad/us."""
    return TWO_PI * np.diag(target_levels_mhz(spec)).astype(complex)


def noise_hamiltonian(draw):
    """Magnetic-noise perturbation sum_j delta_j S_j in the ST basis, rad/us."""
    return TWO_PI * _noise_matrix_mhz(draw)


def _deltas(draw):
    """Noise triples (..., 3) in MHz from a :class:`NoiseDraw` or an array."""
    return draw.as_array() if isinstance(draw, NoiseDraw) else np.asarray(draw, float)


def _noise_matrix_mhz(draw):
    """sum_j delta_j S_j in MHz, shape (..., 4, 4) for (..., 3) triples."""
    d = _deltas(draw)[..., None, None]
    return d[..., 0, :, :] * SX_T + d[..., 1, :, :] * SY_T + d[..., 2, :, :] * SZ_T


def level_shifts_perturbative(draw, spec):
    """Second-order level shifts (T+1, S0, T0, T-1) in MHz.

    Complete through second order for every level.  Beyond the leading
    +-delta_z/2, the T+-1 pair picks up a common transverse shift and, being
    degenerate, an effective second-order coupling v through the S0/T0
    intermediate states; the pair splitting is the resummed
    sqrt((delta_z/2)^2 + v^2), signed to follow the delta_z branch.  Against
    exact diagonalization the residual is third order in the noise.  Warns
    when the noise is too large for perturbation theory to be trustworthy.

    ``draw`` is a :class:`NoiseDraw` or a (..., 3) array; returns (..., 4).
    """
    delta = _deltas(draw)
    if np.max(np.abs(delta)) > spec.a_perp_mhz / 10.0:
        warnings.warn("noise amplitude above a_perp/10; perturbative shifts degrade",
                      stacklevel=2)
    dx, dy, dz = np.moveaxis(delta, -1, 0)
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    dperp2 = dx * dx + dy * dy
    t_common = dperp2 * al / (2.0 * (al * al - ap * ap))
    v_pair = dperp2 * ap / (2.0 * (al * al - ap * ap))
    root = np.copysign(np.sqrt(0.25 * dz * dz + v_pair * v_pair), dz)
    return np.stack(
        [
            root + t_common,
            -dperp2 / (2.0 * (al + ap)) - dz * dz / (4.0 * ap),
            -dperp2 / (2.0 * (al - ap)) + dz * dz / (4.0 * ap),
            -root + t_common,
        ],
        axis=-1,
    )


def level_shifts_exact(draw, spec):
    """Level shifts (T+1, S0, T0, T-1) in MHz from exact diagonalization.

    Valid at any noise amplitude.  ``draw`` is a :class:`NoiseDraw` or a
    (..., 3) array; returns (..., 4) from one batched ``eigh``.  S0 and T0
    are non-degenerate and take the eigenvector they overlap most.  The two
    remaining eigenvalues belong to the T+-1 pair, which noise can mix 50/50:
    T+1 takes the upper one for delta_z >= 0 and the lower one for
    delta_z < 0, following its +delta_z/2 shift (at delta_z = 0 both labels
    give the same lines).  Raises :class:`DegenerateCrossingError` when S0 or
    T0 overlaps its best eigenvector by less than 0.5 in probability, or both
    pick the same one, i.e. the noise carries a level across S0 or T0.
    """
    delta = _deltas(draw)
    levels0 = target_levels_mhz(spec)
    vals, vecs = np.linalg.eigh(np.diag(levels0) + _noise_matrix_mhz(delta))
    overlaps = np.abs(vecs[..., 1:3, :]) ** 2
    cols = np.argmax(overlaps, axis=-1)
    if (np.take_along_axis(overlaps, cols[..., None], -1).min(initial=1.0) < 0.5 - 1e-9
            or np.any(cols[..., 0] == cols[..., 1])):
        raise DegenerateCrossingError(
            "level matching ambiguous: S0 or T0 overlaps its best eigenvector by less "
            "than 0.5, or both pick the same one")
    s0_t0 = np.take_along_axis(vals, cols, -1)
    rest = np.ones(vals.shape, bool)
    np.put_along_axis(rest, cols, False, -1)
    lo, hi = np.moveaxis(vals[rest].reshape(vals.shape[:-1] + (2,)), -1, 0)
    plus_low = np.signbit(delta[..., 2])
    t_plus, t_minus = np.where(plus_low, lo, hi), np.where(plus_low, hi, lo)
    return np.stack([t_plus, s0_t0[..., 0], s0_t0[..., 1], t_minus], axis=-1) - levels0


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


def _block_diag(blocks):
    """(..., 12, 12) block-diagonal matrix from sensor blocks (..., 3, 4, 4);
    a single block (..., 1, 4, 4) is repeated, which lifts a target operator."""
    out = np.zeros(blocks.shape[:-3] + (12, 12), dtype=complex)
    for k in range(3):
        out[..., 4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = blocks[..., k % blocks.shape[-3], :, :]
    return out


def _sensor_offsets_mhz(coupling):
    """The sensor's part of the joint Hamiltonian in each of its blocks
    m = +1, 0, -1: ``zfs*m^2 + C*m*szz``, shape (3, 4, 4), MHz."""
    c_mhz = resolve_coupling(coupling)
    szz = SZZ_T.diagonal().real
    return np.array([np.diag(NV_ZFS_MHZ * m * m + c_mhz * m * szz) for m in (1.0, 0.0, -1.0)])


def joint_hamiltonian(spec, coupling):
    """Joint NV+target Hamiltonian (12x12, rad/us) with secular coupling.

    ``coupling`` is either a coupling strength in MHz or a
    :class:`DipolarGeometry` from which one is derived.  Structure:
    ``zfs*(Sz_NV)^2 (x) I4 + I3 (x) H_target + C * Sz_NV (x) Szz``, block
    diagonal in the sensor's m = +1, 0, -1.
    """
    blocks = np.diag(target_levels_mhz(spec)) + _sensor_offsets_mhz(coupling)
    return TWO_PI * _block_diag(blocks)


def _line_offsets(spec, transition):
    """Offsets (MHz) of the equal-weight lines that one ``transition`` line
    splits into: the c13 doublet on S0<->T+-1, the static offset doublet on
    S0<->T0, or the line itself."""
    if transition == "st1":
        half = 0.5 * spec.c13_splitting_mhz
        return (-half, half) if spec.c13_splitting_mhz else (0.0,)
    return spec.st0_offset_doublet_mhz or (0.0,)


def _line(spec, transition, center):
    """(frequency, weight) pairs of one ``transition`` line at ``center`` MHz
    (see :func:`_line_offsets`); the weights sum to one."""
    offsets = _line_offsets(spec, transition)
    return tuple((center + o, 1.0 / len(offsets)) for o in offsets)


def _field_levels(b, spec, mode):
    """Levels (T+1, S0, T0, T-1) in MHz of every orientation under static
    fields ``b`` (..., 3) in Gauss; returns (..., orientations, 4).

    Every field and orientation goes through one shift evaluation, so exact
    mode diagonalizes them all in one batched ``eigh``.  See
    :func:`transitions_vs_field` for the modes.
    """
    if mode not in ("perturbative", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    axes = np.array([_direction(theta_e, phi_e) for theta_e, phi_e, _ in spec.orientations])
    b = np.asarray(b, dtype=float)[..., None, :]
    b_axial = (b @ axes.T)[..., 0, :]
    b_norm2 = (b @ np.swapaxes(b, -1, -2))[..., 0, :]
    b_across = np.sqrt(np.maximum(b_norm2 - b_axial * b_axial, 0.0))
    delta = GAMMA_E_MHZ_PER_G * np.stack([b_across, np.zeros_like(b_axial), b_axial], axis=-1)
    if mode == "perturbative":
        shifts = level_shifts_perturbative(delta, spec)
        common = 0.5 * (shifts[..., 0] + shifts[..., 3])
        shifts[..., 0] = common + 0.5 * delta[..., 2]
        shifts[..., 3] = common - 0.5 * delta[..., 2]
    else:
        shifts = level_shifts_exact(delta, spec)
    return target_levels_mhz(spec) + shifts


def transitions_vs_field(field, spec, mode="perturbative"):
    """Per-orientation transition lines under a static field.

    The field enters each orientation only through its component along the
    bond axis n and its size across it, delta = gamma_e * (|B x n|, 0, n.B)
    (exact for the axial hyperfine tensor; see the module docstring), and the
    level shifts are evaluated either perturbatively or by exact
    diagonalization.  The c13 doublet (ST+-1) and the static ST0 offset
    doublet are folded into the returned line lists.

    ``mode="perturbative"`` expands each transition frequency through second
    order in the field.  The effective T+-1 coupling v enters the pair
    splitting only at order v^2/delta_z, so the S0<->T+-1 lines sit at
    +-delta_z/2 about their common second-order shift; S0<->T0 takes the
    second-order shift of :func:`level_shifts_perturbative`, which warns when
    some orientation sees more than a_perp/10.  Limit: for an orientation
    perpendicular to the field (delta_z = 0) the T+-1 lines stay degenerate,
    while second-order theory splits them by 2|v|; use ``mode="exact"``
    there, which resolves that pair at any field direction.
    """
    levels = _field_levels(field.as_array(), spec, mode)
    out = []
    for (theta_e, phi_e, weight), (t_plus, s0, t0, t_minus) in zip(spec.orientations, levels):
        st1 = tuple((f, 0.5 * w) for center in (t_plus - s0, t_minus - s0)
                    for f, w in _line(spec, "st1", center))
        out.append(TransitionLines(theta_e=theta_e, phi_e=phi_e, weight=weight,
                                   st1=st1, st0=_line(spec, "st0", t0 - s0)))
    return out
