"""Pulse primitives: RF unitaries on the target, MW unitaries on the NV,
the spin-locking channel and photoluminescence readout.

Pulses are ideal and instantaneous; a finite-duration RF drive enters only
through its flip angle theta = Omega_x * t_RF.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecayModel",
    "Pulse",
    "mw_pi",
    "mw_2pi",
    "rf_st1",
    "rf_st0",
    "free",
    "spinlock",
    "dephase",
    "readout",
    "u_st1",
    "u_st0",
    "nv_pulse",
    "spinlock_channel",
    "readout_pl",
]

_SQRT2 = math.sqrt(2.0)

_PSI_PLUS = np.array([1.0, 0.0, 1.0], dtype=complex) / _SQRT2
_PSI_MINUS = np.array([1.0, 0.0, -1.0], dtype=complex) / _SQRT2
_KET0 = np.array([0.0, 1.0, 0.0], dtype=complex)
#: Columns are the dressed states |psi+>, |0>, |psi-> in the bare NV basis.
_DRESSED = np.column_stack((_PSI_PLUS, _KET0, _PSI_MINUS))

# pi pulse: |0> <-> |psi+> (up to -i), |psi-> untouched
_MW_PI = np.array(
    [
        [0.5, -1j / _SQRT2, -0.5],
        [-1j / _SQRT2, 0.0, -1j / _SQRT2],
        [-0.5, -1j / _SQRT2, 0.5],
    ],
    dtype=complex,
)
# 2pi pulse: swaps |+1> and |-1|, fixes |0>; reverses the interferometer phase
_MW_2PI = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


@dataclass(frozen=True)
class DecayModel:
    """NV decoherence parameters: echo time T2 with stretch exponent p, and
    the spin-locking relaxation time T1rho.  Infinities switch a channel off.
    """

    t2_nv_us: float = 16.0
    stretch_p: float = 2.0
    t1rho_us: float = 150.0

    def __post_init__(self):
        if not self.t2_nv_us > 0:
            raise ValueError("t2_nv_us must be positive")
        if not 1.0 <= self.stretch_p <= 3.0:
            raise ValueError("stretch exponent must be in [1, 3]")
        if not self.t1rho_us > 0:
            raise ValueError("t1rho_us must be positive")

    def echo_factor(self, tau_us):
        """Coherence envelope exp(-(tau/T2)^p) for one interrogation block."""
        if tau_us <= 0 or math.isinf(self.t2_nv_us):
            return 1.0
        return math.exp(-((tau_us / self.t2_nv_us) ** self.stretch_p))

    def lock_factor(self, t_us):
        """Locked-contrast envelope exp(-T/T1rho)."""
        if t_us <= 0 or math.isinf(self.t1rho_us):
            return 1.0
        return math.exp(-t_us / self.t1rho_us)


_KINDS = ("mw_pi", "mw_2pi", "rf_st1", "rf_st0", "free", "spinlock", "dephase", "readout")


@dataclass(frozen=True)
class Pulse:
    """One element of a pulse sequence.

    ``kind`` is one of mw_pi, mw_2pi, rf_st1, rf_st0, free, spinlock,
    dephase, readout.  ``value`` carries the flip angle (rad) or duration (us).
    ``frame`` applies to free evolution only: "joint" evolves sensor and
    target together, "target" evolves the target alone, which is how free
    gaps inside a spin-locking window behave (the drive decouples the NV).
    """

    kind: str
    value: float = 0.0
    frame: str = "joint"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.kind in ("free", "spinlock") and self.value < 0:
            raise ValueError(f"{self.kind} duration must be >= 0")
        if not math.isfinite(self.value):
            raise ValueError("pulse parameter must be finite")
        if self.frame not in ("joint", "target"):
            raise ValueError(f"unknown frame {self.frame!r}")


def mw_pi():
    return Pulse("mw_pi")


def mw_2pi():
    return Pulse("mw_2pi")


def rf_st1(theta):
    return Pulse("rf_st1", theta)


def rf_st0(theta):
    return Pulse("rf_st0", theta)


def free(tau_us, frame="joint"):
    return Pulse("free", tau_us, frame)


def spinlock(t_us):
    return Pulse("spinlock", t_us)


def dephase():
    """A wait without locking drive: the sensor loses every coherence between
    its energy levels |+1>, |0>, |-1>."""
    return Pulse("dephase")


def readout():
    return Pulse("readout")


def u_st1(theta):
    """S0 <-> T+-1 transition unitary for flip angle ``theta`` (4x4).

    theta = 2*pi exchanges T+1 and T-1 and flips the sign of S0, which is the
    decoupling pulse used inside interrogation blocks.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    i_s = 1j * s / _SQRT2
    return np.array(
        [
            [(1 + c) / 2, i_s, 0, (1 - c) / 2],
            [i_s, c, 0, -i_s],
            [0, 0, 1, 0],
            [(1 - c) / 2, -i_s, 0, (1 + c) / 2],
        ]
    )


def u_st0(theta):
    """S0 <-> T0 transition unitary for flip angle ``theta`` (4x4)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, 1],
        ]
    )


def nv_pulse(kind):
    """3x3 MW unitary: "mw_pi" maps |0> to (|+1>+|-1>)/sqrt(2) leaving the
    antisymmetric state alone; "mw_2pi" swaps |+1> and |-1> (phase reversal).
    """
    if kind == "mw_pi":
        return _MW_PI.copy()
    if kind == "mw_2pi":
        return _MW_2PI.copy()
    raise ValueError(f"unknown MW pulse kind {kind!r}")


def _require_density_matrix(rho, tol=1e-10):
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.abs(trace.real - 1.0).max() > 1e-9 or np.abs(trace.imag).max() > 1e-9:
        raise ValueError("density matrix must have unit trace")
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max() > tol:
        raise ValueError("density matrix must be Hermitian")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("density matrix must be positive semidefinite")


def _nv_dimension(rho):
    """d of a (..., 3d, 3d) NV (x) d-level matrix, 0 for any other shape."""
    d = rho.shape[-1] // 3 if rho.ndim >= 2 else 0
    return d if d and rho.shape[-2:] == (3 * d, 3 * d) else 0


@functools.lru_cache(maxsize=None)
def _dressed_change(d):
    """kron(D, I_d): columns are the dressed NV states (x) the d-level basis."""
    w = np.kron(_DRESSED, np.eye(d))
    w.flags.writeable = False
    return w


def spinlock_channel(rho, t_us, decay=None):
    """Spin-locking as its net effect: a dephasing channel in the dressed basis.

    Populations of |psi+>, |psi-> and |0> survive; every coherence between
    them is erased, and the psi+/psi- population imbalance (which stores the
    first interrogation phase) relaxes by exp(-T/T1rho).  Accepts a bare 3x3
    NV density matrix, which is validated, or a 3d x 3d joint one (NV factor
    first), each with any leading batch axes.
    """
    rho = np.asarray(rho, dtype=complex)
    d = _nv_dimension(rho)
    if not d:
        raise ValueError("density matrix dimension must be a multiple of 3")
    if d == 1:
        _require_density_matrix(rho)

    w = _dressed_change(d)
    dressed = (w.conj().T @ rho @ w).reshape(rho.shape[:-2] + (3, d, 3, d))
    plus, zero, minus = (dressed[..., k, :, k, :] for k in range(3))
    e = 1.0 if decay is None else decay.lock_factor(t_us)
    out = np.zeros_like(dressed)
    out[..., 0, :, 0, :] = 0.5 * (1 + e) * plus + 0.5 * (1 - e) * minus
    out[..., 1, :, 1, :] = zero
    out[..., 2, :, 2, :] = 0.5 * (1 - e) * plus + 0.5 * (1 + e) * minus
    return w @ out.reshape(rho.shape) @ w.conj().T


def readout_pl(rho_joint):
    """Photoluminescence observable: population of NV |0>, traced over the
    target.  Dimensionless in [0, 1]; an array over any leading batch axes."""
    rho = np.asarray(rho_joint)
    d = _nv_dimension(rho)
    if not d:
        raise ValueError("expected an NV (x) target density matrix")
    pl = np.trace(rho[..., d : 2 * d, d : 2 * d], axis1=-2, axis2=-1).real
    return float(pl) if pl.ndim == 0 else pl
