"""Pulse primitives: RF unitaries on the target, the MW unitaries on the NV
(:data:`MW_PI`, :data:`MW_2PI`), the spin-locking channel on joint NV (x)
target states, and photoluminescence readout.

Pulses are ideal and instantaneous; a finite-duration RF drive enters only
through its flip angle theta = Omega_x * t_RF.  The NV basis is
|+1>, |0>, |-1>.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import _readonly

__all__ = [
    "DecayModel",
    "Pulse",
    "MW_PI",
    "MW_2PI",
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
    "spinlock_channel",
]

_SQRT2 = math.sqrt(2.0)

#: The MW pi pulse, 3x3 and read-only: maps |0> to -i |psi+>, with
#: |psi+-> = (|+1> +- |-1>)/sqrt(2), and leaves |psi-> alone.
MW_PI = _readonly(np.array(
    [
        [0.5, -1j / _SQRT2, -0.5],
        [-1j / _SQRT2, 0.0, -1j / _SQRT2],
        [-0.5, -1j / _SQRT2, 0.5],
    ],
    dtype=complex,
))
#: The MW 2pi pulse, 3x3 and read-only: swaps |+1> and |-1> and fixes |0>,
#: which reverses the interferometer phase.
MW_2PI = _readonly(np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex))


@dataclass(frozen=True)
class DecayModel:
    """NV decoherence parameters: echo time T2 with stretch exponent p, and
    the spin-locking relaxation time T1rho.  Infinities switch a channel off.
    Each envelope is 1 at times <= 0 and takes a time (a float back) or an array."""

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
        """Coherence envelope exp(-(tau/T2)^p) of interrogation blocks of
        total free evolution ``tau_us``."""
        return _envelope((np.maximum(tau_us, 0.0) / self.t2_nv_us) ** self.stretch_p)

    def lock_factor(self, t_us):
        """Locked-contrast envelope exp(-T/T1rho) of locks ``t_us`` long."""
        return _envelope(np.maximum(t_us, 0.0) / self.t1rho_us)


def _envelope(x):
    """exp(-x): a float for a number, an array for an array."""
    return np.exp(-x) if np.ndim(x) else float(np.exp(-x))


_KINDS = frozenset(("mw_pi", "mw_2pi", "rf_st1", "rf_st0", "free", "spinlock", "dephase",
                    "readout"))


@dataclass(frozen=True, slots=True)
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
        if self.frame == "target" and self.kind != "free":
            raise ValueError(f"frame applies to free evolution only, not to {self.kind}")


#: One shared instance of each parameterless element; Pulse is frozen.
_SHARED = {kind: Pulse(kind) for kind in ("mw_pi", "mw_2pi", "dephase", "readout")}


def mw_pi():
    return _SHARED["mw_pi"]


def mw_2pi():
    return _SHARED["mw_2pi"]


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
    return _SHARED["dephase"]


def readout():
    return _SHARED["readout"]


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


def spinlock_channel(rho, t_us, decay=None, out=None):
    """Spin-locking as its net effect on joint NV (x) target matrices
    (..., 12, 12), NV factor first, written on their NV blocks m = +1, 0, -1
    (each a 4x4 block over the target).

    Both +-1 diagonal blocks become their mean, both +-1 cross blocks become
    e times their mean, with e = ``decay.lock_factor(t_us)`` (1 without
    decay); the m = 0 block is kept and every coherence with m = 0 is erased.
    This is the dressed-basis dephasing channel: the drive keeps the
    populations of |psi+-> = (|+1> +- |-1>)/sqrt(2) and |0> and erases every
    coherence between them, and the psi+/psi- population imbalance, which
    stores the first interrogation phase and is the +-1 cross block in the
    bare basis, relaxes by e.  The channel is linear and its own adjoint, so
    it maps observables as it maps states; ``rho`` is not written.  Any shape
    other than (..., 12, 12) raises ValueError.  The result is written into
    ``out``, a C-contiguous array of ``rho``'s shape other than ``rho``, when
    given.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (12, 12):
        raise ValueError("spinlock_channel takes joint NV (x) target matrices (..., 12, 12), "
                         f"not shape {rho.shape}")

    blocks = rho.reshape(rho.shape[:-2] + (3, 4, 3, 4))
    e = 1.0 if decay is None else decay.lock_factor(t_us)
    # block (a, b) of rho + S rho S, S swapping m = +1 and -1, is rho_ab +
    # rho_(2-a)(2-b); weighted 1/2 on the diagonal blocks, e/2 on the +-1
    # cross blocks and 0 on the rest, it gives the channel
    weights = np.array([[0.5, 0.0, 0.5 * e], [0.0, 0.5, 0.0], [0.5 * e, 0.0, 0.5]])
    summed = np.add(blocks, blocks[..., ::-1, :, ::-1, :],
                    out=None if out is None else out.reshape(blocks.shape))
    summed *= weights[:, None, :, None]
    return summed.reshape(rho.shape) if out is None else out
