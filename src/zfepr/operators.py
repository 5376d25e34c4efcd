"""Dense spin operators, the singlet-triplet basis transform, and the
rotation into a defect's principal frame.

Basis orders are fixed globally:

* target (electron x nucleus, coupled basis): ``{|T+1>, |S0>, |T0>, |T-1>}``
* NV spin-1: ``{|+1>, |0>, |-1>}``

All matrices are plain complex ``numpy.ndarray`` values, marked read-only so
one operator set can be shared by every caller.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OperatorSet",
    "build_operator_set",
    "rotation_matrix",
    "unitarity_defect",
]

_SQRT2 = np.sqrt(2.0)


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def unitarity_defect(u):
    """max|U^dag U - I|, convenience for tests and validation."""
    u = np.asarray(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


@dataclass(frozen=True)
class OperatorSet:
    """Spin operator matrices shared by the whole package.

    ``sx_t/sy_t/sz_t`` are the target electron-spin operators rewritten in the
    singlet-triplet basis, ``szz_t`` is ``sz_t`` with the S0<->T0 off-diagonal
    block removed (the secular part that survives in the dipolar coupling).
    ``transform`` maps bare product-basis vectors to singlet-triplet ones.
    """

    sx_half: np.ndarray
    sy_half: np.ndarray
    sz_half: np.ndarray
    sx_one: np.ndarray
    sy_one: np.ndarray
    sz_one: np.ndarray
    transform: np.ndarray
    sx_t: np.ndarray
    sy_t: np.ndarray
    sz_t: np.ndarray
    szz_t: np.ndarray


def build_operator_set():
    """Construct every operator matrix used by the package.

    The singlet-triplet operators are obtained by conjugating the bare
    ``S_j (x) I_2`` operators with the basis transform, not typed in by hand;
    the printed forms are asserted in the test suite.
    """
    sx_half = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    sy_half = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz_half = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)

    sx_one = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
    sy_one = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
    sz_one = np.diag([1.0, 0.0, -1.0]).astype(complex)

    # rows are <T+1|, <S0|, <T0|, <T-1| expressed in {up-up, up-dn, dn-up, dn-dn}
    r = 1.0 / _SQRT2
    transform = np.array(
        [
            [1, 0, 0, 0],
            [0, r, -r, 0],
            [0, r, r, 0],
            [0, 0, 0, 1],
        ]
    )

    eye2 = np.eye(2, dtype=complex)
    sx_t = transform @ np.kron(sx_half, eye2) @ transform.T
    sy_t = transform @ np.kron(sy_half, eye2) @ transform.T
    sz_t = transform @ np.kron(sz_half, eye2) @ transform.T
    # drop the S0<->T0 block of sz_t; only the T+-1 diagonal survives
    szz_t = np.diag(np.diag(sz_t)).astype(complex)

    return OperatorSet(
        sx_half=_readonly(sx_half),
        sy_half=_readonly(sy_half),
        sz_half=_readonly(sz_half),
        sx_one=_readonly(sx_one),
        sy_one=_readonly(sy_one),
        sz_one=_readonly(sz_one),
        transform=_readonly(transform),
        sx_t=_readonly(sx_t),
        sy_t=_readonly(sy_t),
        sz_t=_readonly(sz_t),
        szz_t=_readonly(szz_t),
    )


def rotation_matrix(theta_e, phi_e):
    """Rotation taking principal-frame vectors into the NV frame.

    Equivalent to Rz(phi_e) @ Ry(theta_e); proper rotation with det = 1.
    """
    ct, st = np.cos(theta_e), np.sin(theta_e)
    cp, sp = np.cos(phi_e), np.sin(phi_e)
    return np.array(
        [
            [ct * cp, -sp, st * cp],
            [ct * sp, cp, st * sp],
            [-st, 0.0, ct],
        ]
    )

