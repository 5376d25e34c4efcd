"""Dense spin operators, the singlet-triplet basis transform, and small
Hermitian matrix kernels.

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
    "eigh_jacobi",
    "evolve_unitary",
    "require_hermitian",
    "unitarity_defect",
]

_SQRT2 = np.sqrt(2.0)


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def require_hermitian(m, tol=1e-12):
    """Raise ``ValueError`` unless ``max|M - M^dag|`` is below ``tol`` (scaled
    by the matrix magnitude for large entries)."""
    m = np.asarray(m)
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return m


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


def eigh_jacobi(matrix, tol=1e-13, max_sweeps=60):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Dependency-free diagonalization route used as the independent oracle
    against formula-based level shifts.  Converges when the off-diagonal
    Frobenius norm drops below ``tol`` relative to the matrix norm.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors in matching columns.
    """
    a = require_hermitian(matrix).astype(complex).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = max(float(np.linalg.norm(a)), 1.0)

    def offdiag_norm(m):
        off = m - np.diag(np.diag(m))
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if offdiag_norm(a) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # strip the phase of a_pq, then a standard real 2x2 rotation
                phase = apq / abs(apq)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s
                rot[q, p] = -s * np.conj(phase)
                rot[q, q] = c * np.conj(phase)
                a = rot.conj().T @ a @ rot
                v = v @ rot
    else:
        if offdiag_norm(a) > tol * scale:
            raise RuntimeError("Jacobi iteration did not converge")

    w = np.diag(a).real
    order = np.argsort(w)
    return w[order], v[:, order]


def evolve_unitary(hamiltonian, t):
    """U = exp(-i H t) for Hermitian ``hamiltonian`` in rad/us and ``t`` in us.

    Computed through the eigendecomposition, so the result is unitary to
    rounding even for long evolutions.  Non-Hermitian input is rejected.
    """
    h = require_hermitian(hamiltonian)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T
