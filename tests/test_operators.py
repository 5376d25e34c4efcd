import numpy as np
import pytest

from zfepr.hamiltonians import (
    ST_TRANSFORM,
    SX_HALF,
    SX_T,
    SY_HALF,
    SY_T,
    SZ_HALF,
    SZ_T,
    SZZ_T,
)

SQRT2 = np.sqrt(2.0)

# Pauli matrices, the oracle for the package's spin-1/2 operators
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# printed singlet-triplet operator matrices, basis {T+1, S0, T0, T-1}
PRINTED_SX_T = np.array(
    [[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=complex
) / (2 * SQRT2)
PRINTED_SY_T = np.array(
    [[0, 1j, -1j, 0], [-1j, 0, 0, -1j], [1j, 0, 0, -1j], [0, 1j, 1j, 0]], dtype=complex
) / (2 * SQRT2)
PRINTED_SZ_T = 0.5 * np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
)


def test_st_operators_match_printed_matrices():
    assert np.abs(SX_T - PRINTED_SX_T).max() < 1e-14
    assert np.abs(SY_T - PRINTED_SY_T).max() < 1e-14
    assert np.abs(SZ_T - PRINTED_SZ_T).max() < 1e-14


def test_szz_is_sz_with_coherence_block_removed():
    expected = SZ_T.copy()
    expected[1, 2] = expected[2, 1] = 0.0
    assert np.abs(SZZ_T - expected).max() < 1e-14
    assert np.abs(np.diag(SZZ_T) - [0.5, 0, 0, -0.5]).max() < 1e-15


def test_transform_is_orthogonal():
    t = ST_TRANSFORM
    assert np.abs(t @ t.T - np.eye(4)).max() < 1e-14
    assert np.abs(t @ np.linalg.inv(t) - np.eye(4)).max() < 1e-14


def test_transform_conjugation_against_kron_oracle():
    # independent construction: T (Sz x I2) T^-1 entry by entry
    bare = np.kron(0.5 * PAULI_Z, np.eye(2))
    oracle = ST_TRANSFORM @ bare @ np.linalg.inv(ST_TRANSFORM)
    assert np.abs(SZ_T - oracle).max() < 1e-14


@pytest.mark.parametrize(
    "sx, sy, sz",
    [
        (SX_HALF, SY_HALF, SZ_HALF),
        (SX_T, SY_T, SZ_T),
    ],
)
def test_commutation_relations(sx, sy, sz):
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-14


def test_st_operators_transform_back_to_product_form():
    tinv = np.linalg.inv(ST_TRANSFORM)
    eye2 = np.eye(2)
    for st_op, pauli in ((SX_T, PAULI_X), (SY_T, PAULI_Y)):
        assert np.abs(tinv @ st_op @ ST_TRANSFORM - np.kron(0.5 * pauli, eye2)).max() < 1e-14


def test_spin_half_operators_are_half_the_pauli_matrices():
    for half, pauli in ((SX_HALF, PAULI_X), (SY_HALF, PAULI_Y), (SZ_HALF, PAULI_Z)):
        assert np.array_equal(half, 0.5 * pauli)


def test_operator_constants_are_read_only():
    for op in (SX_HALF, SY_HALF, SZ_HALF, ST_TRANSFORM, SX_T, SY_T, SZ_T, SZZ_T):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0
