import numpy as np
import pytest

from zfepr.operators import build_operator_set, rotation_matrix

OPS = build_operator_set()
SQRT2 = np.sqrt(2.0)


# printed singlet-triplet operator matrices, basis {T+1, S0, T0, T-1}
SX_T = np.array(
    [[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=complex
) / (2 * SQRT2)
SY_T = np.array(
    [[0, 1j, -1j, 0], [-1j, 0, 0, -1j], [1j, 0, 0, -1j], [0, 1j, 1j, 0]], dtype=complex
) / (2 * SQRT2)
SZ_T = 0.5 * np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
)


def test_st_operators_match_printed_matrices():
    assert np.abs(OPS.sx_t - SX_T).max() < 1e-14
    assert np.abs(OPS.sy_t - SY_T).max() < 1e-14
    assert np.abs(OPS.sz_t - SZ_T).max() < 1e-14


def test_szz_is_sz_with_coherence_block_removed():
    expected = OPS.sz_t.copy()
    expected[1, 2] = expected[2, 1] = 0.0
    assert np.abs(OPS.szz_t - expected).max() < 1e-14
    assert np.abs(np.diag(OPS.szz_t) - [0.5, 0, 0, -0.5]).max() < 1e-15


def test_transform_is_orthogonal():
    t = OPS.transform
    assert np.abs(t @ t.T - np.eye(4)).max() < 1e-14
    assert np.abs(t @ np.linalg.inv(t) - np.eye(4)).max() < 1e-14


def test_transform_conjugation_against_kron_oracle():
    # independent construction: T (Sz x I2) T^-1 entry by entry
    sz_half = 0.5 * np.diag([1.0, -1.0]).astype(complex)
    bare = np.kron(sz_half, np.eye(2))
    oracle = OPS.transform @ bare @ np.linalg.inv(OPS.transform)
    assert np.abs(OPS.sz_t - oracle).max() < 1e-14


@pytest.mark.parametrize(
    "sx, sy, sz",
    [
        (OPS.sx_half, OPS.sy_half, OPS.sz_half),
        (OPS.sx_one, OPS.sy_one, OPS.sz_one),
        (OPS.sx_t, OPS.sy_t, OPS.sz_t),
    ],
)
def test_commutation_relations(sx, sy, sz):
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-14


def test_st_operators_transform_back_to_product_form():
    tinv = np.linalg.inv(OPS.transform)
    eye2 = np.eye(2)
    for st_op, half_op in ((OPS.sx_t, OPS.sx_half), (OPS.sy_t, OPS.sy_half)):
        assert np.abs(tinv @ st_op @ OPS.transform - np.kron(half_op, eye2)).max() < 1e-14


def test_rotation_matrix_identity_and_z_to_x():
    assert np.abs(rotation_matrix(0.0, 0.0) - np.eye(3)).max() < 1e-15
    r = rotation_matrix(np.pi / 2, 0.0)
    assert np.abs(r @ np.array([0, 0, 1.0]) - np.array([1.0, 0, 0])).max() < 1e-15


def test_rotation_matrix_is_proper(rng):
    for _ in range(100):
        r = rotation_matrix(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
