import dataclasses
import math

import numpy as np
import pytest

from zfepr.pulses import (
    _KINDS,
    MW_2PI,
    MW_PI,
    DecayModel,
    Pulse,
    dephase,
    free,
    mw_2pi,
    mw_pi,
    readout,
    spinlock_channel,
    u_st0,
    u_st1,
)

SQRT2 = math.sqrt(2.0)


def unitarity_defect(u):
    """max|U^dag U - I|."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def _u_st1_printed(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    i_s = 1j * s / SQRT2
    return np.array(
        [
            [(1 + c) / 2, i_s, 0, (1 - c) / 2],
            [i_s, c, 0, -i_s],
            [0, 0, 1, 0],
            [(1 - c) / 2, -i_s, 0, (1 + c) / 2],
        ]
    )


def test_u_st1_printed_special_angles():
    assert np.abs(u_st1(0.0) - np.eye(4)).max() < 1e-15
    pi_printed = np.array(
        [
            [0.5, 1j / SQRT2, 0, 0.5],
            [1j / SQRT2, 0, 0, -1j / SQRT2],
            [0, 0, 1, 0],
            [0.5, -1j / SQRT2, 0, 0.5],
        ]
    )
    assert np.abs(u_st1(math.pi) - pi_printed).max() < 1e-12
    twopi_printed = np.array(
        [[0, 0, 0, 1], [0, -1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=complex
    )
    assert np.abs(u_st1(2 * math.pi) - twopi_printed).max() < 1e-12
    assert np.abs(u_st1(math.pi / 2) - _u_st1_printed(math.pi / 2)).max() < 1e-12


def test_u_st1_unitary_random(rng):
    for theta in rng.uniform(-4 * math.pi, 4 * math.pi, size=25):
        assert unitarity_defect(u_st1(theta)) < 1e-12


def test_u_st1_2pi_maps_table_states():
    u = u_st1(2 * math.pi)
    t_plus = np.array([1, 0, 0, 0], dtype=complex)
    s0 = np.array([0, 1, 0, 0], dtype=complex)
    t0 = np.array([0, 0, 1, 0], dtype=complex)
    t_minus = np.array([0, 0, 0, 1], dtype=complex)
    assert np.abs(u @ t_plus - t_minus).max() < 1e-14
    assert np.abs(u @ s0 + s0).max() < 1e-14
    assert np.abs(u @ t0 - t0).max() < 1e-14
    assert np.abs(u @ t_minus - t_plus).max() < 1e-14


def test_u_st0_special_angles():
    assert np.abs(u_st0(0.0) - np.eye(4)).max() < 1e-15
    assert np.abs(u_st0(2 * math.pi) - np.diag([1.0, -1.0, -1.0, 1.0])).max() < 1e-12
    theta = 1.234
    assert np.abs(u_st0(theta) @ u_st0(-theta) - np.eye(4)).max() < 1e-14
    assert unitarity_defect(u_st0(theta)) < 1e-14


def test_nv_pi_pulse_roundtrip():
    ket0 = np.array([0, 1, 0], dtype=complex)
    u = MW_PI
    once = u @ ket0
    psi_plus = np.array([1, 0, 1], dtype=complex) / SQRT2
    assert abs(abs(psi_plus.conj() @ once) - 1.0) < 1e-12
    twice = u @ once
    assert abs(abs(twice[1]) ** 2 - 1.0) < 1e-12
    psi_minus = np.array([1, 0, -1], dtype=complex) / SQRT2
    out = u @ psi_minus
    assert abs(abs(psi_minus.conj() @ out) - 1.0) < 1e-12


def test_nv_2pi_pulse_reverses_phase():
    phi = 0.7
    state = np.array([np.exp(1j * phi), 0, np.exp(-1j * phi)], dtype=complex) / SQRT2
    flipped = MW_2PI @ state
    expected = np.array([np.exp(-1j * phi), 0, np.exp(1j * phi)], dtype=complex) / SQRT2
    assert np.abs(flipped - expected).max() < 1e-14
    ket0 = np.array([0, 1, 0], dtype=complex)
    assert np.abs(MW_2PI @ ket0 - ket0).max() == 0.0


@pytest.mark.parametrize("u", [MW_PI, MW_2PI], ids=["MW_PI", "MW_2PI"])
def test_mw_pulses_are_read_only(u):
    assert u.shape == (3, 3) and not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def _psi(phi):
    plus = np.array([1, 0, 1], dtype=complex) / SQRT2
    minus = np.array([1, 0, -1], dtype=complex) / SQRT2
    return math.cos(phi) * plus + 1j * math.sin(phi) * minus


def _joint(rho_nv):
    """rho_NV (x) I4/4: an NV state with the target fully mixed."""
    return np.kron(rho_nv, np.eye(4) / 4)


def test_spinlock_preserves_locked_populations():
    plus = np.array([1, 0, 1], dtype=complex) / SQRT2
    rho = _joint(np.outer(plus, plus.conj()))
    out = spinlock_channel(rho, 25.0, None)
    assert np.abs(out - rho).max() < 1e-14


def test_spinlock_projects_superposition():
    phi = 0.6
    state = _psi(phi)
    out = spinlock_channel(_joint(np.outer(state, state.conj())), 5.0, None)
    plus = np.array([1, 0, 1], dtype=complex) / SQRT2
    minus = np.array([1, 0, -1], dtype=complex) / SQRT2
    expected = (math.cos(phi) ** 2 * np.outer(plus, plus.conj())
                + math.sin(phi) ** 2 * np.outer(minus, minus.conj()))
    assert np.abs(out - _joint(expected)).max() < 1e-14


def test_spinlock_trace_preserving_and_idempotent(rng):
    for _ in range(100):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        out = spinlock_channel(_joint(rho), 7.0, None)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12
        again = spinlock_channel(out, 7.0, None)
        assert np.abs(again - out).max() < 1e-12


def test_spinlock_relaxes_population_imbalance():
    plus = np.array([1, 0, 1], dtype=complex) / SQRT2
    minus = np.array([1, 0, -1], dtype=complex) / SQRT2
    rho = _joint(np.outer(plus, plus.conj()))
    decay = DecayModel(t1rho_us=150.0)
    out = spinlock_channel(rho, 150.0, decay)
    e = math.exp(-1.0)
    # the NV populations of psi+ and psi-, traced over the target
    p_plus = np.trace(np.kron(np.outer(plus, plus.conj()), np.eye(4)) @ out).real
    p_minus = np.trace(np.kron(np.outer(minus, minus.conj()), np.eye(4)) @ out).real
    assert p_plus - p_minus == pytest.approx(e, abs=1e-12)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_spinlock_rejects_invalid_density_matrix():
    # the channel takes joint NV (x) target matrices only; a bare NV one and
    # every other shape are named as such
    for shape in [(3, 3), (2, 3, 3), (6, 6), (12, 4), (4, 12), (12,), ()]:
        with pytest.raises(ValueError, match=r"\(\.\.\., 12, 12\)"):
            spinlock_channel(np.zeros(shape), 1.0, None)


def test_decay_model_validation():
    with pytest.raises(ValueError):
        DecayModel(t2_nv_us=-1.0)
    with pytest.raises(ValueError):
        DecayModel(stretch_p=0.5)
    with pytest.raises(ValueError):
        DecayModel(t1rho_us=0.0)
    d = DecayModel()
    assert (d.t2_nv_us, d.stretch_p, d.t1rho_us) == (16.0, 2.0, 150.0)
    assert d.echo_factor(16.0) == pytest.approx(math.exp(-1.0))
    assert DecayModel(t2_nv_us=math.inf).echo_factor(10.0) == 1.0


def test_decay_envelopes_take_arrays():
    d = DecayModel(stretch_p=1.7)
    times = np.array([[-1.0, 0.0, 3.0], [16.0, 150.0, 400.0]])
    for envelope in (d.echo_factor, d.lock_factor):
        # a number gives a Python float, which the simulator inserts as a step
        assert all(type(envelope(t)) is float for t in (3.0, 0, np.float64(2.0)))
        values = envelope(times)
        assert values.shape == times.shape
        assert values.tolist() == [[envelope(t) for t in row] for row in times.tolist()]
        assert values[0, 0] == values[0, 1] == 1.0
    assert d.lock_factor(150.0) == pytest.approx(math.exp(-1.0))
    off = DecayModel(t2_nv_us=math.inf, t1rho_us=math.inf)
    assert np.all(off.echo_factor(times) == 1.0) and np.all(off.lock_factor(times) == 1.0)


@pytest.mark.parametrize("kind", [k for k in sorted(_KINDS) if k != "free"])
def test_target_frame_is_for_free_evolution_only(kind):
    with pytest.raises(ValueError, match="frame applies to free evolution only"):
        Pulse(kind, 1.0, frame="target")
    assert Pulse(kind, 1.0).frame == "joint"


def test_pulse_element_validation():
    with pytest.raises(ValueError):
        free(-1.0)
    with pytest.raises(ValueError):
        Pulse("free", 1.0, frame="sideways")
    with pytest.raises(ValueError):
        Pulse("rf_st1", math.nan)
    with pytest.raises(ValueError):
        Pulse("bogus")


def test_parameterless_elements_are_shared_and_frozen():
    # the engine and the sequence builders share these instances
    for make in (mw_pi, mw_2pi, dephase, readout):
        assert make() is make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            make().value = 1.0


def test_pulse_has_slots_and_stays_frozen():
    # slots make the many pulses a sequence family builds cheap; the type,
    # its equality, its hash and its checks are those of the frozen dataclass
    p = Pulse("free", 1.0, frame="target")
    assert not hasattr(p, "__dict__") and dataclasses.is_dataclass(p)
    for name, value in (("kind", "rf_st1"), ("value", 2.0), ("frame", "joint")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    assert p == free(1.0, frame="target") and hash(p) == hash(free(1.0, frame="target"))
    assert p != free(1.0) and dataclasses.astuple(p) == ("free", 1.0, "target")


def test_spinlock_leaves_its_input_unwritten(rng):
    m = rng.standard_normal((4, 12, 12)) + 1j * rng.standard_normal((4, 12, 12))
    rho = m @ m.conj().swapaxes(-1, -2)
    before = rho.copy()
    spinlock_channel(rho, 40.0, DecayModel())
    assert rho.tobytes() == before.tobytes()
