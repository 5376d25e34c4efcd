import math

import numpy as np
import pytest

from zfepr.constants import DIPOLAR_K_MHZ_NM3, GAMMA_E_MHZ_PER_G, TWO_PI
from zfepr.hamiltonians import (
    DegenerateCrossingError,
    DipolarGeometry,
    FieldVector,
    NoiseDraw,
    TargetSpec,
    _noise_limit_mhz,
    dipolar_constant,
    joint_hamiltonian,
    level_shifts_exact,
    level_shifts_perturbative,
    noise_hamiltonian,
    resolve_coupling,
    shift_coefficients,
    target_hamiltonian,
    target_levels_mhz,
    transitions_vs_field,
)

# spin-1/2 oracle matrices and the product -> singlet-triplet transform,
# typed in independently of the package
SX_HALF = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY_HALF = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ_HALF = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
_R = 1.0 / math.sqrt(2.0)
ST_ORACLE = np.array([[1, 0, 0, 0], [0, _R, -_R, 0], [0, _R, _R, 0], [0, 0, 0, 1]])


def test_transition_frequencies_default(spec):
    assert (spec.f_st0_mhz, spec.f_st1_mhz) == (114.0, 137.0)


def test_levels_match_closed_form(spec):
    assert np.abs(target_levels_mhz(spec) - [40.0, -97.0, 17.0, 40.0]).max() == 0.0


def test_zero_hyperfine_means_zero_matrix():
    with pytest.raises(ValueError):
        TargetSpec(a_perp_mhz=0.0, a_par_mhz=0.0)


def test_degenerate_hyperfine_constants_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        TargetSpec(a_perp_mhz=114.0, a_par_mhz=114.0)


def test_levels_against_bare_hamiltonian_diagonalization(spec):
    # build A_perp (SxIx + SyIy) + A_par SzIz in the product basis, transform
    # with T and diagonalize the bare form
    h_bare = (
        spec.a_perp_mhz * (np.kron(SX_HALF, SX_HALF) + np.kron(SY_HALF, SY_HALF))
        + spec.a_par_mhz * np.kron(SZ_HALF, SZ_HALF)
    )
    t = ST_ORACLE
    h_st = t @ h_bare @ np.linalg.inv(t)
    assert np.abs(h_st - np.diag(target_levels_mhz(spec))).max() < 1e-12
    vals = np.linalg.eigvalsh(h_bare)
    assert np.abs(np.sort(vals) - np.sort(target_levels_mhz(spec))).max() < 1e-12
    # every singlet-triplet basis state is an eigenvector
    ang = target_hamiltonian(spec)
    for k, level in enumerate(target_levels_mhz(spec)):
        vec = np.zeros(4)
        vec[k] = 1.0
        assert np.abs(ang @ vec - TWO_PI * level * vec).max() < 1e-12


def test_noise_hamiltonian_zero_and_pattern(spec):
    assert np.abs(noise_hamiltonian(NoiseDraw())).max() == 0.0
    h = noise_hamiltonian(NoiseDraw(0, 0, 2.0)) / TWO_PI
    expected = np.zeros((4, 4))
    expected[0, 0], expected[3, 3] = 1.0, -1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.abs(h - expected).max() < 1e-14


def test_noise_hamiltonian_hermitian(rng):
    for _ in range(100):
        h = noise_hamiltonian(NoiseDraw(*rng.standard_normal(3)))
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_perturbative_shift_examples(spec):
    shifts = level_shifts_perturbative(NoiseDraw(0, 0, 1.0), spec)
    assert abs(shifts[0] - 0.5) < 1e-15
    assert abs(shifts[3] + 0.5) < 1e-15
    assert abs(shifts[1] - (-1.0 / (4 * 114.0))) < 1e-15
    assert np.abs(level_shifts_perturbative(NoiseDraw(), spec)).max() == 0.0
    shifts = level_shifts_perturbative(NoiseDraw(1.0, 0, 0), spec)
    assert abs(shifts[1] - (-1.0 / (2 * 274.0))) < 1e-15
    assert abs(shifts[2] - (-1.0 / (2 * 46.0))) < 1e-15


def test_perturbative_warns_on_large_noise(spec):
    with pytest.warns(UserWarning):
        level_shifts_perturbative(NoiseDraw(0, 0, 20.0), spec)


def test_perturbative_warns_only_past_the_noise_limit(spec):
    # the limit the CLI refuses noise past, and the one the shifts warn past
    limit = _noise_limit_mhz(spec)
    assert limit == spec.a_perp_mhz / 10
    level_shifts_perturbative(NoiseDraw(0, 0, limit), spec)  # any warning fails
    with pytest.warns(UserWarning, match="a_perp/10"):
        level_shifts_perturbative(NoiseDraw(0, 0, np.nextafter(limit, np.inf)), spec)


def test_exact_shifts_trivial_and_small_noise(spec):
    assert np.abs(level_shifts_exact(NoiseDraw(), spec)).max() == 0.0
    err = np.abs(
        level_shifts_exact(NoiseDraw(0, 0, 1.0), spec)
        - level_shifts_perturbative(NoiseDraw(0, 0, 1.0), spec)
    ).max()
    assert err < 1e-3


def test_exact_shifts_strong_axial_noise(spec):
    # delta_z commutes with the T+-1 subspace: those shifts stay exactly
    # +-delta_z/2 while S0/T0 leave the quadratic approximation
    draw = NoiseDraw(0, 0, 50.0)
    exact = level_shifts_exact(draw, spec)
    assert abs(exact[0] - 25.0) < 1e-10
    assert abs(exact[3] + 25.0) < 1e-10
    root = 0.5 * (math.sqrt(114.0**2 + 50.0**2) - 114.0)
    assert abs(exact[1] + root) < 1e-10
    assert abs(exact[2] - root) < 1e-10
    with pytest.warns(UserWarning):
        pert = level_shifts_perturbative(draw, spec)
    assert abs(exact[1] - pert[1]) > 0.1


def test_exact_shifts_degenerate_crossing(spec):
    # delta_z = 0 mixes the T+-1 pair 50/50; the pair still resolves, to the
    # second-order shifts within their cubic residual
    draw = NoiseDraw(0.5, 0.2, 0.0)
    assert np.abs(level_shifts_exact(draw, spec)
                  - level_shifts_perturbative(draw, spec)).max() < 1e-6
    # strong axial noise carries T+1 across T0, which the transverse noise mixes
    with pytest.raises(DegenerateCrossingError, match="S0 or T0"):
        level_shifts_exact(NoiseDraw(5.0, -4.0, -39.5), spec)


def test_exact_shifts_batch_matches_single_draws(spec, rng):
    deltas = rng.normal(scale=3.0, size=(5, 4, 3))
    deltas[0, 0, 2] = 0.0
    batch = level_shifts_exact(deltas, spec)
    assert batch.shape == (5, 4, 4)
    for idx in np.ndindex(5, 4):
        assert np.array_equal(batch[idx], level_shifts_exact(NoiseDraw(*deltas[idx]), spec))


def test_axial_shift_antisymmetry_both_modes(spec):
    for dz in (0.3, 1.0, 5.0, 50.0):
        draw = NoiseDraw(0, 0, dz)
        exact = level_shifts_exact(draw, spec)
        assert exact[0] + exact[3] == pytest.approx(0.0, abs=1e-12)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pert = level_shifts_perturbative(draw, spec)
        assert pert[0] + pert[3] == 0.0


def test_perturbative_vs_exact_cubic_scaling(spec):
    direction = np.array([0.5, 0.35, 0.794])
    direction /= np.linalg.norm(direction)
    mags = np.geomspace(0.1, 3.0, 8)
    errs = []
    for m in mags:
        draw = NoiseDraw(*(m * direction))
        errs.append(
            np.abs(level_shifts_exact(draw, spec)
                   - level_shifts_perturbative(draw, spec)).max()
        )
    slope = np.polyfit(np.log(mags), np.log(errs), 1)[0]
    assert 2.8 <= slope <= 3.2


def test_transition_fluctuation_examples(spec):
    b, c = shift_coefficients(spec, "st0")
    assert np.array_equal(b, np.zeros(3))
    assert c[2] == pytest.approx(1.0 / 228.0, rel=1e-12)
    assert c[0] == c[1] == pytest.approx(-114.0 / 12604.0, rel=1e-12)
    b, c = shift_coefficients(spec, "st1")
    assert np.array_equal(b, [0.0, 0.0, 0.5])
    # T+1's transverse repulsion from S0 and T0 plus S0's from T+-1, and
    # S0's axial repulsion from T0
    q_perp = 160.0 / (2 * 12604.0) + 1.0 / 548.0
    assert c == pytest.approx([q_perp, q_perp, 1.0 / 456.0], rel=1e-12)
    with pytest.raises(ValueError, match="unknown transition 'st7'"):
        shift_coefficients(spec, "st7")


@pytest.mark.parametrize("shifts", [level_shifts_exact, level_shifts_perturbative])
def test_negative_zero_delta_z_labels_t_plus_as_positive_zero_does(spec, shifts):
    # -axes has delta_z = -0.0 on the transverse draws and 0.0 - axes has +0.0;
    # both must give T+1 the upper pair level
    axes = 1e-3 * np.eye(3)
    negated, subtracted = shifts(-axes, spec), shifts(0.0 - axes, spec)
    assert np.signbit((-axes)[:2, 2]).all()
    assert np.array_equal(negated, subtracted)
    assert (negated[:2, 0] >= negated[:2, 3]).all()


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_shift_coefficients_are_derivatives_of_the_exact_shifts(spec, eps):
    # central differences of the exactly diagonalized line shifts along each
    # noise axis: the slopes b and curvatures c of both transitions.  The
    # S0<->T+-1 curvature is read from the mean of the T+-1 pair, which the
    # pair's own coupling v, left out of c, splits but does not move.
    axes = eps * np.eye(3)
    plus, minus, zero = (level_shifts_exact(d, spec) for d in (axes, -axes, np.zeros(3)))
    for transition, upper, mean_of in (("st1", 0, [0, 3]), ("st0", 2, [2])):
        def line(shifts):
            return shifts[..., upper] - shifts[..., 1]

        def centered(shifts):
            return shifts[..., mean_of].mean(axis=-1) - shifts[..., 1]

        b, c = shift_coefficients(spec, transition)
        assert np.abs((line(plus) - line(minus)) / (2 * eps) - b).max() < 1e-10
        curvature = (centered(plus) + centered(minus) - 2 * centered(zero)) / (2 * eps**2)
        assert curvature == pytest.approx(c, rel=1e-4)


def test_shift_coefficients_and_perturbative_shifts_read_one_table(spec, rng):
    # the (b, c) of each transition and the second-order levels are one model:
    # S0<->T0 is T0 - S0, and S0<->T+-1 is T+1 - S0 without the pair's
    # coupling v, i.e. the pair's mean less S0 plus T+1's +delta_z/2
    deltas = rng.normal(scale=2.0, size=(200, 3))
    levels = level_shifts_perturbative(deltas, spec)
    expected = {"st1": 0.5 * (levels[:, 0] + levels[:, 3]) - levels[:, 1] + 0.5 * deltas[:, 2],
                "st0": levels[:, 2] - levels[:, 1]}
    for transition, want in expected.items():
        b, c = shift_coefficients(spec, transition)
        assert np.abs(deltas @ b + deltas**2 @ c - want).max() < 1e-12


def test_dipolar_prefactor_from_physical_constants():
    # CODATA oracle: mu0/(4 pi) * gamma_e^2 * hbar, converted to MHz nm^3
    mu0_over_4pi = 1e-7  # T^2 m^3 / J
    gamma_e = 1.76085963e11  # rad / s / T
    hbar = 1.054571817e-34  # J s
    k = mu0_over_4pi * gamma_e**2 * hbar / (2 * math.pi)  # Hz m^3
    k_mhz_nm3 = k * 1e27 / 1e6
    assert DIPOLAR_K_MHZ_NM3 == pytest.approx(k_mhz_nm3, rel=2e-4)


def test_dipolar_constant_examples():
    collinear = DipolarGeometry(r_nm=5.0)
    assert dipolar_constant(collinear) == pytest.approx(-2 * DIPOLAR_K_MHZ_NM3 / 125.0)
    assert dipolar_constant(collinear) == pytest.approx(-0.833, abs=2e-3)
    # cos(theta_e) = 3 cos(theta_r) cos(theta_r'): place r perpendicular to z
    # and tilt the axis so the angular factor cancels
    zero_geom = DipolarGeometry(r_nm=4.0, theta_r=math.pi / 2, phi_r=0.0,
                                theta_e=math.pi / 2, phi_e=math.pi / 2)
    assert dipolar_constant(zero_geom) == pytest.approx(0.0, abs=1e-12)
    near = DipolarGeometry(r_nm=5.0, theta_r=0.4, phi_r=0.2, theta_e=0.9, phi_e=1.0)
    far = DipolarGeometry(r_nm=10.0, theta_r=0.4, phi_r=0.2, theta_e=0.9, phi_e=1.0)
    assert dipolar_constant(far) / dipolar_constant(near) == pytest.approx(0.125, rel=1e-12)


def test_geometry_derived_angle_consistency():
    g = DipolarGeometry(r_nm=5.0, theta_r=0.7, phi_r=0.3, theta_e=1.1, phi_e=2.0)
    r_vec = np.array([math.sin(g.theta_r) * math.cos(g.phi_r),
                      math.sin(g.theta_r) * math.sin(g.phi_r), math.cos(g.theta_r)])
    e_vec = np.array([math.sin(g.theta_e) * math.cos(g.phi_e),
                      math.sin(g.theta_e) * math.sin(g.phi_e), math.cos(g.theta_e)])
    assert abs(math.cos(g.theta_r_prime) - float(r_vec @ e_vec)) < 1e-10
    with pytest.raises(ValueError):
        DipolarGeometry(r_nm=0.0)


@pytest.mark.parametrize("field, value", [("r_nm", math.inf), ("theta_r", math.nan)])
def test_geometry_rejects_values_that_are_not_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DipolarGeometry(**{"r_nm": 2.0, field: value})


def test_resolve_coupling_takes_strengths_and_geometries():
    g = DipolarGeometry(r_nm=5.0, theta_r=0.7, phi_r=0.3, theta_e=1.1, phi_e=2.0)
    assert resolve_coupling(0.25) == 0.25 and resolve_coupling(g) == dipolar_constant(g)


def test_joint_hamiltonian_structure(spec):
    h = joint_hamiltonian(spec, 0.0) / TWO_PI
    block = np.diag(target_levels_mhz(spec))
    for k, m2 in enumerate((1.0, 0.0, 1.0)):
        sl = slice(4 * k, 4 * k + 4)
        assert np.abs(h[sl, sl] - (block + 2870.0 * m2 * np.eye(4))).max() < 1e-9
    # m_s = 0 sector never feels the coupling
    h1 = joint_hamiltonian(spec, 0.42) / TWO_PI
    assert np.abs(h1[4:8, 4:8] - h[4:8, 4:8]).max() == 0.0


def test_joint_hamiltonian_deer_phase(spec):
    # sensor superposition against target T+1: the branch phases differ by
    # the full coupling phase 2 pi C tau
    c, tau = 0.37, 3.0
    h = joint_hamiltonian(spec, c)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * tau)) @ v.conj().T
    state = np.zeros(12, dtype=complex)
    state[0] = 1 / math.sqrt(2)   # |+1> (x) |T+1>
    state[8] = 1 / math.sqrt(2)   # |-1> (x) |T+1>
    out = u @ state
    rel_phase = np.angle(out[0] / out[8])
    assert math.cos(rel_phase) == pytest.approx(math.cos(TWO_PI * c * tau), abs=1e-9)


def _single_axis_spec():
    return TargetSpec(orientations=((0.0, 0.0, 1.0),))


def test_transitions_zero_field(spec):
    lines = transitions_vs_field(FieldVector().as_array(), spec)
    for transition, center in (("st1", 137.0), ("st0", 114.0)):
        freqs, weights = lines[transition]
        assert freqs.shape == weights.shape and len(freqs) == 4
        assert freqs == pytest.approx(center, abs=1e-12)


def test_transitions_axial_field_splitting():
    spec = _single_axis_spec()
    lines = transitions_vs_field(FieldVector(0, 0, 1.0).as_array(), spec)
    freqs = sorted(lines["st1"][0][0])
    half_split = 0.5 * (freqs[1] - freqs[0])
    assert half_split == pytest.approx(GAMMA_E_MHZ_PER_G / 2, abs=1e-9)
    assert half_split == pytest.approx(1.401, abs=1e-3)
    st0_shift = lines["st0"][0][0, 0] - 114.0
    assert st0_shift == pytest.approx(GAMMA_E_MHZ_PER_G**2 / (2 * 114.0), abs=1e-6)
    assert st0_shift == pytest.approx(0.0344, abs=2e-4)


def test_transitions_exact_vs_perturbative():
    spec = _single_axis_spec()
    field = FieldVector(0.3, 0.2, 1.0).as_array()
    pert = transitions_vs_field(field, spec, mode="perturbative")
    exact = transitions_vs_field(field, spec, mode="exact")
    for transition in ("st1", "st0"):
        assert np.abs(pert[transition][0] - exact[transition][0]).max() < 1e-3


def test_transitions_field_perpendicular_to_bond_axes(spec):
    # [110] is perpendicular to bonds 3 and 4: no axial field there, so the
    # T+-1 pair splits only at second order, by 2|v|
    b_g = 0.3
    field = b_g * np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    exact = transitions_vs_field(field, spec, mode="exact")["st1"][0]
    pert = transitions_vs_field(field, spec, mode="perturbative")["st1"][0]
    ap, al = spec.a_perp_mhz, spec.a_par_mhz
    v = (GAMMA_E_MHZ_PER_G * b_g) ** 2 * ap / (2.0 * (al * al - ap * ap))
    for k in (2, 3):
        f_plus, f_minus = exact[k]
        # the residual is fourth order in the field, 4e-4 of the split here
        assert abs(f_plus - f_minus) == pytest.approx(2.0 * v, rel=1e-3)
        f_plus, f_minus = pert[k]
        assert abs(f_plus - f_minus) < 1e-12


def test_transitions_need_only_the_bond_axis(rng):
    # oracle: rotate the full field into the defect frame, R = Rz(phi) Ry(theta),
    # and diagonalize there; the axial projection must give the same lines
    for _ in range(20):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        spec = TargetSpec(orientations=((theta, phi, 1.0),))
        b = rng.uniform(-1.0, 1.0, 3) * 1.5
        ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
        rot = np.array([[ct * cp, -sp, st * cp], [ct * sp, cp, st * sp], [-st, 0.0, ct]])
        t_plus, s0, t0, t_minus = (target_levels_mhz(spec)
                                   + level_shifts_exact(GAMMA_E_MHZ_PER_G * rot.T @ b, spec))
        lines = transitions_vs_field(b, spec, mode="exact")
        assert list(lines["st1"][0][0]) == pytest.approx([t_plus - s0, t_minus - s0],
                                                         abs=1e-11)
        assert lines["st0"][0][0, 0] == pytest.approx(t0 - s0, abs=1e-11)


@pytest.mark.parametrize("mode", ["perturbative", "exact"])
def test_transitions_of_no_fields_are_empty(mode):
    spec = TargetSpec(c13_splitting_mhz=0.4, st0_offset_doublet_mhz=(-0.03, 0.03))
    lines = transitions_vs_field(np.zeros((0, 3)), spec, mode)
    for transition, n_lines in (("st1", 4), ("st0", 2)):
        freqs, weights = lines[transition]
        assert freqs.shape == (0, 4, n_lines) and weights.shape == (4, n_lines)


def test_transitions_perturbative_warns_beyond_validity(spec):
    # 10 G along z puts about 16 MHz on each bond axis, above a_perp/10
    with pytest.warns(UserWarning, match="a_perp/10"):
        transitions_vs_field(FieldVector(0, 0, 10.0).as_array(), spec)


def test_transitions_parity_in_field():
    spec = _single_axis_spec()

    def lines(b):
        return transitions_vs_field(FieldVector(0.2, 0.1, b).as_array(), spec)

    def st0_shift(b):
        return lines(b)["st0"][0][0, 0] - 114.0

    def st1_split(b):
        freqs = sorted(lines(b)["st1"][0][0])
        return freqs[1] - freqs[0]

    assert st0_shift(0.8) == pytest.approx(st0_shift(-0.8), abs=1e-12)
    assert st1_split(0.8) == pytest.approx(st1_split(-0.8), abs=1e-12)


def test_transitions_line_structure_doublets():
    spec = TargetSpec(orientations=((0.0, 0.0, 1.0),),
                      c13_splitting_mhz=0.37,
                      st0_offset_doublet_mhz=(-0.0125, 0.0125))
    lines = transitions_vs_field(FieldVector().as_array(), spec)
    st1_freqs = sorted(lines["st1"][0][0])
    assert len(st1_freqs) == 4
    # at zero field the +- transitions coincide, leaving the c13 doublet
    distinct = sorted(set(round(f, 9) for f in st1_freqs))
    assert len(distinct) == 2
    assert distinct[1] - distinct[0] == pytest.approx(0.37, abs=1e-12)
    assert lines["st1"][1].sum() == pytest.approx(1.0)
    st0_freqs = sorted(lines["st0"][0][0])
    assert st0_freqs == pytest.approx([114.0 - 0.0125, 114.0 + 0.0125])
    with pytest.raises(ValueError):
        transitions_vs_field(FieldVector().as_array(), spec, mode="bogus")


def test_transitions_of_many_fields_are_each_fields_lines():
    # one call over a (2, 3, 3) grid of fields gives each field's own lines,
    # and the orientation occupation is folded into the weights
    spec = TargetSpec(orientations=((0.3, 0.1, 0.75), (2.0, 4.0, 0.25)),
                      c13_splitting_mhz=0.4, st0_offset_doublet_mhz=(-0.03, 0.05))
    fields = np.linspace(-1.0, 1.5, 18).reshape(2, 3, 3)
    grid = transitions_vs_field(fields, spec, mode="exact")
    for transition, n_lines in (("st1", 4), ("st0", 2)):
        freqs, weights = grid[transition]
        assert freqs.shape == (2, 3, 2, n_lines) and weights.shape == (2, n_lines)
        assert weights.sum(axis=-1) == pytest.approx([0.75, 0.25], abs=1e-15)
        for index in np.ndindex(2, 3):
            one = transitions_vs_field(fields[index], spec, mode="exact")[transition]
            assert np.array_equal(freqs[index], one[0])
            assert np.array_equal(weights, one[1])


def test_coincident_doublet_components_are_one_line():
    for doublet in ((0.03, 0.03), (-0.0, 0.0)):
        spec = TargetSpec(st0_offset_doublet_mhz=doublet)
        freqs, weights = transitions_vs_field(np.zeros(3), spec)["st0"]
        assert freqs.shape == weights.shape == (4, 1)
        assert freqs == pytest.approx(114.0 + doublet[0], abs=1e-12)
        assert weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("field, value", [
    ("a_perp_mhz", math.inf), ("a_par_mhz", math.nan), ("c13_splitting_mhz", math.nan),
    ("c13_splitting_mhz", -math.inf), ("st0_offset_doublet_mhz", (0.0, math.nan)),
    ("st0_offset_doublet_mhz", (math.inf, 0.0)), ("orientations", ((math.nan, 0.0, 1.0),)),
    ("orientations", ((0.0, math.inf, 1.0),)), ("orientations", ((0.0, 0.0, math.nan),)),
])
def test_target_rejects_values_that_are_not_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TargetSpec(**{field: value})


def test_field_vector_array_is_float():
    for field in (FieldVector(), FieldVector(0, 0, 0), FieldVector(1, 2, 3)):
        b = field.as_array()
        assert b.dtype == np.float64
    # so an in-place update keeps a fractional correction
    b = FieldVector(1, 2, 3).as_array()
    b += 0.25
    assert np.array_equal(b, [1.25, 2.25, 3.25])
