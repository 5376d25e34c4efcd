"""zfepr: zero-field EPR spin dynamics simulator and analysis toolkit.

A sensor spin (NV-style S=1, optically read) interrogates a hyperfine-coupled
S=1/2, I=1/2 target at zero magnetic field.  The package reproduces the
interrogation protocols (DEER at any flip angle and with echo decay,
correlation Rabi/Ramsey), each one closed form on the simulator's inputs;
the exact noise average and moments of each transition's second-order
quasi-static noise shift (no linear part on the quiet S0<->T0); the
closed-form Ramsey record of a transition's lines (doublets included); and
the spectral fitting pipeline, with every closed form cross-checked against
brute-force density matrix evolution and its Monte Carlo noise average.
"""

from .constants import DIPOLAR_K_MHZ_NM3, GAMMA_E_MHZ_PER_G, NV_ZFS_MHZ
from .fields import (
    CenterFitError,
    CoilConfig,
    CompensationResult,
    NV_AXES,
    ScanPlan,
    ScanWindowError,
    bsweep,
    compensate_3axis,
    find_symmetric_centers,
    odmr_linewidth_model,
)
from .fitting import FitError, FitResult, GaussianPeak, fit_gaussians
from .hamiltonians import (
    DegenerateCrossingError,
    DipolarGeometry,
    FieldVector,
    NoiseDraw,
    P1_BOND_ORIENTATIONS,
    TargetSpec,
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
from .noise import (
    LinewidthStats,
    NoiseModel,
    ShiftMoments,
    linewidth_stats,
    sample_noise,
    shift_characteristic,
    shift_moments,
)
from .protocols import (
    SequenceError,
    corr_rabi,
    corr_ramsey_diff,
    corr_signal,
    correlation_rabi_sequence,
    correlation_ramsey_sequences,
    deer_sequence,
    deer_signal,
    monte_carlo_signal,
    simulate_alternative_correlation,
    simulate_sequence,
)
from .pulses import (
    DecayModel,
    Pulse,
    dephase,
    free,
    mw_2pi,
    mw_pi,
    readout,
    rf_st0,
    rf_st1,
    spinlock,
    spinlock_channel,
    u_st0,
    u_st1,
)
from .spectra import (
    FoldAmbiguityError,
    Spectrum,
    TimeSeries,
    dft_spectrum,
)

__version__ = "0.1.0"
