"""zfepr: zero-field EPR spin dynamics simulator and analysis toolkit.

A sensor spin (NV-style S=1, optically read) interrogates a hyperfine-coupled
S=1/2, I=1/2 target at zero magnetic field.  The package reproduces the
interrogation protocols (DEER, correlation Rabi/Ramsey), the quasi-static
noise linewidth theory around the magnetically quiet singlet-triplet
transition, lineshape synthesis with the noise averaged in closed form, and
the spectral fitting pipeline, with every closed form cross-checked against
brute-force density matrix evolution and its Monte Carlo noise average.
"""

from .constants import DIPOLAR_K_MHZ_NM3, GAMMA_E_MHZ_PER_G, NV_ZFS_MHZ
from .fields import (
    BsweepPoint,
    CenterFitError,
    CoilConfig,
    CompensationResult,
    NV_AXES,
    OdmrScan,
    ScanPlan,
    bsweep,
    compensate_3axis,
    find_symmetric_center,
    odmr_linewidth_model,
    simulate_odmr_scan,
)
from .fitting import FitError, FitResult, GaussianPeak, fit_gaussians, format_fit_report
from .hamiltonians import (
    DegenerateCrossingError,
    DipolarGeometry,
    FieldVector,
    NoiseDraw,
    P1_BOND_ORIENTATIONS,
    TargetSpec,
    TransitionLines,
    dipolar_constant,
    joint_hamiltonian,
    level_shifts_exact,
    level_shifts_perturbative,
    noise_hamiltonian,
    resolve_coupling,
    st0_fluctuation,
    target_hamiltonian,
    target_levels_mhz,
    transitions_vs_field,
)
from .noise import (
    HistogramResult,
    LinewidthStats,
    NoiseModel,
    frequency_histogram,
    linewidth_stats,
    sample_noise,
    st0_characteristic,
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
    deer_signal_general,
    monte_carlo_signal,
    simulate_alternative_correlation,
    simulate_sequence,
    synthesize_ramsey_series,
)
from .pulses import (
    DecayModel,
    Pulse,
    dephase,
    free,
    mw_2pi,
    mw_pi,
    nv_pulse,
    readout,
    readout_pl,
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
    write_csv,
    write_spectrum_csv,
    write_timeseries_csv,
)

__version__ = "0.1.0"
