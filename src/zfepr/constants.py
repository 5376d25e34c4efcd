"""Physical constants and unit conventions.

Unit policy: all public interfaces use ordinary frequencies in MHz, times in
microseconds, magnetic fields in Gauss and angles in radians.  Only
Hamiltonian matrices are angular (rad/us): the public ``*_hamiltonian``
builders and the density-matrix engine in ``protocols`` each multiply their
MHz matrices by ``TWO_PI``.
"""

import math

TWO_PI = 2.0 * math.pi

#: FWHM of a Gaussian in units of its standard deviation.
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: Electron gyromagnetic ratio, MHz per Gauss.  Used for both the NV and the
#: target electron spin (both are treated as bare electron spins).
GAMMA_E_MHZ_PER_G = 2.8025

#: NV ground-state zero-field splitting, MHz.
NV_ZFS_MHZ = 2870.0

#: Electron-electron dipolar prefactor mu0*gamma_e^2*hbar/(4*pi) expressed in
#: MHz*nm^3.  Computed once from CODATA values (mu0/4pi = 1e-7 T^2 m^3/J,
#: gamma_e = 1.760860e11 rad/s/T, hbar = 1.054572e-34 J s) and divided by 2*pi
#: to give an ordinary-frequency coupling.
DIPOLAR_K_MHZ_NM3 = 52.041

