"""solvstate: photon-added coherent states for exactly solvable Hamiltonians.

Builds Gazeau-Klauder (lowering-operator eigenstate) and Klauder-Perelomov
(displacement-type) coherent states over any nondegenerate increasing
spectrum with E_0 = 0, realizes the Poschl-Teller case in closed form, and
verifies normalizations, overlap kernels, resolution-of-identity moment
conditions and the SUSY factorization against independent brute-force
oracles.
"""

from .errors import ConvergenceError, DomainError
from .fockspace import (
    FockState,
    LadderRep,
    apply,
    build_ladder,
    displace_ground,
    displacement_path,
)
from .spectrum import (
    CustomSpectrum,
    HarmonicSpectrum,
    PoschlTellerSpectrum,
    RadiusEstimate,
    Spectrum,
    spectrum_from_json,
)
from .specfun import (
    IntegralResult,
    PfqResult,
    hyper_pfq,
    integrate,
    jacobi_poly,
    log_gamma,
    log_pochhammer,
)
from .states import (
    GKLabel,
    KPGeneralResult,
    KPLabel,
    PhotonStatistics,
    evolve,
    gk_norm_constant,
    gk_norm_constant_pt_closed,
    gk_overlap,
    gk_state,
    kp_norm_constant_pt,
    kp_overlap_pt,
    kp_state_general,
    kp_state_pt,
    photon_statistics,
)

__version__ = "0.1.0"
