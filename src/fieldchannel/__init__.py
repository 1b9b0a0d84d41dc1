"""Field-mediated qubit channel: encode, propagate, decode, quantify."""

from .channel import (
    BobSpec,
    ChannelConfig,
    ChannelResult,
    base_amplitudes,
    broadcast_sweep,
    capacity_sweep,
    coherent_info_of,
    rho_cb,
)
from .errors import (
    BadParameter,
    DimensionMismatch,
    FieldChannelError,
    InvalidState,
    NotHermitian,
    QuadratureFailure,
)
from .observables import (
    ConditionReport,
    SpectralAmplitude,
    check_conditions,
    commutator_constant,
    gamma_rule_lambda_pi,
    momentum_amplitude,
    overlap_W,
    wick_expectation,
)
from .propagation import (
    bob_profile_2d_fb1,
    bob_profiles_2d_numeric,
    bob_profiles_3d,
    bob_spectra,
)
from .qmath import (
    DensityMatrix,
    coherent_information,
    conditional_entropy,
    hermitian_eigenvalues,
    partial_trace,
    random_density_matrix,
    random_separable_state,
    von_neumann_entropy,
)
from .smearing import (
    GaussianProfile,
    GaussianShellProfile,
    GaussianSpectrum,
    NumericProfile,
    NumericSpectrum,
    RadialProfile,
    SmoothStep,
    SpectralProfile,
    WindowedProfile,
    adaptive_quadrature,
)

__version__ = "0.1.0"
