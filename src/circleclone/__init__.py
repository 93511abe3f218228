"""Asymmetric 1-to-2 cloning of qubits on a Bloch great circle.

Simulates the optimal asymmetric cloning machine for pure states in the x-z
plane of the Bloch sphere, and independently recovers its optimality boundary
(eta1^2 + eta2^2 = 1) from positivity plus the no-signalling constraint.
"""

from .cloner import (
    CloneCoefficients,
    CloneReport,
    clone,
    clone_report,
    coefficients,
    covariance_check_machine,
    isometry_check,
    isotropy_scan,
    reduced_clones,
)
from .linalg import hermitian_eigenvalues, is_psd, kron, partial_trace
from .nosignalling import (
    FeasibilityReport,
    bound_rhs,
    constrain_tensor,
    covariance_residual,
    feasibility,
    max_radius,
    no_signalling_residual,
    rotate_correlations,
)
from .pauli import (
    PauliDecomposition,
    bloch_to_density,
    density_to_bloch,
    great_circle_bloch,
    great_circle_ket,
    pauli_decompose,
    rotate_bloch,
    rotation_unitary,
)
from .verify import RunConfig, run_verification

__version__ = "0.1.0"

__all__ = [
    "CloneCoefficients",
    "CloneReport",
    "FeasibilityReport",
    "PauliDecomposition",
    "RunConfig",
    "bloch_to_density",
    "bound_rhs",
    "clone",
    "clone_report",
    "coefficients",
    "constrain_tensor",
    "covariance_check_machine",
    "covariance_residual",
    "density_to_bloch",
    "feasibility",
    "great_circle_bloch",
    "great_circle_ket",
    "hermitian_eigenvalues",
    "is_psd",
    "isometry_check",
    "isotropy_scan",
    "kron",
    "max_radius",
    "no_signalling_residual",
    "partial_trace",
    "pauli_decompose",
    "reduced_clones",
    "rotate_bloch",
    "rotate_correlations",
    "rotation_unitary",
    "run_verification",
]
