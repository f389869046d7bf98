"""Optimal deterministic port-based teleportation via the teleportation matrix.

The best achievable fidelity of the deterministic protocol, with both the
measurement and the resource state optimised, equals the spectral radius of
an integer matrix over Young diagrams divided by d^2.  This package builds
that matrix, finds its spectral radius (closed forms where available, a
certified Lanczos solve otherwise), emits the optimal measurement and
resource-state coefficients, and cross-checks every formula against a dense
brute-force operator oracle at small sizes.
"""

__version__ = "0.1.0"

from .characters import (
    CharacterMatrix,
    CycleType,
    character,
    character_matrix,
    cycle_types,
)
from .diagrams import (
    EMPTY_DIAGRAM,
    DiagramBasis,
    YoungDiagram,
    add_box,
    enumerate_diagrams,
    irrep_dim,
    multiplicity,
    partition_counts,
)
from .protocol import (
    OptimalSolution,
    fidelity_row,
    general_povm_fidelity,
    lower_bound_fidelity,
    optimal_fidelity,
    optimal_solution,
    protocol_eigenvalues,
    sqrt_measurement_fidelity,
    sweep,
)
from .spectral import (
    PowerIterationError,
    SpectralResult,
    closed_form_d2,
    closed_form_full,
    closed_form_spectrum,
    dominant_eigenpair,
    lanczos_perron,
)
from .telemat import (
    IncidenceEdges,
    gram_H,
    incidence_edges,
    incidence_matrix,
    teleportation_matrix,
)
