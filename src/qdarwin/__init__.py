"""qdarwin: exact simulation and analytics of how a qubit's state becomes
redundantly recorded in a qubit environment."""

__version__ = "0.1.0"

from .analytics import (
    asymptotic_holevo,
    asymptotic_mutual_info,
    averaged_gamma_squared,
    binary_entropy,
    characteristic_function,
    gamma_squared_floor,
    max_system_entropy,
    weak_decoherence_holevo,
    weak_decoherence_mutual_info,
    weak_decoherence_slope,
)
from .dynamics import (
    BranchingState,
    DensePropagator,
    DiagonalPropagator,
    ProductCoeffs,
    PureState,
    align_global_phase,
    branching_to_dense,
    dense_product_state,
    evolve_branching,
    evolve_dense,
    evolve_diagonal,
    hamiltonian_matrix,
    random_product_state,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    mix_seed,
    reproduce_fig2,
    reproduce_fig3,
    run_sweep,
)
from .information import (
    DensityMatrix,
    fragment_decoherence_factor,
    holevo_branching,
    holevo_grid_oracle,
    mutual_information,
    quantum_discord,
    reduced_density,
    subsystem_entropy,
    von_neumann_entropy,
)
from .model import (
    Classification,
    ContinuousUniform,
    DiscreteUniform,
    ModelInstance,
    ModelSpec,
    PointMass,
    Vec3,
    build_model,
    classify,
    sample_instance,
    MODEL_KINDS,
)

__all__ = [name for name in dir() if not name.startswith("_")]
