"""The public names of the package, pinned: adding or dropping one is a
visible change to this list."""

import qdarwin as q

PUBLIC_NAMES = [
    "BranchingState", "Classification", "ContinuousUniform",
    "DensePropagator", "DensityMatrix", "DiagonalPropagator", "DiscreteUniform",
    "ExperimentConfig", "MODEL_KINDS", "ModelInstance", "ModelSpec", "PointMass",
    "ProductCoeffs", "PureState", "SweepResult", "align_global_phase",
    "analytics", "asymptotic_holevo", "asymptotic_mutual_info",
    "averaged_gamma_squared", "binary_entropy", "branching_to_dense", "build_model",
    "characteristic_function", "classify", "dense_product_state", "dynamics",
    "evolve_branching", "evolve_dense", "evolve_diagonal", "experiments",
    "fragment_decoherence_factor", "gamma_squared_floor", "hamiltonian_matrix",
    "holevo_branching", "holevo_grid_oracle", "information", "max_system_entropy",
    "mix_seed", "model", "mutual_information", "quantum_discord", "random_product_state",
    "reduced_density", "reproduce_fig2", "reproduce_fig3", "run_sweep", "sample_instance",
    "subsystem_entropy", "von_neumann_entropy", "weak_decoherence_holevo",
    "weak_decoherence_mutual_info", "weak_decoherence_slope",
]


def test_public_names_are_pinned():
    # __all__ is built from dir(), so the submodules are public names too
    assert sorted(q.__all__) == PUBLIC_NAMES
