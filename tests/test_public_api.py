"""The package's public names, written out: a name that is added to or
removed from ``graphrothe.__all__`` shows in the diff of this list."""

import graphrothe

PUBLIC = [
    "ConstantForcing", "Domain", "ExhaustionSequence", "GraphMetrics",
    "HeatProblem", "LatticeZ", "LatticeZ2", "Obstacle", "RotheTrajectory",
    "SeparableForcing", "SpectralBasis", "Subspace", "TableForcing",
    "TimePartition", "VIProblem", "VertexField", "WeightedGraph",
    "build_finite_graph", "calculus", "compute_metrics",
    "dirichlet_eigenbasis", "errors", "evaluate_interpolant",
    "exact_p1_solution", "exhaust", "exhaust_generative",
    "field_on_interior", "gamma", "graph", "green_identity_check", "heat",
    "inner_product", "integrate", "kernels", "laplacian",
    "lipschitz_validate", "make_domain", "materialize_ball",
    "monitor_estimates", "norms", "ode_oracle", "operators",
    "run_exhaustion", "run_rothe", "run_vi", "run_vi_exhaustion",
    "spectral", "step_functional", "vi", "vi_monotonicity_monitor",
]


def test_all_is_the_written_list():
    assert graphrothe.__all__ == PUBLIC
