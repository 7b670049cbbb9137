"""Semilinear heat flow and parabolic variational inequalities on locally
finite weighted graphs, discretized in time by Rothe's method, with a
spectral closed form and an explicit-integrator oracle for validation."""

from . import errors
from .calculus import (
    VertexField,
    field_on_interior,
    gamma,
    green_identity_check,
    inner_product,
    integrate,
    laplacian,
    norms,
)
from .graph import (
    Domain,
    ExhaustionSequence,
    GraphMetrics,
    LatticeZ,
    LatticeZ2,
    WeightedGraph,
    build_finite_graph,
    compute_metrics,
    domain_from_labels,
    exhaust,
    exhaust_generative,
    make_domain,
    materialize_ball,
)
from .heat import (
    HeatProblem,
    RotheTrajectory,
    TimePartition,
    evaluate_interpolant,
    monitor_estimates,
    run_exhaustion,
    run_rothe,
    solve_step,
    step_functional,
)
from .spectral import SpectralBasis, dirichlet_eigenbasis, exact_p1_solution, ode_oracle
from .vi import (
    ConstantForcing,
    Obstacle,
    SeparableForcing,
    Subspace,
    TableForcing,
    VIProblem,
    lipschitz_validate,
    run_vi,
    run_vi_exhaustion,
    vi_monotonicity_monitor,
    vi_step,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
