"""
Numerical laboratory for a stochastic viscous Cahn-Hilliard equation.

The package is organized around five building blocks:

- ``spectral``: Neumann cosine basis on a box, fields, norms, and the
  resolvent-type inverse operators the energy estimates live in.
- ``monotone``: maximal monotone graphs, their resolvents, Yosida
  approximations, Moreau envelopes, and convex conjugates.
- ``noise``: counter-based Wiener increments and finite-rank diffusion
  operators, additive or state-modulated.
- ``stepper``: the semi-implicit backward Euler scheme with matrix-free
  Newton solves and step rejection.
- ``experiments``: diagnostics, invariant checks, and the convergence and
  continuity studies; ``cli`` drives them from config files.
"""

from .spectral import (
    Domain,
    EigenSystem,
    NonZeroMean,
    SpectralField,
    apply_helmholtz_inverse,
    apply_inverse_laplacian,
    apply_laplacian,
    basis_field,
    from_grid,
    inner,
    integrate_grid,
    neumann_eigensystem,
    norm,
    star_energy,
    star_potential,
    to_grid,
)
from .monotone import (
    LipschitzPerturbation,
    MonotoneGraph,
    NoConvergence,
    UnsupportedGraph,
    conjugate,
    graph_names,
    make_graph,
    make_perturbation,
    moreau_envelope,
    polynomial_degree,
    resolvent,
    yosida,
    yosida_derivative,
)
from .noise import (
    DiffusionOperator,
    DimensionMismatch,
    KindMismatch,
    NoiseModel,
    WienerProcess,
    apply_diffusion,
    diffusion_operator,
    hs_norm,
    integral_ledger,
    smooth,
)
from .stepper import (
    Batch,
    NewtonDiverged,
    SolverConfig,
    SolverState,
    StepRejected,
    Trajectory,
    drift,
    evolution_residual,
    free_energy_parts,
    simulate,
)
from .experiments import (
    DIAGNOSTIC_FIELDS,
    Assertion,
    NonFinite,
    PreconditionViolated,
    ProblemData,
    SweepReport,
    check_invariants,
    continuous_dependence_study,
    ensemble_expectations,
    member_seed,
    path_l2_distance,
    regularity_monitor,
    regularity_study,
    run_diagnostics,
    sup_norm,
    vanishing_viscosity_study,
    yosida_convergence_study,
)

__version__ = "0.1.0"
