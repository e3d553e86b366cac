"""relmech: relativistic mechanics on pseudo-Riemannian configuration spaces.

The package models a particle worldline three ways and keeps them in exact
agreement:

* kinematics of three-velocities (chart-local, projective) against
  four-velocities (tangent vectors up to scale),
* a degree-one homogeneous Lagrangian whose variational derivatives obey the
  reparameterization identity u . calE = 0 and close on the constraint
  G(x, u) = 1,
* the equivalent geodesic equation of a velocity-dependent connection and
  its constrained Hamiltonian picture on phase space.
"""

from .errors import (
    ConstraintUnreachable,
    DimensionMismatch,
    DomainError,
    NonMonotoneTime,
    NonPositiveG,
    ProjectiveInfinity,
    RelMechError,
    SingularMetric,
    StepRejected,
    ZeroTimeVelocity,
    ZeroVector,
)
from .geometry import (
    CATALOG_IDS,
    GTensorField,
    MetricField,
    PotentialField,
    catalog_metric,
    christoffel_at,
    coulomb_potential,
    diagonal_metric,
    euclidean,
    faraday_at,
    g_value,
    inverse_metric_at,
    metric_at,
    minkowski,
    schwarzschild,
    symmetrize,
    uniform_field,
    zero_potential,
)
from .kinematics import (
    ChartTransition,
    FourState,
    ThreeVelocity,
    boost_four,
    boost_three,
    four_from_three,
    lift_three_solution,
    lorentz_boost_matrix,
    lorentz_boost_transition,
    projective_transform,
    same_jet,
    three_from_four,
)
from .lagrangian import (
    ELResidual,
    LagrangianModel,
    constraint_value,
    euler_lagrange_E,
    four_acceleration,
    integrate_three_velocity,
    lagrangian_value,
    noether_residual,
    three_acceleration,
    three_euler_lagrange,
    three_lagrangian_value,
    variational_derivative,
)
from .dynamics import (
    Connection,
    Trajectory,
    check_geodesic_condition,
    connection_from,
    geodesic_condition_scale,
    geodesic_condition_terms,
    geodesic_rhs,
    integrate_geodesic,
    levi_civita_connection,
    project_to_shell,
    soldering_residual,
)
from .hamiltonian import (
    HamiltonianModel,
    PhaseState,
    PhaseTrajectory,
    coordinate_scalar,
    custom_hamiltonian,
    hamiltonian_vector_field,
    integrate_hamiltonian,
    legendre_velocity,
    mass_shell_residual,
    mass_shell_scalar,
    momentum_scalar,
    on_shell_momentum,
    poisson_bracket,
    second_order_rhs,
    standard_hamiltonian,
)
from .checks import run_invariant_checks

__version__ = "0.1.0"
