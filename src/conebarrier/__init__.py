"""Collision-cone control barrier functions with a QP safety filter.

The package keeps a reference controller's commands unless they would send
the relative velocity of a tracked obstacle into its collision cone; the
minimal correction that keeps the cone constraint satisfied is the closed
form (or small active-set) solution of a quadratic program.

Layout: ``models`` holds the acceleration-controlled vehicle families, the
RK4 integrator and the model / state / input name tables; ``barriers`` the
cone barrier and the classical ellipse / second-order candidates as array
cores, with the one protected-point kinematics, the one (barrier, model)
dispatch and thin typed wrappers over them; ``validity`` the sampling
probes behind the candidate comparison matrix; ``safety_filter`` the
reference controllers and the QP solvers; ``sim`` the closed-loop engine
(perception gating, rows, QP, input clipping, RK4, events) with audits;
``scenarios`` the packaged YAML suite; and ``cli`` the command-line tool.
"""

from .barriers import (
    EPS_V,
    BarrierEvaluation,
    ClassK,
    DegenerateVelocityError,
    DomainError,
    Obstacle,
    c3bf_bicycle,
    c3bf_pointmass,
    c3bf_unicycle,
    ellipse_cbf,
    hocbf,
)
from .models import (
    AffineDynamics,
    BicycleDynamics,
    BicycleGeometry,
    BicycleInput,
    BicycleState,
    PointMassDynamics,
    PointMassState,
    UnicycleDynamics,
    UnicycleInput,
    UnicycleState,
    bicycle_dynamics,
    bicycle_dynamics_exact,
    integrate_step,
    pointmass_dynamics,
    slip_from_steering,
    unicycle_dynamics,
)
from .safety_filter import (
    ConstraintRow,
    DegenerateRowError,
    EmptyPathError,
    PathTrackerGains,
    QpProblem,
    ReferenceController,
    SafetyFilterResult,
    reference_p_controller,
    reference_path_tracker,
    solve_multi_constraint,
    solve_single_constraint,
)
from .sim import (
    BehaviorThresholds,
    BetaReport,
    ConfigError,
    InvarianceReport,
    ObstacleConfig,
    ScenarioConfig,
    ScenarioTrace,
    SimEvent,
    beta_smallness_audit,
    classify_behavior,
    invariance_audit,
    run_scenario,
)
from .validity import ValidityReport, validity_probe, verdict_matrix

__version__ = "0.1.0"

__all__ = [
    "AffineDynamics", "BarrierEvaluation", "BehaviorThresholds", "BetaReport",
    "BicycleDynamics", "BicycleGeometry", "BicycleInput", "BicycleState", "ClassK",
    "ConfigError", "ConstraintRow", "DegenerateRowError", "DegenerateVelocityError",
    "DomainError", "EPS_V", "EmptyPathError", "InvarianceReport", "Obstacle",
    "ObstacleConfig", "PathTrackerGains", "PointMassDynamics", "PointMassState",
    "QpProblem", "ReferenceController", "SafetyFilterResult", "ScenarioConfig",
    "ScenarioTrace", "SimEvent", "UnicycleDynamics", "UnicycleInput", "UnicycleState",
    "ValidityReport", "beta_smallness_audit", "bicycle_dynamics",
    "bicycle_dynamics_exact", "c3bf_bicycle", "c3bf_pointmass", "c3bf_unicycle",
    "classify_behavior", "ellipse_cbf", "hocbf", "integrate_step", "invariance_audit",
    "pointmass_dynamics", "reference_p_controller",
    "reference_path_tracker", "run_scenario", "slip_from_steering",
    "solve_multi_constraint", "solve_single_constraint", "unicycle_dynamics",
    "validity_probe", "verdict_matrix",
]
