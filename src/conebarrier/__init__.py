"""Collision-cone control barrier functions with a QP safety filter.

The package keeps a reference controller's commands unless they would send
the relative velocity of a tracked obstacle into its collision cone; the
minimal correction that keeps the cone constraint satisfied is the exact
closed-form solution of a quadratic program over the two inputs.

Layout: ``models`` holds the acceleration-controlled vehicle families as
control-affine dynamics (the drift / actuation arrays and the closed-form
field on floats), the RK4 integrator on floats and the model / state /
input name tables; ``barriers`` the cone barrier and the classical
ellipse / second-order candidates as broadcasting array cores, with the one
protected-point kinematics, the one combined radius and the one (barrier,
model) dispatch (these cores are the only barrier API); ``validity`` the
sampling probes behind the candidate comparison matrix; ``safety_filter``
the reference controllers and the QP filter, solved in one incremental pass
over the rows, with a least-violation answer for conflicting rows (no LP
solver);
``sim`` the closed-loop engine (one kinematics pass feeding one barrier
call over all obstacles per step, masks for perception and the cone
domain, rows, QP, input clipping, RK4, events derived from the per-step
logs) with audits; ``scenarios`` the packaged YAML suite; and ``cli`` the
command-line tool.
"""

from .barriers import EPS_V, ClassK
from .models import (
    AffineDynamics,
    BicycleDynamics,
    BicycleGeometry,
    PointMassDynamics,
    UnicycleDynamics,
    bicycle_dynamics_exact,
    integrate_step,
    slip_from_steering,
)
from .safety_filter import (
    DegenerateRowError,
    EmptyPathError,
    NonFiniteRowError,
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
    "AffineDynamics", "BetaReport", "BicycleDynamics", "BicycleGeometry", "ClassK",
    "ConfigError", "DegenerateRowError", "EPS_V", "EmptyPathError", "InvarianceReport",
    "NonFiniteRowError", "ObstacleConfig", "PathTrackerGains", "PointMassDynamics",
    "QpProblem", "ReferenceController", "SafetyFilterResult", "ScenarioConfig",
    "ScenarioTrace", "SimEvent", "UnicycleDynamics", "ValidityReport",
    "beta_smallness_audit", "bicycle_dynamics_exact", "classify_behavior",
    "integrate_step", "invariance_audit", "reference_p_controller",
    "reference_path_tracker", "run_scenario", "slip_from_steering",
    "solve_multi_constraint", "solve_single_constraint", "validity_probe",
    "verdict_matrix",
]
