"""Collision-cone control barrier functions with a QP safety filter.

The package keeps a reference controller's commands unless they would send
the relative velocity of a tracked obstacle into its collision cone; the
minimal correction is a quadratic program over the two inputs: closed form for
one row, one incremental pass over several, least violation when they conflict.

Layout: ``models`` holds the acceleration-controlled vehicle families,
each its name and (for the bicycle) the rear-axle float: the drift /
actuation array cores over states (..., n), the field on floats that
``model_dynamics`` selects, the RK4 integrator on floats and the model /
state / input name tables; ``barriers`` the cone barrier and the classical
ellipse / second-order candidates as broadcasting array cores (the cone's
also take one row on floats), with the one
protected-point kinematics, the one combined radius and the one (barrier,
model) dispatch (these cores are the only barrier API); ``validity`` the
sampling probes behind the candidate comparison matrix; ``safety_filter``
the reference controllers and the QP filter, solved in one incremental pass
over the rows, with a least-violation answer for conflicting rows (no LP
solver);
``sim`` the closed-loop engine (per step on floats: one kinematics call,
each obstacle's relative motion and row test, one barrier call per row,
QP, input clipping, RK4; after the loop, one array pass logs every
obstacle's separation, relative speed and h, forms the masks and names a
blow-up's first step; the trace is the per-step record, whose flags'
rising edges are the events) and the behaviour label; ``scenarios`` the
scenario format (the configs, their checks and ``ConfigError``, the YAML
codec and the packaged suite); ``claims`` the per-trace audits, whose
reports are the summary JSON's audit blocks, and one judge per paper claim
under every judge bound, which ``audit`` and the acceptance tests share;
and ``cli`` the command-line tool.
"""

from .barriers import EPS_V, ClassK
from .claims import BetaReport, InvarianceReport, beta_smallness_audit, invariance_audit
from .models import (
    actuation,
    bicycle_dynamics_exact,
    drift,
    integrate_step,
    model_dynamics,
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
from .scenarios import ConfigError, ObstacleConfig, ScenarioConfig
from .sim import (
    ScenarioTrace,
    SimEvent,
    classify_behavior,
    run_scenario,
)
from .validity import ValidityReport, validity_probe, verdict_matrix

__version__ = "0.1.0"

__all__ = [
    "BetaReport", "ClassK", "ConfigError", "DegenerateRowError", "EPS_V", "EmptyPathError",
    "InvarianceReport", "NonFiniteRowError", "ObstacleConfig", "PathTrackerGains",
    "QpProblem", "ReferenceController", "SafetyFilterResult", "ScenarioConfig",
    "ScenarioTrace", "SimEvent", "ValidityReport", "actuation", "beta_smallness_audit",
    "bicycle_dynamics_exact", "classify_behavior", "drift", "integrate_step",
    "invariance_audit", "model_dynamics", "reference_p_controller",
    "reference_path_tracker", "run_scenario", "slip_from_steering",
    "solve_multi_constraint", "solve_single_constraint", "validity_probe",
    "verdict_matrix",
]
