"""The package's public surface."""

import ast
import inspect

import conebarrier
from conebarrier import claims, cli, models, scenarios, sim


def test_public_surface_resolves():
    names = conebarrier.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(conebarrier, name)]
    assert missing == []
    namespace = {}
    exec("from conebarrier import *", namespace)
    assert set(names) <= set(namespace)


def test_models_are_names_and_array_cores():
    # A model is its name and the rear-axle float: no class layer over f and g.
    gone = ("AffineDynamics", "UnicycleDynamics", "BicycleDynamics", "PointMassDynamics",
            "BicycleGeometry")
    assert [name for name in gone if hasattr(conebarrier, name) or name in conebarrier.__all__] == []
    assert [name for name in gone + ("state_dim", "input_dim") if hasattr(models, name)] == []
    assert not any(inspect.isclass(v) and v.__module__ == models.__name__
                   for v in vars(models).values())
    for name in ("drift", "actuation", "model_dynamics"):
        assert getattr(conebarrier, name) is getattr(models, name), name


AUDIT_NAMES = ("invariance_audit", "beta_smallness_audit", "InvarianceReport", "BetaReport",
               "INVARIANCE_TOL", "BETA_LIMIT")


def test_audits_live_in_claims_only():
    # The CLI calls the audits through its own names, the ones a profiler wraps.
    assert cli.invariance_audit is claims.invariance_audit
    assert cli.beta_smallness_audit is claims.beta_smallness_audit
    for name in AUDIT_NAMES[:4]:
        assert getattr(conebarrier, name) is getattr(claims, name), name
    assert [name for name in AUDIT_NAMES if hasattr(sim, name)] == []


def test_scenario_format_lives_in_scenarios_only():
    # sim re-exports the two config classes that bench/crowd.py imports from it.
    assert sim.ScenarioConfig is scenarios.ScenarioConfig
    assert sim.ObstacleConfig is scenarios.ObstacleConfig
    assert [name for name in ("ConfigError", "MAX_STEPS", "BARRIER_KINDS")
            if hasattr(sim, name)] == []
    for name in ("ConfigError", "ObstacleConfig", "ScenarioConfig"):
        assert getattr(conebarrier, name) is getattr(scenarios, name), name
    tree = ast.parse(inspect.getsource(scenarios))
    imported = [f"{getattr(node, 'module', None) or ''}.{alias.name}".split(".")
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert not any("sim" in parts for parts in imported)
