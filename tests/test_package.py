"""The package's public surface."""

import conebarrier
from conebarrier import claims, cli, sim


def test_public_surface_resolves():
    names = conebarrier.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(conebarrier, name)]
    assert missing == []
    namespace = {}
    exec("from conebarrier import *", namespace)
    assert set(names) <= set(namespace)


AUDIT_NAMES = ("invariance_audit", "beta_smallness_audit", "InvarianceReport", "BetaReport",
               "INVARIANCE_TOL", "BETA_LIMIT")


def test_audits_live_in_claims_only():
    # The CLI calls the audits through its own names, the ones a profiler wraps.
    assert cli.invariance_audit is claims.invariance_audit
    assert cli.beta_smallness_audit is claims.beta_smallness_audit
    for name in AUDIT_NAMES[:4]:
        assert getattr(conebarrier, name) is getattr(claims, name), name
    assert [name for name in AUDIT_NAMES if hasattr(sim, name)] == []
