"""The package's public surface."""

import conebarrier


def test_public_surface_resolves():
    names = conebarrier.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(conebarrier, name)]
    assert missing == []
    namespace = {}
    exec("from conebarrier import *", namespace)
    assert set(names) <= set(namespace)
