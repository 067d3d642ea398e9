"""The package's public names."""

import heatflex


def test_public_api_resolves():
    names = heatflex.__all__
    assert len(names) == len(set(names)), "a name repeats in __all__"
    missing = [name for name in names if not hasattr(heatflex, name)]
    assert not missing, f"__all__ names what heatflex does not define: {missing}"
    namespace = {}
    exec("from heatflex import *", namespace)
    assert set(names) <= set(namespace)
