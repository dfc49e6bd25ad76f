"""The package's public surface."""

import lexgb


def test_every_exported_name_resolves():
    missing = [name for name in lexgb.__all__ if not hasattr(lexgb, name)]
    assert not missing
    assert len(set(lexgb.__all__)) == len(lexgb.__all__)
    namespace = {}
    exec("from lexgb import *", namespace)
    assert set(lexgb.__all__) <= set(namespace)
