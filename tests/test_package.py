import importlib

import clonekit


def test_every_public_name_resolves():
    # __all__ is derived from the lazy export table, so each listed name
    # must load from its home module on first use.
    assert clonekit.__all__ == sorted(set(clonekit.__all__))
    for name in clonekit.__all__:
        home = importlib.import_module(f"clonekit.{clonekit._HOME[name]}")
        assert getattr(clonekit, name) is getattr(home, name), name
    assert set(clonekit.__all__) <= set(dir(clonekit))
