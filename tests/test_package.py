"""The package's public names, checked where the package is installed."""

import hopcompress


def test_all_is_sorted_unique_and_resolves():
    names = hopcompress.__all__
    assert names == sorted(set(names))
    assert all(hasattr(hopcompress, name) for name in names)


def test_star_import_in_a_fresh_namespace():
    namespace = {}
    exec("from hopcompress import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hopcompress.__all__)
