"""The package namespace: ``tabrec.__all__`` names exactly its public API."""

import types

import tabrec


def test_all_is_sorted_and_exact():
    assert tabrec.__all__ == sorted(tabrec.__all__)
    for name in tabrec.__all__:
        assert hasattr(tabrec, name), name
    public = {
        name
        for name, value in vars(tabrec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(tabrec.__all__) == public
