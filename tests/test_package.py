"""The package namespace: ``tabrec.__all__`` names exactly its public API."""

import subprocess
import sys
import types
from pathlib import Path

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


def test_import_loads_no_heavy_stdlib_modules():
    """``import tabrec, tabrec.cli`` in a bare interpreter (no site) loads
    none of the modules that would dominate every CLI start."""
    src = Path(tabrec.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import tabrec, tabrec.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "tabrec.cli" in out
    heavy = {"dataclasses", "inspect", "typing", "json", "multiprocessing"}
    assert heavy.isdisjoint(out), sorted(heavy.intersection(out))
