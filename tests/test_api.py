"""The package's public surface: `dncat.__all__` names exactly the public
names of the lazy name map in `dncat/__init__.py`, each of them resolves
to its module's object, and importing the package or the command line
loads only what is run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import dncat

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_exactly_the_public_imports():
    exported = [name for names in dncat._EXPORTS.values() for name in names]
    public = sorted(name for name in exported if not name.startswith("_"))
    assert len(set(exported)) == len(exported)  # no name from two modules
    assert sorted(dncat.__all__) == public
    namespace: dict = {}
    exec("from dncat import *", namespace)  # raises if a name does not resolve
    for module, names in dncat._EXPORTS.items():
        home = importlib.import_module(f"dncat.{module}")
        for name in names:
            assert namespace[name] is getattr(dncat, name) is getattr(home, name), name
    assert dncat.__version__ == dncat.VERSION
    assert set(dncat.__all__) <= set(dir(dncat))


def test_submodules_resolve_as_attributes():
    for name in dncat._SUBMODULES:
        assert getattr(dncat, name) is importlib.import_module(f"dncat.{name}")
    assert not hasattr(dncat, "no_such_name")


def _loaded_after(statement: str, prefix: str = "dncat") -> set[str]:
    code = (f"import sys\n{statement}\n"
            f"print(' '.join(m for m in sys.modules if m.startswith({prefix!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return set(proc.stdout.split())


def test_imports_load_only_what_runs():
    assert _loaded_after("import dncat") == {"dncat"}
    cli = _loaded_after("import dncat.cli")
    assert not cli & {"dncat.verify", "dncat.staple", "dncat.arquiver"}
    assert {"dncat.catalog", "dncat.triangulations"} <= cli
    # the catalog loads hashlib (and OpenSSL) only when it checksums a file
    assert _loaded_after("import dncat.cli", "hashlib") == set()


def test_no_module_loads_dataclasses():
    # the value types are named tuples: no import pays for dataclasses
    names = sorted({*dncat._SUBMODULES, "cli", "verify", "staple"})
    statement = "import " + ", ".join(f"dncat.{name}" for name in names)
    assert "dncat.verify" in _loaded_after(statement)
    assert _loaded_after(statement, "dataclasses") == set()
