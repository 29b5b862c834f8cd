"""The package's public surface: `dncat.__all__` names exactly the public
names that `dncat/__init__.py` imports, and each of them resolves."""

import ast
from pathlib import Path

import dncat


def test_all_names_exactly_the_public_imports():
    tree = ast.parse(Path(dncat.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = sorted(name for name in imported if not name.startswith("_"))
    assert sorted(dncat.__all__) == public
    namespace: dict = {}
    exec("from dncat import *", namespace)  # raises if a name does not resolve
    assert all(namespace[name] is getattr(dncat, name) for name in public)
