"""One list of public names per module.

Each module's ``__all__`` is the only list of its public names: the package
root star-imports the modules and joins their lists, so a name added to a
module is exported from the package with no second edit.  These tests keep
the join complete and unambiguous.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import tensorlandscape

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorlandscape"


def _listing_modules():
    """The package's modules that assign ``__all__`` at top level, by name."""
    names = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
               for node in tree.body):
            names.append(path.stem)
    return [importlib.import_module(f"tensorlandscape.{name}") for name in names]


MODULES = _listing_modules()


def test_package_list_is_the_modules_lists_joined():
    assert [m.__name__ for m in MODULES] == [
        f"tensorlandscape.{name}"
        for name in ("complexity", "kacrice", "scan", "simulate", "thresholds")]
    assert tensorlandscape.__all__ == [name for m in MODULES for name in m.__all__]


def test_no_name_is_listed_twice():
    counts = Counter(name for m in MODULES for name in m.__all__)
    assert {name: n for name, n in counts.items() if n > 1} == {}


def test_every_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tensorlandscape, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_list():
    namespace = {}
    exec("from tensorlandscape import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tensorlandscape.__all__)
