"""The public names are real: every ``__all__`` entry exists, and the package exports only them.

``bench/tracing.py`` picks the call sites it traces from ``__all__``, so a
stale entry would point it at a function that is gone.  No module keeps an
import it does not use, the leftover a deletion most often leaves behind.
The layers hold: ``core_linalg`` and ``jsonio`` import nothing from the
package, and ``jsonio`` owns every JSON codec.  phi(I) is read, lifted and
judged in one place, ``verifiers._lifted``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import preserver_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(preserver_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    mod = importlib.import_module(f"preserver_lab.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(preserver_lab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"preserver_lab.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    mod = importlib.import_module(f"preserver_lab.{name}")
    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(mod, "__all__", ()))) == []


def _tree(name):
    return ast.parse(Path(importlib.import_module(f"preserver_lab.{name}").__file__).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["core_linalg", "jsonio"])
def test_base_layers_import_no_package_module(name):
    nodes = list(ast.walk(_tree(name)))
    imported = ["." * node.level + (node.module or "") for node in nodes if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    assert [m for m in imported if m.startswith((".", "preserver_lab"))] == []


def test_only_jsonio_defines_json_codecs():
    # mapspec's recovery_to_json encodes a whole recovery result from jsonio's codecs
    codecs = {(name, node.name) for name in MODULES for node in ast.walk(_tree(name))
              if isinstance(node, ast.FunctionDef) and node.name.endswith(("_to_json", "_from_json"))}
    assert {c for c in codecs if c[0] != "jsonio"} == {("mapspec", "recovery_to_json")}


def _calls(node, name):
    """The calls of ``name`` (plain or as an attribute) inside ``node``."""
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]


def test_unit_image_is_lifted_in_one_place():
    # unit_lift has one caller, verifiers._lifted; unitalize hands its map only to _lifted, so the
    # trace batteries read phi(I) through the same lift as the det batteries and recovery
    callers = {(name, fn.name) for name in MODULES for fn in ast.walk(_tree(name))
               if isinstance(fn, ast.FunctionDef) and _calls(fn, "unit_lift")}
    assert callers == {("verifiers", "_lifted")}
    unitalize = next(fn for fn in ast.walk(_tree("verifiers"))
                     if isinstance(fn, ast.FunctionDef) and fn.name == "unitalize")
    uses = {(node.lineno, node.col_offset) for node in ast.walk(unitalize)
            if isinstance(node, ast.Name) and node.id == "map_fn"}
    handed = {(arg.lineno, arg.col_offset) for call in _calls(unitalize, "_lifted") for arg in call.args}
    assert uses and uses <= handed
