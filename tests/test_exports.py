"""The public names are real: every ``__all__`` entry exists, and the package's lazy table exports only them.

``bench/tracing.py`` picks the call sites it traces from ``__all__``, so a
stale entry would point it at a function that is gone.  No module keeps an
import it does not use, the leftover a deletion most often leaves behind.
The layers hold: ``core_linalg`` and ``jsonio`` import nothing from the
package, and ``jsonio`` owns every JSON codec.  phi(I) is lifted in one
place, ``verifiers._lifted``, by ``core_linalg._binade``'s exponent, which
only ``core_linalg`` applies.  Every battery and recovery reads phi(I) there;
only Kadison-Choi's unitality check reads the raw phi(I), since 2 phi would
pass it lifted.  The lifted phi(I) is judged by its users: ``_unit_det``'s
singularity check, ``_gauge``'s class gates and ``recover``'s PD gate.  The
map batteries draw their samples and query the map through one front end,
``verifiers._Battery``.
The CLI's class and oracle choices come from the library's tables.
"""

import argparse
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import preserver_lab
from preserver_lab import MatrixClass, cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(preserver_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    mod = importlib.import_module(f"preserver_lab.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports_only_public_names():
    # the package's lazy table names 59 public names of 8 submodules; the package exports
    # exactly those names and submodules, as it did when it imported them eagerly
    exports = preserver_lab._EXPORTS
    for name, module in exports.items():
        mod = importlib.import_module(f"preserver_lab.{module}")
        assert module in MODULES and name in mod.__all__, (name, module)
        assert getattr(preserver_lab, name) is getattr(mod, name)
    public = {*exports, *exports.values()}
    assert (len(exports), len(set(exports.values()))) == (59, 8)
    star = {}
    exec("from preserver_lab import *", star)
    assert {n for n in star if not n.startswith("_")} == public
    listed = {n for n in dir(preserver_lab) if not n.startswith("_")}
    assert public <= listed and listed - public <= {"cli"}  # cli once something imported it


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


def _handed_only_to_lifted(fn):
    """Every use of ``map_fn`` in the function node ``fn`` is an argument of a ``_lifted`` call."""
    uses = {(node.lineno, node.col_offset) for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "map_fn"}
    handed = {(arg.lineno, arg.col_offset) for call in _calls(fn, "_lifted") for arg in call.args}
    return uses and uses <= handed


def _numpy_calls(node, name):
    """The calls of ``np.name`` inside ``node``."""
    return [c for c in _calls(node, name) if getattr(getattr(c.func, "value", None), "id", None) == "np"]


def _callers(name, calls=_calls):
    """{(module, function)} of every function of the package in which ``calls`` finds a call of ``name``."""
    return {(module, fn.name) for module in MODULES for fn in ast.walk(_tree(module))
            if isinstance(fn, ast.FunctionDef) and calls(fn, name)}


def _function(module, name):
    return next(fn for fn in ast.walk(_tree(module)) if isinstance(fn, ast.FunctionDef) and fn.name == name)


def test_unit_image_is_lifted_in_one_place():
    # _binade's exponent k is the one power-of-two rescale: outside core_linalg only _lifted takes
    # it, of phi(I), and numpy's exponent functions run only inside core_linalg (ldexp, _binade)
    assert {c for c in _callers("_binade") if c[0] != "core_linalg"} == {("verifiers", "_lifted")}
    assert {c[0] for name in ("ldexp", "frexp") for c in _callers(name, _numpy_calls)} == {"core_linalg"}
    # the lifted map is one flat wrapper, built only in _lifted; unitalize hands its map only to
    # _lifted and gauges that same wrapper, so the trace companion is one wrapper too
    assert _callers("_Unitalized") == {("verifiers", "_lifted")}
    assert _handed_only_to_lifted(_function("verifiers", "unitalize"))
    # no float lift is left to multiply or divide by: _lifted is the only name about a lift
    names = {getattr(node, attr) for module in MODULES for node in ast.walk(_tree(module))
             for attr in ("id", "name", "arg", "attr", "asname") if isinstance(getattr(node, attr, None), str)}
    assert {n for n in names if "lift" in n} == {"_lifted"}


def _top_level(module):
    """{name: node} of the functions and classes defined at the top of ``module``."""
    return {node.name: node for node in _tree(module).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _seeded_draws(node):
    """The ``sample_batch`` calls inside ``node`` whose key is ``mix_seed(seed, ...)`` (or ``self.seed``)."""
    return [c for c in _calls(node, "sample_batch") if len(c.args) > 2 and _calls(c.args[2], "mix_seed")
            and "seed" in (getattr(c.args[2].args[0], "id", None), getattr(c.args[2].args[0], "attr", None))]


def test_batteries_share_one_front_end():
    # the map batteries draw A and B, read phi(I) and query their stacks only through _Battery; the
    # oracles, which take no map, keep their own draws
    defs = _top_level("verifiers")
    assert {name for name, node in defs.items() if _seeded_draws(node)} == {
        "_Battery", "oracle_minkowski", "oracle_jacobi", "oracle_dual_witness"}
    for name in ("verify_det_identity", "verify_trace_identity", "check_homogeneity_additivity"):
        assert not any(_calls(defs[name], f) for f in ("sample_batch", "_lifted", "unitalize", "_images")), name
    # no battery gauges through unitalize: the trace reductions apply _gauge's factors themselves
    assert _callers("unitalize") == set()
    # _lifted has no optional parameter: the unit determinant and its guard are _unit_det's
    args = _function("verifiers", "_lifted").args
    assert [a.arg for a in args.args] == ["map_fn", "cls", "n"] and not (args.defaults or args.kwonlyargs)
    # (preservers has a _unit_det of its own, the gauge rule of a canonical form)
    assert {c for c in _callers("_unit_det") if c[0] != "preservers"} == {("verifiers", "det"), ("recovery", "recover")}


def test_maps_are_called_only_in_images():
    # every query of a map, phi(I) included, goes through verifiers._images and its image contract
    assert _callers("map_fn") == {("verifiers", "_images")}


@pytest.mark.parametrize("name", ["build_linear_rep", "recover"])
def test_recovery_reads_the_box_through_the_lift(name):
    # the unit images, the probes and the round trip all query the lifted map
    assert _handed_only_to_lifted(_function("recovery", name))


def test_linearity_is_judged_in_one_place():
    # Kadison/Choi and recover share the one probe; build_linear_rep judges its whole rep
    assert _callers("NotLinear") == {("verifiers", "_require_linear"), ("recovery", "build_linear_rep")}


def test_cli_lists_no_class_names():
    # recover's choices come from recovery's extractor table, dual-witness's from its witness table
    names = {cls.value for cls in MatrixClass}
    listed = [(node.lineno, elt.value) for node in ast.walk(_tree("cli")) if isinstance(node, (ast.Tuple, ast.List))
              for elt in node.elts if isinstance(elt, ast.Constant) and elt.value in names]
    assert listed == []


def test_cli_oracle_choices_are_its_oracle_table():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    oracle = next(a for a in commands.choices["oracle"]._actions if a.dest == "oracle")
    assert oracle.choices is cli._ORACLES
