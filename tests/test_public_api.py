"""The package's public surface is what the README documents."""
import ast
import dataclasses
import importlib
import pathlib
import re
import sys
import types
from collections import Counter

import k3walls

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = pathlib.Path(k3walls.__file__).resolve().parent
EXPORTED = {
    "K3Config",
    "mv",
    "enumerate_result",
    "classify",
    "effective_decompositions",
    "flop_cells",
    "survey",
}


def test_package_exports_exactly_the_documented_names():
    public = {
        name
        for name, obj in vars(k3walls).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == EXPORTED


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    assert len(namespace["walls"]) == 6
    assert namespace["cells"]
    assert namespace["sv"].chambers == 5


# module-level functions and classes that no code in the package loads
UNLOADED = {
    "transport_check": "read by the transport tests; ROADMAP item 4 runs it "
    "for twist_T on the genus ladder",
    "chain_structure_check": "read by the transport tests; ROADMAP item 7 "
    "runs it on the genus ladder",
}


def test_every_module_level_name_is_loaded():
    # a function or class defined at module level must be loaded by name
    # somewhere in the package, be exported, or be listed with its reason
    defined, loaded = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        loaded |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    assert defined - loaded - EXPORTED == set(UNLOADED)
    assert all(UNLOADED.values())


# dataclass fields, properties and public methods that no code in the
# package reads
UNREAD_FIELDS = {
    "WallLattice.line": "the wall's orthogonal line in Mukai coordinates, "
    "read by perfbench/checks.py and the wall tests",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def test_every_dataclass_field_is_read():
    # a field, property or public method of a dataclass must be read as an
    # attribute somewhere in the package, or be listed with its reason
    members, read = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        members.add((node.name, item.target.id))
                    elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        members.add((node.name, item.name))
    assert {f"{cls}.{name}" for cls, name in members if name not in read} == set(UNREAD_FIELDS)
    assert all(UNREAD_FIELDS.values())


# what perfbench wraps, calls or reads by name: a renamed, moved or private
# hook makes its counter read 0 there while nothing fails
BENCHMARK_HOOKS = (
    "solvers.solve_square_with_pairing",
    "solvers.decomposition_solutions",
    "walls.enumerate_result",
    "walls.movable_cone",
    "walls.build_wall",
    "walls.SectorError",
    "classify.classify",
    "classify.effective_decompositions",
    "stability.alignment_candidates",
    "stability.holes",
    "stability.AlignmentFunctional.phi",
    "report.render_json",
    "report.walls_document_from_survey",
    "cli.main",
)


def test_benchmark_hooks_exist():
    for hook in BENCHMARK_HOOKS:
        module, *attrs = hook.split(".")
        obj = importlib.import_module(f"k3walls.{module}")
        for attr in attrs:
            assert not attr.startswith("_"), hook
            obj = getattr(obj, attr)
        # the tracer wraps a function only in the module that defines it
        assert callable(obj) and obj.__module__ == f"k3walls.{module}", hook
    assert isinstance(k3walls.classify, types.FunctionType)
    assert k3walls.classify is importlib.import_module("k3walls.classify").classify
    # the fields the benchmark's output checks read off every wall
    wall_lattice = importlib.import_module("k3walls.walls").WallLattice
    assert {"line", "gram"} <= {f.name for f in dataclasses.fields(wall_lattice)}


# the hooks whose work the benchmark's counters read off their calls
WORKING_HOOKS = (
    "solvers.solve_square_with_pairing",
    "stability.alignment_candidates",
    "stability.holes",
)


def test_benchmark_hooks_do_the_work(monkeypatch):
    # each hook wrapped in every k3walls namespace that binds it, and phi on
    # its class, as perfbench/tracing.py wraps them: a hook that still exists
    # but no longer does the work it is counted for fails here
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if name == "stability.alignment_candidates":
                calls["arcs"] += len(result)
            return result
        return wrapper

    wrappers = {}
    for hook in WORKING_HOOKS:
        module, attr = hook.split(".")
        fn = getattr(importlib.import_module(f"k3walls.{module}"), attr)
        wrappers[fn] = counted(hook, fn)
    for name, mod in list(sys.modules.items()):
        if name == "k3walls" or name.startswith("k3walls."):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[obj])
    functional = importlib.import_module("k3walls.stability").AlignmentFunctional
    monkeypatch.setattr(functional, "phi", counted("phi", functional.phi))
    # (genus, v, v^2, non-degenerate walls, sampled arcs)
    for g, vt, vsq, walls, arcs in [(2, (3, 1, -7), 44, 27, 65), (12, (1, 0, -2), 4, 6, 27)]:
        calls.clear()
        cfg = k3walls.K3Config(g)
        result = k3walls.enumerate_result(cfg, k3walls.mv(*vt))
        for wall in result.walls:
            k3walls.classify(cfg, wall)
        # one solve per family (a^2, (a, v)): (-2, 0..v^2/2) and (0, 1..v^2/2)
        assert calls["solvers.solve_square_with_pairing"] == vsq + 1
        assert sum(not wall.degenerate for wall in result.walls) == walls
        assert calls["stability.alignment_candidates"] == calls["stability.holes"] == walls
        assert calls["arcs"] == arcs and calls["phi"] >= arcs
