"""The package's public surface is what the README documents."""
import ast
import pathlib
import re
import types

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
    "two_part_splits",
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
    "central_charge": "the charge Z(x) at (b, t^2) as one value, read by the "
    "stability tests; the engine uses its parts",
    "moduli_dim": "read by the lattice tests; ROADMAP item 3 computes the "
    "base dimensions of the flop strata with it",
    "transport_check": "read by the transport tests; ROADMAP item 7 runs it "
    "on the genus ladder",
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
