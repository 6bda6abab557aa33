"""The package's public surface is what the README documents."""
import pathlib
import re
import types

import k3walls

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
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
