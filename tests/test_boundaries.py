"""Module boundaries of the gadmm package, read from its source with ast:
no module reaches into another's private names, and only the record-file
module forks processes or looks at threads."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gadmm"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def private(name) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_uses_another_modules_private_name():
    used = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES.keys() - {name}
                and private(node.attr)
            ):
                used.append(f"{name}: {ast.unparse(node)}")
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names if private(alias.name)]
                used += [f"{name}: from .{node.module} import {n}" for n in names]
    assert used == []


def imports(tree) -> set:
    """The top-level packages that ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_records_imports_os_or_threading():
    importers = {name for name, tree in MODULES.items() if imports(tree) & {"os", "threading"}}
    assert importers == {"records", "cli"}
    cli = MODULES["cli"]
    assert "threading" not in imports(cli)
    # cli makes the run directory and joins paths, and nothing else with os
    calls = [ast.unparse(n.func) for n in ast.walk(cli) if isinstance(n, ast.Call)]
    os_calls = [call for call in calls if call.startswith("os.")]
    assert set(os_calls) == {"os.makedirs", "os.path.join"}
    assert len(os_calls) == sum(isinstance(n, ast.Name) and n.id == "os" for n in ast.walk(cli))
