"""Module boundaries of the gadmm package, read from its source with ast:
no module reaches into another's private names, only the record-file
module forks processes or looks at threads, and one function raises
InternalCheckError."""

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


def raise_sites(exc_name) -> list:
    """``module.function`` of every ``raise exc_name`` in the package, the
    function being the innermost enclosing def (``<module>`` outside one)."""
    sites = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc).rsplit(".", 1)[-1] == exc_name:
                sites.append(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for name, tree in sorted(MODULES.items()):
        visit(tree, name, "<module>")
    return sites


def test_internal_check_error_comes_only_from_the_metric_probe():
    # every other check reports its failure through its own error class
    assert raise_sites("InternalCheckError") == ["hpe.build_metric"]
    assert raise_sites("CertificationError") != []  # the walk finds raises
