"""The module layout of the package: where imports sit and what they name."""

import ast
from pathlib import Path

import prioritydb

PACKAGE = Path(prioritydb.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _imports(tree):
    """Each import statement with the names of the functions it sits in."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append((node, inside))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside = inside + (getattr(node, "name", "<lambda>"),)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, ())
    return found


def _package_imports(tree):
    """Per import from a package module, that module's name and the names
    imported from it."""
    out = []
    for node, _ in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.append((node.module, [a.name for a in node.names]))
            else:  # from . import a, b
                out += [(a.name, []) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prioritydb"):
            out.append((node.module.partition(".")[2], [a.name for a in node.names]))
    return out


def test_no_import_inside_a_function():
    inner = [
        f"{module}.py:{node.lineno} in {'.'.join(inside)}"
        for module, tree in MODULES.items()
        for node, inside in _imports(tree)
        if inside
    ]
    assert inner == []


def test_masks_imports_only_errors_and_model():
    assert "masks" in MODULES
    assert {module for module, _ in _package_imports(MODULES["masks"])} <= {"errors", "model"}


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{module}.py imports {name} from {source}"
        for module, tree in MODULES.items()
        for source, names in _package_imports(tree)
        for name in names
        if name.startswith("_")
    ]
    assert private == []
