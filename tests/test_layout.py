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


def _callers(name):
    """Each call of the named function in the package, as its module and the
    classes and functions it sits in, dotted."""
    found = []

    def visit(node, inside):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == name:
                found.append(".".join(inside))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for module, tree in sorted(MODULES.items()):
        visit(tree, (module,))
    return found


def test_only_the_rule_context_grounds_active_rules():
    assert _callers("ground_rules") == ["aic.RuleContext.ground"]


def test_only_the_rule_context_turns_the_rule_bodies_into_an_instance():
    """The rule bodies as constraints, the input of every ``Instance`` and
    ``PrioritizedDatabase`` of active rules, are built in one place."""
    assert _callers("constraints_of") == ["aic.RuleContext.pdb"]


def test_the_rule_grounding_pool_is_the_instance_pool():
    defined = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "rules_constants"
    ]
    assert defined == []


# The modules a run on a prioritized database runs; the rule side (``aic``,
# ``bridges``) runs on first use, deferred by the package's ``__init__``.
PRIORITIZED_PATH = ("cli", "textio", "query", "priorities", "repairs", "conflicts", "masks",
                    "model", "errors")
RULE_SIDE = {"aic", "bridges"}


def test_the_prioritized_path_imports_no_rule_module():
    assert set(PRIORITIZED_PATH) | RULE_SIDE | {"__init__"} == set(MODULES)
    found = []
    for module in PRIORITIZED_PATH:
        for node, _ in _imports(MODULES[module]):
            if isinstance(node, ast.Import):  # import prioritydb, import prioritydb.aic
                names = [a.name.partition(".")[2] for a in node.names if a.name.startswith("prioritydb")]
            else:  # from . import aic, from .aic import ..., from prioritydb import aic
                names = [name for source, imported in _package_imports(ast.Module([node], []))
                         for name in (imported if source == "" else [source])]
            found += [f"{module}.py:{node.lineno} imports {name}" for name in names if name in RULE_SIDE]
    assert found == []


def test_model_alone_defines_the_rule_syntax():
    syntax = {"AIC", "UpdateAtom", "UpdateAction", "action_key"}
    defined = sorted(
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in syntax
    )
    assert defined == sorted(f"model.{name}" for name in syntax)


def test_only_the_package_defers_a_module():
    importlib_users = {
        module
        for module, tree in MODULES.items()
        for node, _ in _imports(tree)
        if any(name.partition(".")[0] == "importlib" for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]))
    }
    assert importlib_users == {"__init__"}
    assert _callers("_find_spec") == ["__init__._on_first_use"]
    assert _callers("import_module") == _callers("__import__") == []
