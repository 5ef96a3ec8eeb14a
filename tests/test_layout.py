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
# ``bridges``) and the oracles run on first use, deferred by the package's
# ``__init__``.
PRIORITIZED_PATH = ("cli", "textio", "query", "priorities", "repairs", "conflicts", "masks",
                    "model", "errors")
RULE_SIDE = {"aic", "bridges"}
ON_FIRST_USE = RULE_SIDE | {"oracles"}


def test_the_prioritized_path_imports_no_rule_module():
    assert set(PRIORITIZED_PATH) | ON_FIRST_USE | {"__init__"} == set(MODULES)
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


# The oracles, and the rule side's integer layer, with the helpers only they use.
MOVED = {
    "conflicts_via_hitting_sets", "minimal_hitting_sets", "delta_repairs_bruteforce",
    "_as_bitmask_problem", "is_pareto_improvement", "is_global_improvement",
    "greedy_optimal_repair", "completions", "completion_optimal_repairs_bruteforce",
    "is_founded", "is_well_founded", "is_grounded", "is_grounded_via_pruned_rules",
    "is_justified", "normalize_ground", "restrict_rules_to_actions", "satisfies_rules",
    "no_effect_actions", "_closed_under",
    "RuleMasks", "rule_rows", "_reaches", "_proper_submasks", "consistent_mask", "classified",
}


def test_the_prioritized_path_holds_no_oracle_and_no_rule_mask_code():
    """Where the oracles and the rule side's integer code live: a module that
    a prioritized run compiles defines none of them, at any depth, and
    imports no module that runs on first use outside a function."""
    hot = PRIORITIZED_PATH + ("__init__",)
    defined = sorted(
        f"{module}.{node.name}"
        for module in hot
        for node in ast.walk(MODULES[module])
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in MOVED
    )
    assert defined == []
    imported = []
    for module in hot:
        for node, inside in _imports(MODULES[module]):
            if isinstance(node, ast.Import):
                names = [a.name.partition(".")[2] for a in node.names if a.name.startswith("prioritydb")]
            else:
                names = [name for source, imported in _package_imports(ast.Module([node], []))
                         for name in (imported if source == "" else [source])]
            imported += [f"{module}.py:{node.lineno} imports {name}"
                         for name in names if name in ON_FIRST_USE and not inside]
    assert imported == []


def test_the_oracles_and_the_rule_masks_live_on_the_side_that_runs_on_first_use():
    defined = {
        node.name: module
        for module in ON_FIRST_USE
        for node in MODULES[module].body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in MOVED
    }
    assert {name for name, module in defined.items() if module == "aic"} == {
        "RuleMasks", "rule_rows", "_reaches", "_proper_submasks", "consistent_mask"}
    assert MOVED - defined.keys() == {"classified"}  # aic.classify_rows, a function now
    assert set(defined.values()) == {"aic", "oracles"}


def test_conflicts_imports_neither_repairs_nor_masks():
    assert {module for module, _ in _package_imports(MODULES["conflicts"])} <= {"errors", "model"}


def test_model_alone_defines_the_rule_syntax():
    syntax = {"AIC", "UpdateAtom", "UpdateAction", "action_key"}
    defined = sorted(
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in syntax
    )
    assert defined == sorted(f"model.{name}" for name in syntax)


def _top_level(node):
    """The top-level names of the modules an import statement imports from."""
    names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
    return {name.partition(".")[0] for name in names}


def test_only_the_package_defers_a_module():
    importlib_users = {
        module
        for module, tree in MODULES.items()
        for node, _ in _imports(tree)
        if "importlib" in _top_level(node)
    }
    assert importlib_users == {"__init__"}
    assert _callers("_find_spec") == ["__init__._on_first_use"]
    assert _callers("import_module") == _callers("__import__") == []


def test_no_module_imports_dataclasses_or_inspect():
    """The value classes are named tuples or ``model.Frozen`` subclasses, so
    neither side of the package pays for ``dataclasses`` and ``inspect``."""
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in MODULES.items()
        for node, _ in _imports(tree)
        if {"dataclasses", "inspect"} & _top_level(node)
    ]
    assert found == []


def test_no_module_uses_functools_cached_property():
    """Cached values go through ``model.cached``, which writes the instance
    dict without the class-wide lock that ``functools.cached_property``
    takes before Python 3.12."""
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and "cached_property" in [a.name for a in node.names]
        or isinstance(node, ast.Attribute) and node.attr == "cached_property"
    ]
    assert found == []
