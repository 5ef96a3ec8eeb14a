"""Repairs and inconsistency-tolerant query answering for prioritized
databases under universal constraints, with the full active-integrity-rule
r-update taxonomy and translations between the two frameworks.

The prioritized-database side loads with the package.  Three submodules run
on first use: the rule side, ``aic`` and ``bridges``, and ``oracles``, the
definition-direct reference paths that the tests hold the production code
to.  They are in ``sys.modules`` and bound here from the start, but a
module's code runs only at the first lookup of one of its attributes, and
their names resolve through the module ``__getattr__`` (PEP 562).  So
``import prioritydb`` and a run that never touches active rules compile none
of them, and no production path runs an oracle.  The rule syntax (``AIC``,
``UpdateAtom``, ``UpdateAction``) is defined in ``model`` and loads with it.
The value classes are named tuples or ``model.Frozen`` subclasses, so no
module imports ``dataclasses``, which would bring ``inspect`` with it.
"""

from _thread import RLock as _RLock  # threading.RLock, without importing threading
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec
from sys import modules as _modules
from types import ModuleType as _ModuleType

from .conflicts import (
    Conflict,
    ConflictHypergraph,
    conflict_hypergraph,
    conflicts,
    is_conflict,
    max_conflict_size,
    prime_implicants,
)
from .errors import Budget, BudgetExceededError, InputError, ParseError
from .model import (
    AIC,
    BodyAtom,
    Database,
    Fact,
    Instance,
    Literal,
    Schema,
    UniversalConstraint,
    UpdateAction,
    UpdateAtom,
    agreement,
    facts_universe,
    literal_universe,
    restriction,
    satisfies,
    schema_from,
)
from .priorities import (
    PrioritizedDatabase,
    PriorityRelation,
    ScoreStructure,
    detect_score_structure,
    is_optimal_repair,
    lexicographic_repairs,
    optimal_repairs,
    score_structure_from_scores,
    validate_priority,
)
from .query import AnswerSet, ConjunctiveQuery, answers, evaluate, repairs_intersection
from .repairs import (
    RepairSet,
    delta_repairs,
    is_delta_repair,
    subset_repairs,
    superset_repairs,
)


_FIRST_USE = _RLock()
_RUNNING: set = set()


class _RunsOnFirstUse(_ModuleType):
    """A submodule whose code has not run yet.  The first attribute lookup
    runs it in place, so every holder of the module object sees the result,
    and then makes it a plain module.  Lookups from other threads wait for
    that run; the module's own lookups while it runs go through, as in a
    circular import.  (``importlib.util.LazyLoader`` lets other threads see
    the half-run module on Python 3.11.)"""

    def __getattribute__(self, name):
        with _FIRST_USE:
            if type(self) is _RunsOnFirstUse and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    _ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = _ModuleType
                finally:
                    _RUNNING.discard(self)
        return _ModuleType.__getattribute__(self, name)


def _on_first_use(name: str) -> _ModuleType:
    """The submodule ``name``, entered in ``sys.modules`` now and run at the
    first lookup of one of its attributes."""
    spec = _find_spec(f"{__name__}.{name}")
    module = _module_from_spec(spec)
    module.__class__ = _RunsOnFirstUse
    _modules[spec.name] = module
    return module


aic = _on_first_use("aic")
bridges = _on_first_use("bridges")
oracles = _on_first_use("oracles")

# The names of the modules that run on first use, by the module that defines
# them.  The first lookup of a name runs the module.
_ON_FIRST_USE = {
    "aic": (
        "GroundAIC",
        "PropertyReport",
        "RUpdate",
        "RuleContext",
        "apply_actions",
        "check_properties",
        "classify_r_updates",
        "ground_rules",
        "normalize",
        "r_updates",
        "repairs_of_kind",
    ),
    "bridges": (
        "DenialImage",
        "check_denial_image",
        "check_roundtrip",
        "check_translation_equivalence",
        "minimized_denials",
        "priority_to_rules",
        "rules_to_priority",
        "stored_priority_rules",
    ),
    "oracles": (
        "completion_optimal_repairs_bruteforce",
        "completions",
        "conflicts_via_hitting_sets",
        "delta_repairs_bruteforce",
        "greedy_optimal_repair",
        "is_founded",
        "is_global_improvement",
        "is_grounded",
        "is_grounded_via_pruned_rules",
        "is_justified",
        "is_pareto_improvement",
        "is_well_founded",
        "minimal_hitting_sets",
    ),
}
_DEFINED_IN = {name: module for module, names in _ON_FIRST_USE.items() for name in names}

# The oracles are public by name; the module itself stays out of a star import.
__all__ = sorted({name for name in dir() if not name.startswith("_")} - {"oracles"}
                 | _DEFINED_IN.keys())


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | __all__)
