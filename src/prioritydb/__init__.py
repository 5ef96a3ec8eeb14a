"""Repairs and inconsistency-tolerant query answering for prioritized
databases under universal constraints, with the full active-integrity-rule
r-update taxonomy and translations between the two frameworks."""

from .aic import (
    AIC,
    GroundAIC,
    PropertyReport,
    RUpdate,
    RuleContext,
    UpdateAction,
    UpdateAtom,
    apply_actions,
    check_properties,
    classify_r_updates,
    ground_rules,
    is_founded,
    is_grounded,
    is_grounded_via_pruned_rules,
    is_justified,
    is_well_founded,
    normalize,
    r_updates,
    repairs_of_kind,
)
from .bridges import (
    DenialImage,
    check_denial_image,
    check_roundtrip,
    check_translation_equivalence,
    minimized_denials,
    priority_to_rules,
    rules_to_priority,
    stored_priority_rules,
    to_denial,
)
from .conflicts import (
    Conflict,
    ConflictHypergraph,
    conflict_hypergraph,
    conflicts,
    conflicts_via_hitting_sets,
    is_conflict,
    max_conflict_size,
    minimal_hitting_sets,
    prime_implicants,
)
from .errors import Budget, BudgetExceededError, InputError, ParseError
from .model import (
    BodyAtom,
    Database,
    Fact,
    Instance,
    Literal,
    Schema,
    UniversalConstraint,
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
    completion_optimal_repairs_bruteforce,
    completions,
    detect_score_structure,
    greedy_optimal_repair,
    is_global_improvement,
    is_optimal_repair,
    is_pareto_improvement,
    lexicographic_repairs,
    optimal_repairs,
    score_structure_from_scores,
    validate_priority,
)
from .query import AnswerSet, ConjunctiveQuery, answers, evaluate, repairs_intersection
from .repairs import (
    RepairSet,
    delta_repairs,
    delta_repairs_bruteforce,
    is_delta_repair,
    subset_repairs,
    superset_repairs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
