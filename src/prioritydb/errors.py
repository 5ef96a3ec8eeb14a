"""Exceptions and enumeration budgets shared across the engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TypeVar

T = TypeVar("T")


class InputError(Exception):
    """Malformed or inconsistent user input (bad syntax, arity clash, unsafe rule)."""


class ParseError(InputError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class BudgetExceededError(Exception):
    """An exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class Budget:
    """Caps on the exponential enumerations.

    max_universe bounds the number of facts (or literals) a subset or
    minimal-transversal enumeration may range over; max_completions bounds how
    many total extensions of a priority relation may be generated.
    """

    max_universe: int = 22
    max_completions: int = 10**6

    def check_universe(self, size: int, what: str = "fact universe") -> None:
        if size > self.max_universe:
            raise BudgetExceededError(
                f"{what} has {size} elements, above the cap of {self.max_universe}"
            )


DEFAULT_BUDGET = Budget()


def subsets(items: Iterable[T], budget: Budget, what: str) -> Iterator[frozenset[T]]:
    """Every subset of ``items``, in binary-counting order over their given
    order; the budget is checked before the first subset is built."""
    members = list(items)
    budget.check_universe(len(members), what)
    return (
        frozenset(m for i, m in enumerate(members) if mask >> i & 1)
        for mask in range(1 << len(members))
    )
