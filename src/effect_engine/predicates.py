"""Subset predicates over dataset rows.

A predicate is a conjunction of ``column OP literal`` clauses with OP in
{==, !=, <, <=, >, >=}. Clauses may reference any covariate, and the period
column as ``period`` whatever its CSV header; an unknown column is refused
with the names that work. The string form used in configs looks like
``"x >= 3 and grade == 4"``; literals compare numerically against numeric
columns and as strings against categorical ones (ordering operators require
a numeric column). A literal in single or double quotes may hold anything
but its own quote, ``and`` and the operators included; an unquoted one may
hold no operator and may not end in a bare ``and``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, LabelColumn

__all__ = ["Clause", "Predicate", "describe_predicate", "parse_predicate", "resolve_mask"]

_OPS = {
    "==": lambda col, lit: col == lit,
    "!=": lambda col, lit: col != lit,
    "<": lambda col, lit: col < lit,
    "<=": lambda col, lit: col <= lit,
    ">": lambda col, lit: col > lit,
    ">=": lambda col, lit: col >= lit,
}

_ORDERING_OPS = ("<", "<=", ">", ">=")

# The literal may not start with a comparison character, so a typo like
# "x >>> 3" fails to parse instead of comparing against the string ">> 3".
_CLAUSE_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_.-]*)\s*(==|!=|<=|>=|<|>)\s*([^\s<>=!].*?)\s*$"
)
# An " and " that joins two clauses (group 1), or an operator and the quoted
# literal after it, taken whole so that an " and " inside the quotes joins
# nothing.
_JOIN_RE = re.compile(r"""(\s+and\s+)|[=!<>]=?\s*(?:'[^']*'|"[^"]*")""")


@dataclass(frozen=True)
class Clause:
    column: str
    op: str
    literal: object  # float or str

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def describe(self) -> str:
        """``column op literal``, with the literal quoted where its bare form
        would not parse back to it, alone or with a clause after it."""
        bare = f"{self.column} {self.op} {self.literal}"
        try:
            again = parse_predicate(f"{bare} and {bare}").clauses
        except ValueError:
            again = ()
        if again == (Clause(self.column, self.op, str(self.literal)),) * 2:
            return bare
        quote = '"' if "'" in str(self.literal) else "'"
        return f"{self.column} {self.op} {quote}{self.literal}{quote}"

    def mask(self, data: Dataset) -> np.ndarray:
        col = _column_values(data, self.column)
        if not isinstance(col, LabelColumn):
            try:
                lit = float(self.literal)
            except (TypeError, ValueError):
                raise ValueError(
                    f"predicate literal {self.literal!r} is not numeric but "
                    f"column {self.column!r} is"
                ) from None
            return _OPS[self.op](col, lit)
        if self.op in _ORDERING_OPS:
            raise ValueError(
                f"ordering operator {self.op!r} requires a numeric column, "
                f"but {self.column!r} is categorical"
            )
        # Compare the column's codes with the literal's level index.
        lit = str(self.literal)
        hit = (col.codes == col.levels.index(lit) if lit in col.levels
               else np.zeros(data.n, dtype=bool))
        return hit if self.op == "==" else ~hit


@dataclass(frozen=True)
class Predicate:
    """Conjunction of clauses; an empty clause list selects every row."""

    clauses: tuple[Clause, ...] = ()

    def describe(self) -> str:
        if not self.clauses:
            return "true"
        return " and ".join(c.describe() for c in self.clauses)

    def mask(self, data: Dataset) -> np.ndarray:
        out = np.ones(data.n, dtype=bool)
        for clause in self.clauses:
            out &= clause.mask(data)
        return out


def _column_values(data: Dataset, name: str) -> np.ndarray | LabelColumn:
    if name in data.covariates:
        return data.covariates[name]
    if name == "period" and data.period is not None:
        return np.asarray(data.period, dtype=np.float64)
    usable = list(data.covariates)
    if data.period is not None and "period" not in usable:
        usable.append("period")
    raise ValueError(f"unknown predicate column {name!r}; the data's predicate columns are "
                     f"{', '.join(map(repr, usable)) or 'none'}")


def parse_predicate(text: str) -> Predicate:
    """Parse the config predicate grammar: clauses joined by ``and``."""
    if not text or not text.strip():
        raise ValueError("empty predicate string")
    text, parts, start = text.strip(), [], 0
    for join in _JOIN_RE.finditer(text):
        if join.group(1):
            parts.append(text[start:join.start()])
            start = join.end()
    clauses = []
    for part in [*parts, text[start:]]:
        m = _CLAUSE_RE.match(part)
        if m is None:
            raise ValueError(f"cannot parse predicate clause {part!r}")
        column, op, raw = m.group(1), m.group(2), m.group(3)
        raw = raw.strip()
        if (raw.startswith("'") and raw.endswith("'")) or (
            raw.startswith('"') and raw.endswith('"')
        ):
            literal: object = raw[1:-1]
        else:
            # Bare literals stay raw strings; the clause coerces them against
            # the column's type at evaluation time, so "grade == 4" matches
            # the categorical level "4" rather than the rendering of 4.0.
            literal = raw
            if re.search(r"[=!]=|[<>]", raw):
                raise ValueError(
                    f"cannot parse predicate clause {part!r}: the unquoted literal {raw!r} "
                    "holds a comparison operator; quote it, or join clauses with 'and'")
            if raw.split()[-1] == "and":
                raise ValueError(
                    f"cannot parse predicate clause {part!r}: the unquoted literal {raw!r} "
                    "ends in 'and' with no clause after it; quote it, or finish the clause")
        clauses.append(Clause(column=column, op=op, literal=literal))
    return Predicate(clauses=tuple(clauses))


def describe_predicate(predicate) -> str | None:
    """Render a predicate argument for the ``query`` echo in results."""
    if predicate is None:
        return None
    if isinstance(predicate, Predicate):
        return predicate.describe()
    if isinstance(predicate, str):
        return predicate
    return "<custom>"


def resolve_mask(data: Dataset, predicate) -> np.ndarray:
    """Normalize the accepted predicate forms to a boolean row mask.

    ``None`` selects everything; other accepted forms are a
    :class:`Predicate`, a predicate string, or a boolean mask array.
    """
    if predicate is None:
        return np.ones(data.n, dtype=bool)
    if isinstance(predicate, Predicate):
        return predicate.mask(data)
    if isinstance(predicate, str):
        return parse_predicate(predicate).mask(data)
    if isinstance(predicate, np.ndarray) or isinstance(predicate, Sequence):
        mask = np.asarray(predicate)
        if mask.dtype != bool or mask.shape != (data.n,):
            raise ValueError("mask predicate must be a length-n boolean array")
        return mask
    raise TypeError(f"unsupported predicate type {type(predicate).__name__}")
