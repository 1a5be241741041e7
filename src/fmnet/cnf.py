"""Propositional CNF formulas and the DIMACS reader/writer.

Literals are signed integers in the DIMACS convention: ``v`` asserts variable
``v`` (a positive index), ``-v`` denies it. A clause is a tuple of literals
understood as a disjunction; a formula is a conjunction of clauses. A
formula holds its clauses in normal form: no tautology, no literal twice.
The empty clause is a clause like any other, and makes the formula
unsatisfiable.

Variable names ride along in an optional map from index to name. The DIMACS
form carries them as ``c <index> <name>`` comment lines, which may appear
before or after the problem line, so a name is one token without whitespace.
It holds only characters of XML 1.0 (no C0 control, U+FFFE, U+FFFF or lone
surrogate), so that the GraphML export stays well-formed.
Unnamed variables fall back to ``v<index>``, so no other variable may take
that name while variable <index> has none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DimacsError

Clause = tuple[int, ...]

# Not in XML 1.0; it has tab, LF and CR, but a name holds no whitespace.
_NOT_XML_CHAR = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")


def _integer(token: str) -> int | None:
    """The value of an ASCII decimal token ``-?[0-9]+``; None for any other,
    and for one with more digits than ``int()`` converts.

    ``token`` comes from ``str.split()`` and so holds no whitespace; of the
    ASCII strings left, ``int()`` accepts more only with ``+`` or ``_``.
    """
    if token.isascii() and "+" not in token and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    return None


def normalize_clause(literals: Iterable[int]) -> Clause | None:
    """Drop duplicate literals and return None for tautologies.

    The surviving literals keep first-occurrence order so that emitted output
    is stable.
    """
    seen: set[int] = set()
    out: list[int] = []
    for lit in literals:
        if lit == 0 or not isinstance(lit, int):
            raise ValueError(f"invalid literal {lit!r}")
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def name_fault(names: Mapping[int, str], num_vars: int) -> tuple[int, str] | None:
    """The first name, in the map's order, that is not one token of XML 1.0
    characters, repeats an earlier one or is the fallback name ``v<k>`` of an
    unnamed variable k, with the reason; None when no name is at fault."""
    by_name: dict[str, int] = {}
    for index, name in names.items():
        if name.split() != [name]:  # DIMACS carries a name as one token
            return index, f"name {name!r} of variable {index} is not one token"
        if _NOT_XML_CHAR.search(name):
            return index, f"name {name!r} of variable {index} holds a character outside XML"
        if name in by_name:
            return index, f"name {name!r} used for variables {by_name[name]} and {index}"
        by_name[name] = index
    for index, name in names.items():
        k = _integer(name[1:]) if name.startswith("v") else None
        if k is not None and name == f"v{k}" and 0 < k <= num_vars and k not in names:
            return index, (
                f"name {name!r} of variable {index} is the fallback name of unnamed variable {k}"
            )
    return None


@dataclass(frozen=True)
class CnfFormula:
    """An immutable CNF formula over variables 1..num_vars.

    Construction normalizes every clause (see ``normalize_clause``): a
    tautology is dropped and a repeated literal kept once, and clauses
    given as lists are stored as tuples. So two formulas that differ only
    in these compare equal. An empty clause is kept in its place.
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    names: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        clauses = []
        for clause in self.clauses:
            for lit in clause:
                if not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")
            if (normalized := normalize_clause(clause)) is not None:
                clauses.append(normalized)
        object.__setattr__(self, "clauses", tuple(clauses))
        for index in self.names:
            if not 1 <= index <= self.num_vars:
                raise ValueError(f"name index {index} out of range")
        if fault := name_fault(self.names, self.num_vars):
            raise ValueError(fault[1])

    def name_of(self, var: int) -> str:
        return self.names.get(var, f"v{var}")

    def variables(self) -> range:
        return range(1, self.num_vars + 1)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text into a CnfFormula.

    Enforced shape: exactly one ``p cnf <vars> <clauses>`` line before any
    clause, every clause 0-terminated, literal indices within range, and the
    number of clauses read equal to the declared count. The formula built
    then drops tautologies and repeated literals, so the count check sees
    every clause as written; a bare ``0`` is the empty clause. Blank
    lines and comments are accepted anywhere; a comment of the exact shape
    ``c <index> <name>`` declares a variable name. Every number (a literal,
    a count on the problem line, a name comment's index) is written in ASCII
    digits with an optional leading ``-``; ``+1``, ``1_0`` or other digits
    are refused, and a comment whose index is not such a number is plain.
    """
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    name_comments: list[tuple[int, int, str]] = []  # (line_no, index, name)
    clause_count = 0

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("c"):
            tokens = stripped[1:].split()
            index = _integer(tokens[0]) if len(tokens) == 2 else None
            if index is not None and index > 0:
                name_comments.append((line_no, index, tokens[1]))
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate problem line", line_no)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line {stripped!r}", line_no)
            num_vars, declared_clauses = _integer(parts[2]), _integer(parts[3])
            if num_vars is None or declared_clauses is None:
                raise DimacsError(f"malformed problem line {stripped!r}", line_no)
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError("negative counts in problem line", line_no)
            continue
        # clause data
        if num_vars is None:
            raise DimacsError("clause data before problem line", line_no)
        for token in stripped.split():
            lit = _integer(token)
            if lit is None:
                raise DimacsError(f"invalid literal token {token!r}", line_no)
            if lit == 0:
                clause_count += 1
                clauses.append(pending)
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"literal {lit} exceeds declared variable count {num_vars}", line_no
                    )
                pending.append(lit)

    if num_vars is None or declared_clauses is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("last clause is not 0-terminated")
    if clause_count != declared_clauses:
        raise DimacsError(
            f"problem line declares {declared_clauses} clauses but {clause_count} were read"
        )

    names: dict[int, str] = {}
    name_lines: dict[int, int] = {}
    for line_no, index, name in name_comments:
        if index > num_vars:
            raise DimacsError(f"name comment for variable {index} out of range", line_no)
        if index in names:
            raise DimacsError(f"duplicate name comment for variable {index}", line_no)
        names[index] = name
        name_lines[index] = line_no
    if fault := name_fault(names, num_vars):
        raise DimacsError(fault[1], name_lines[fault[0]])

    return CnfFormula(num_vars=num_vars, clauses=clauses, names=names)


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize a CnfFormula to DIMACS text.

    Layout: problem line, then name comments sorted by index, then clauses in
    order, one a line; the empty clause is a bare ``0`` in its place.
    """
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for index in sorted(formula.names):
        lines.append(f"c {index} {formula.names[index]}")
    for clause in formula.clauses:
        lines.append(" ".join([*map(str, clause), "0"]))
    return "\n".join(lines) + "\n"
