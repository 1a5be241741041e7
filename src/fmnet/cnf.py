"""Propositional CNF formulas and the DIMACS reader/writer.

Literals are signed integers in the DIMACS convention: ``v`` asserts variable
``v`` (a positive index), ``-v`` denies it. A clause is a tuple of literals
understood as a disjunction; a formula is a conjunction of clauses.

Variable names ride along in an optional map from index to name. The DIMACS
form carries them as ``c <index> <name>`` comment lines, which may appear
before or after the problem line. Unnamed variables fall back to ``v<index>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DimacsError

Clause = tuple[int, ...]


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


@dataclass(frozen=True)
class CnfFormula:
    """An immutable CNF formula over variables 1..num_vars.

    ``trivially_unsat`` records that the source contained an empty clause;
    the clause itself is not stored (clauses are non-empty by construction)
    but every downstream analysis refuses such a formula.
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    names: Mapping[int, str] = field(default_factory=dict)
    trivially_unsat: bool = False

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause; use trivially_unsat instead")
            for lit in clause:
                if not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")
        by_name: dict[str, int] = {}
        for index, name in self.names.items():
            if not 1 <= index <= self.num_vars:
                raise ValueError(f"name index {index} out of range")
            if name in by_name:
                raise ValueError(f"name {name!r} used for variables {by_name[name]} and {index}")
            by_name[name] = index

    def name_of(self, var: int) -> str:
        return self.names.get(var, f"v{var}")

    def variables(self) -> range:
        return range(1, self.num_vars + 1)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text into a CnfFormula.

    Enforced shape: exactly one ``p cnf <vars> <clauses>`` line before any
    clause, every clause 0-terminated, literal indices within range, and the
    number of clauses read equal to the declared count. Tautologies and
    duplicate literals are normalized away after that count check. Blank
    lines and comments are accepted anywhere; a comment of the exact shape
    ``c <index> <name>`` declares a variable name.
    """
    num_vars: int | None = None
    declared_clauses: int | None = None
    clauses: list[Clause] = []
    trivially_unsat = False
    pending: list[int] = []
    name_comments: list[tuple[int, int, str]] = []  # (line_no, index, name)
    clause_count = 0

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("c"):
            tokens = stripped[1:].split()
            if len(tokens) == 2 and tokens[0].isdigit() and int(tokens[0]) > 0:
                name_comments.append((line_no, int(tokens[0]), tokens[1]))
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate problem line", line_no)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed problem line {stripped!r}", line_no)
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed problem line {stripped!r}", line_no) from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError("negative counts in problem line", line_no)
            continue
        # clause data
        if num_vars is None:
            raise DimacsError("clause data before problem line", line_no)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"invalid literal token {token!r}", line_no) from None
            if lit == 0:
                clause_count += 1
                if not pending:
                    trivially_unsat = True
                else:
                    clause = normalize_clause(pending)
                    if clause is not None:
                        clauses.append(clause)
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
    for line_no, index, name in name_comments:
        if index > num_vars:
            raise DimacsError(f"name comment for variable {index} out of range", line_no)
        if index in names:
            raise DimacsError(f"duplicate name comment for variable {index}", line_no)
        names[index] = name

    return CnfFormula(
        num_vars=num_vars, clauses=tuple(clauses), names=names, trivially_unsat=trivially_unsat
    )


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize a CnfFormula to DIMACS text.

    Layout: problem line, then name comments sorted by index, then clauses in
    order. A trivially unsatisfiable formula regains its empty clause as a
    bare ``0`` line so the flag survives a round trip.
    """
    clause_total = len(formula.clauses) + (1 if formula.trivially_unsat else 0)
    lines = [f"p cnf {formula.num_vars} {clause_total}"]
    for index in sorted(formula.names):
        lines.append(f"c {index} {formula.names[index]}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    if formula.trivially_unsat:
        lines.append("0")
    return "\n".join(lines) + "\n"
