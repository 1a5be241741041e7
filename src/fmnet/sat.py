"""Incremental CDCL SAT solving under assumptions.

The engine is self-contained: conflict-driven clause learning with two
watched literals, first-UIP learning, activity-based decisions, phase
saving, and Luby restarts. Assumptions are handled the classic way, as
forced decisions on the first levels of the search, so a learned clause is
always implied by the formula alone and can be kept across calls.

Most queries are satisfiable by a small change to the model before them,
so a solve first tries that change: it walks the last model returned to
fit the assumptions by flipping, for each clause a change makes false, its
first literal not yet fixed (the local search plus unit propagation of
UnitWalk). A walk is a cheap first try and can only say SAT; when it
fails, CDCL search decides, and every UNSAT answer comes from the search.
Soft literals take the same walk, each that needs a flip on its own, and
are kept when it succeeds: they shape the model, never the answer.

Everything here is deterministic: same formula, same call sequence, same
answer, including the returned model. Only the SAT/UNSAT status is part of
the semantic contract; which model comes back is an implementation detail
that tests must not rely on beyond "it satisfies the formula".

A model leaves this module as one integer, the bitmask of the variables it
sets true (bit v for variable v, bit 0 clear). What unit propagation
derives from the formula and the assumptions leaves it as masks too, one of
the variables set true and one of those set false. Soft literals come in
as such a pair, the variables wanted true and those wanted false, so a
caller builds no list of literals. ``members`` lists the variables of a
mask. The extractor decodes masks through it. The enumeration oracle in
``oracle.py`` runs its own small DPLL and uses nothing from this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .cnf import CnfFormula

# Variable truth values. The encoding makes literal evaluation a xor:
# value(lit) == _VALUES[var] ^ (sign bit), giving 1 for true, 0 for false
# and >= 2 for unassigned.
_FALSE, _TRUE, _UNASSIGNED = 0, 1, 2
# Renders a value list, highest variable first, as binary digits.
_MODEL_DIGITS = bytes.maketrans(bytes((_FALSE, _TRUE, _UNASSIGNED)), b"010")

_RESTART_BASE = 100
_ACTIVITY_DECAY = 1.0 / 0.95
_ACTIVITY_LIMIT = 1e100


class Status(enum.Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass(frozen=True)
class SatOutcome:
    """Result of one solve call.

    ``model``, the mask of a total assignment, is present exactly when the
    status is SAT.
    """

    status: Status
    model: int | None = None

    def __post_init__(self):
        if (self.status is Status.SAT) != (self.model is not None):
            raise ValueError("model must be present exactly for SAT outcomes")


def members(mask: int) -> list[int]:
    """The variables whose bit is set in ``mask`` (bit v for variable v), ascending.

    One ``find`` per set bit over the mask's binary digits, lowest bit
    first, so a pass costs time linear in the mask's width.
    """
    digits = bin(mask)[:1:-1]
    found = []
    var = digits.find("1")
    while var >= 0:
        found.append(var)
        var = digits.find("1", var + 1)
    return found


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence."""
    k = i.bit_length()
    while i != (1 << k) - 1:
        i -= (1 << (k - 1)) - 1
        k = i.bit_length()
    return 1 << (k - 1)


class SatEngine:
    """CDCL solver over one formula, loaded at construction. Learned clauses
    persist across solve calls; being implied, they never change a status."""

    def __init__(self, formula: CnfFormula):
        n = formula.num_vars
        self.num_vars = n
        self.num_solve_calls = 0
        self._ok = True
        # Literal codes: positive v -> 2v, negative v -> 2v + 1.
        self._values = [_UNASSIGNED] * (n + 1)
        self._levels = [0] * (n + 1)
        self._reasons: list[int] = [-1] * (n + 1)
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._clauses: list[list[int]] = []
        self._watches: list[list[int]] = [[] for _ in range(2 * n + 2)]
        # The stored clauses each literal code occurs in; learned ones are left
        # out, since every model of the stored clauses satisfies them.
        self._occurs: list[list[int]] = [[] for _ in range(2 * n + 2)]
        # The values of the last model returned, which the next walk changes in place.
        self._model: bytearray | None = None
        self._activity = [0.0] * (n + 1)
        self._activity_inc = 1.0
        self._saved_phase = [False] * (n + 1)
        self._heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]
        # Each clause, normalized and in range as CnfFormula keeps it, against
        # the root as the earlier ones left it; an empty one makes it unsatisfiable.
        for clause in formula.clauses:
            if not self._ok:
                break
            lits = []
            for lit in clause:
                code = abs(lit) << 1 | (lit < 0)
                value = self._values[code >> 1] ^ (code & 1)
                if value == _TRUE:
                    break  # already satisfied at the root
                if value != _FALSE:  # a literal false at the root is dropped
                    lits.append(code)
            else:
                if not lits:
                    self._ok = False
                elif len(lits) == 1:
                    self._assign(lits[0], -1)
                    self._at_root()
                else:
                    cid = self._attach(lits)
                    for code in lits:
                        self._occurs[code].append(cid)

    # ---- public API ----

    def implied_literals(self, assumptions: Sequence[int]) -> tuple[int, int] | None:
        """What unit propagation alone derives from the formula and the assumptions.

        Returns ``(true_mask, false_mask)``, every variable set true and set
        false (bit v for variable v): those fixed at the root, the
        assumptions, and what they propagate. None when propagation runs
        into a conflict. Nothing is learned.
        """
        codes = self._codes(assumptions)
        if not self._at_root():
            return None
        for code in codes:
            if not self._decide(code) or self._propagate() is not None:
                return None
        masks = [0, 0]
        for code in self._trail:
            masks[code & 1] |= 1 << (code >> 1)
        return masks[0], masks[1]

    def solve(self, assumptions: Sequence[int] = (), soft: tuple[int, int] = (0, 0)) -> SatOutcome:
        """Decide satisfiability of the clauses under the given assumptions.

        A cheap first try walks the last model returned to fit the
        assumptions (see ``_walk``). When that fails, CDCL search decides.
        A walk can only find a model, so every UNSAT answer comes from the
        search. The model of a SAT answer then takes the soft literals,
        given as ``(true_mask, false_mask)`` like the result of
        ``implied_literals``: the variables of the true mask, then those of
        the false mask, each in ascending order. A variable already fixed
        is skipped, a free one with the wanted value is fixed as it is,
        and only one that needs a flip gets a walk, kept when it succeeds.
        So a variable in both masks is tried true first.
        """
        self.num_solve_calls += 1
        codes = self._codes(assumptions)
        true_mask, false_mask = soft
        for mask in soft:
            if not isinstance(mask, int) or mask < 0 or mask & 1 or mask >> (self.num_vars + 1):
                raise ValueError(f"soft mask {mask!r} out of range 1..{self.num_vars}")
        if not self._at_root():
            return SatOutcome(Status.UNSAT)
        fixed = bytearray(self._values)  # _UNASSIGNED marks a variable still free
        model = self._model
        if model is None or not self._walk(model, fixed, codes):
            if not self._search(codes):
                return SatOutcome(Status.UNSAT)
            model = self._model = bytearray(self._values)
            self._walk(model, fixed, codes)  # fixes the assumptions, flips nothing
        for sign, mask in ((0, true_mask), (1, false_mask)):  # literal code 2v + sign
            for var in members(mask):
                if fixed[var] != _UNASSIGNED:
                    continue
                if model[var] ^ sign == _TRUE:
                    fixed[var] = model[var]
                else:
                    self._walk(model, fixed, [var << 1 | sign])
        # Entry 0 is never assigned, so bit 0 comes out clear.
        return SatOutcome(Status.SAT, int(model[::-1].translate(_MODEL_DIGITS), 2))

    # ---- internals ----

    def _walk(self, model: bytearray, fixed: bytearray, codes: list[int]) -> bool:
        """Change ``model`` in place to satisfy the literals ``codes`` and fix them.

        ``fixed`` holds ``_UNASSIGNED`` for a free variable and a fixed
        one's value before the walk fixed it. Each stored clause that a
        change makes false gets its first free literal flipped, which fixes
        that variable as well, so no variable changes twice. The walk fails
        on a false literal or clause with only fixed variables, and then
        undoes its own flips and fixes. The starting model satisfies every
        clause and fixed literal, so a clause the walk never visits still
        holds; learned clauses need no visit, being implied by the rest. So
        a walk that succeeds leaves a model of every clause and fixed literal.
        (UnitWalk's repair step: Hirsch & Kojevnikov, Annals of Mathematics
        and Artificial Intelligence 43, 2005.)
        """
        journal = []  # the variables this walk fixed
        falsified = []
        ok = True
        for code in codes:
            var = code >> 1
            if fixed[var] == _UNASSIGNED:
                fixed[var] = model[var]
                journal.append(var)
                if model[var] ^ (code & 1) != _TRUE:
                    model[var] ^= 1
                    falsified.append(code ^ 1)
            elif model[var] ^ (code & 1) != _TRUE:
                ok = False
                break
        clauses, occurs = self._clauses, self._occurs
        while ok and falsified:
            for cid in occurs[falsified.pop()]:
                flip = -1
                for code in clauses[cid]:
                    if model[code >> 1] ^ (code & 1) == _TRUE:
                        break
                    if flip < 0 and fixed[code >> 1] == _UNASSIGNED:
                        flip = code
                else:
                    if flip < 0:
                        ok = False
                        break
                    var = flip >> 1
                    fixed[var] = model[var]
                    model[var] ^= 1
                    journal.append(var)
                    falsified.append(flip ^ 1)
        if not ok:
            for var in journal:
                model[var] = fixed[var]
                fixed[var] = _UNASSIGNED
        return ok

    def _search(self, codes: list[int]) -> bool:
        """CDCL search from the root under the assumptions ``codes``; True
        when it ends with every variable assigned, False on UNSAT."""
        conflicts = 0
        restarts = 0
        restart_limit = _RESTART_BASE * _luby(1)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if not self._trail_lim:  # conflict at root level
                    self._ok = False
                    return False
                learnt, backjump = self._analyze(conflict)
                self._cancel_until(backjump)
                self._assign(learnt[0], self._attach(learnt) if len(learnt) > 1 else -1)
                self._activity_inc *= _ACTIVITY_DECAY
                continue
            if conflicts >= restart_limit:
                restarts += 1
                restart_limit = conflicts + _RESTART_BASE * _luby(restarts + 1)
                self._cancel_until(0)
                continue
            # Next decision: pending assumptions first, then the heuristic.
            level = len(self._trail_lim)
            if level < len(codes):
                code = codes[level]
            else:
                var = self._pick_var()
                if var is None:
                    return True
                code = (var << 1) | (not self._saved_phase[var])
            if not self._decide(code):
                return False

    def _codes(self, literals: Iterable[int]) -> list[int]:
        """Literal codes (positive v -> 2v, negative v -> 2v + 1), range-checked."""
        codes = []
        for lit in literals:
            var = abs(lit)
            if not isinstance(lit, int) or lit == 0 or var > self.num_vars:
                raise ValueError(f"assumption {lit} out of range 1..{self.num_vars}")
            codes.append((var << 1) | (lit < 0))
        return codes

    def _at_root(self) -> bool:
        """Back to level 0 with the root propagated; False once unsatisfiable."""
        if self._ok:
            self._cancel_until(0)
            self._ok = self._propagate() is None
        return self._ok

    def _decide(self, code: int) -> bool:
        """Open the next decision level with literal ``code``.

        A literal already true gets an empty level, so level i always
        belongs to assumption i. Returns False, opening nothing, when the
        literal is already false.
        """
        value = self._values[code >> 1] ^ (code & 1)
        if value == _FALSE:
            return False
        self._trail_lim.append(len(self._trail))
        if value != _TRUE:
            self._assign(code, -1)
        return True

    def _assign(self, code: int, reason: int) -> None:
        var = code >> 1
        self._values[var] = (code & 1) ^ 1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(code)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        values, phases, activity, heap = (
            self._values, self._saved_phase, self._activity, self._heap
        )
        for code in reversed(self._trail[bound:]):
            var = code >> 1
            phases[var] = values[var] == _TRUE
            values[var] = _UNASSIGNED
            heappush(heap, (-activity[var], var))
        if len(heap) > 2 * len(values):  # mostly stale entries: compact
            self._rebuild_heap()
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    def _pick_var(self) -> int | None:
        """Highest-activity unassigned variable; None once all are set. Stale
        entries are skipped: every unassigned variable has a live one, since
        only assigned ones are bumped, ``_cancel_until`` pushes each it frees
        and a rebuild gives each unassigned one an entry."""
        values, activity, heap = self._values, self._activity, self._heap
        while heap:
            act, var = heappop(heap)
            if values[var] == _UNASSIGNED and act == -activity[var]:
                return var
        return None

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause id or None."""
        values, clauses, watches = self._values, self._clauses, self._watches
        trail = self._trail
        while self._qhead < len(trail):
            code = trail[self._qhead]
            self._qhead += 1
            false_code = code ^ 1
            watch_list = watches[false_code]
            kept: list[int] = []
            i = 0
            try:
                for i, cid in enumerate(watch_list):
                    clause = clauses[cid]
                    if clause[0] == false_code:
                        clause[0], clause[1] = clause[1], clause[0]
                    first = clause[0]
                    if values[first >> 1] ^ (first & 1) == _TRUE:
                        kept.append(cid)
                        continue
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if values[other >> 1] ^ (other & 1) != _FALSE:
                            clause[1], clause[k] = other, false_code
                            watches[other].append(cid)
                            break
                    else:
                        kept.append(cid)
                        if values[first >> 1] == _UNASSIGNED:
                            self._assign(first, cid)
                        else:  # conflict
                            kept.extend(watch_list[i + 1:])
                            self._qhead = len(trail)
                            return cid
            finally:
                watches[false_code] = kept
        return None

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first, a literal of the
        backjump level second) and the backjump level.
        """
        levels, reasons, trail = self._levels, self._reasons, self._trail
        current = len(self._trail_lim)
        seen = bytearray(self.num_vars + 1)
        learnt: list[int] = [0]  # slot 0 reserved for the asserting literal
        path = 0
        index = len(trail)
        clause = self._clauses[conflict]
        skip_var = -1
        while True:
            for code in clause:
                var = code >> 1
                if var == skip_var or seen[var] or levels[var] == 0:
                    continue
                seen[var] = 1
                self._bump_activity(var)
                if levels[var] == current:
                    path += 1
                else:
                    learnt.append(code)
            while True:
                index -= 1
                if seen[trail[index] >> 1]:
                    break
            uip = trail[index]
            skip_var = uip >> 1
            seen[skip_var] = 0
            path -= 1
            if path == 0:
                break
            clause = self._clauses[reasons[skip_var]]
        learnt[0] = uip ^ 1

        if len(learnt) == 1:
            return learnt, 0
        # Move a literal of the highest remaining level into the watch slot.
        best = max(range(1, len(learnt)), key=lambda i: levels[learnt[i] >> 1])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, levels[learnt[1] >> 1]

    def _attach(self, lits: list[int]) -> int:
        """Store a clause of two or more literals, watching its first two."""
        cid = len(self._clauses)
        self._clauses.append(lits)
        self._watches[lits[0]].append(cid)
        self._watches[lits[1]].append(cid)
        return cid

    def _bump_activity(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > _ACTIVITY_LIMIT:
            scale = 1e-100
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= scale
            self._activity_inc *= scale
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable, at its current activity."""
        values, activity = self._values, self._activity
        self._heap = [(-activity[v], v) for v in range(1, self.num_vars + 1)
                      if values[v] == _UNASSIGNED]
        heapify(self._heap)

