"""Backbone extraction by iterative model intersection.

The backbone of a satisfiable formula is the set of literals that hold in
every model. The algorithm here tests one candidate literal per SAT call
and prunes eagerly: starting from the literals of an initial model, each
call either confirms a candidate (UNSAT with the candidate negated) or
yields a fresh model whose disagreements with the candidate set are all
dropped at once. That intersection step is what keeps the call count at
one test per variable instead of one per candidate polarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .cnf import CnfFormula
from .errors import VoidModelError
from .sat import SatEngine, Status


@dataclass(frozen=True)
class Backbone:
    """Literals true in every model of the formula (under the assumptions).

    ``sat_calls`` is bookkeeping for budget checks and does not take part
    in equality.
    """

    literals: frozenset[int]
    sat_calls: int = field(default=0, compare=False)

    def __post_init__(self):
        variables = [abs(lit) for lit in self.literals]
        if len(set(variables)) != len(variables):
            raise ValueError("backbone contains both polarities of a variable")

    def polarity_of(self, var: int) -> int | None:
        """+1, -1 or None for a variable's backbone polarity."""
        if var in self.literals:
            return 1
        if -var in self.literals:
            return -1
        return None


def compute_backbone(
    formula: CnfFormula,
    assumptions: Sequence[int] = (),
) -> Backbone:
    """Backbone of ``formula`` conjoined with the assumption literals.

    Raises VoidModelError when that conjunction is unsatisfiable. Assumption
    literals hold in every remaining model by construction, so they join the
    backbone without being tested.
    """
    if formula.trivially_unsat:
        raise VoidModelError("formula contains the empty clause")
    engine = SatEngine(formula)
    assumptions = tuple(assumptions)
    outcome = engine.solve(assumptions)
    if outcome.status is Status.UNSAT:
        if assumptions:
            raise VoidModelError(f"unsatisfiable under assumptions {sorted(assumptions)}")
        raise VoidModelError("formula is unsatisfiable")

    model = outcome.model
    assert model is not None
    candidates: dict[int, int] = {
        v: (v if model[v] else -v) for v in range(1, formula.num_vars + 1)
    }
    backbone: set[int] = set()
    for lit in assumptions:
        backbone.add(lit)
        candidates.pop(abs(lit), None)

    for var in sorted(candidates):
        lit = candidates.pop(var, None)
        if lit is None:
            continue
        outcome = engine.solve(assumptions + (-lit,))
        if outcome.status is Status.UNSAT:
            backbone.add(lit)
            continue
        model = outcome.model
        assert model is not None
        for other in [w for w, cand in candidates.items()
                      if cand != (w if model[w] else -w)]:
            del candidates[other]

    return Backbone(frozenset(backbone), sat_calls=engine.num_solve_calls)
