"""Backbone extraction by iterative model intersection.

The backbone of a satisfiable formula is the set of literals that hold in
every model. The algorithm here tests one candidate literal per SAT call
and prunes eagerly: starting from the literals of an initial model, each
call either confirms a candidate (UNSAT with the candidate negated) or
yields a fresh model whose disagreements with the candidate set are all
dropped at once. That intersection step is what keeps the call count at
one test per variable instead of one per candidate polarity.

The search runs on the caller's engine, so whatever the engine learns
stays with it, and the models it finds are handed back for the caller to
reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import VoidModelError
from .sat import SatEngine, Status


@dataclass(frozen=True)
class Backbone:
    """Literals true in every model of the formula.

    ``sat_calls`` (the solves the computation made) and ``models`` (the
    models it found, each the mask of its selected variables, bit v for
    variable v) are by-products and do not take part in equality.
    """

    literals: frozenset[int]
    sat_calls: int = field(default=0, compare=False)
    models: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        variables = [abs(lit) for lit in self.literals]
        if len(set(variables)) != len(variables):
            raise ValueError("backbone contains both polarities of a variable")


def compute_backbone(engine: SatEngine) -> Backbone:
    """Backbone of the formula ``engine`` was built from.

    Raises VoidModelError when the formula is unsatisfiable.
    """
    calls_before = engine.num_solve_calls
    outcome = engine.solve()
    if outcome.status is Status.UNSAT:
        raise VoidModelError("formula is unsatisfiable")

    models = [sum(1 << v for v, value in enumerate(outcome.model) if value)]
    first = models[0]
    # Variables whose first-model literal every model so far agrees with.
    open_vars = (1 << (engine.num_vars + 1)) - 2
    backbone: set[int] = set()
    for var in range(1, engine.num_vars + 1):
        if not open_vars >> var & 1:
            continue
        lit = var if first >> var & 1 else -var
        outcome = engine.solve((-lit,))
        if outcome.status is Status.UNSAT:
            backbone.add(lit)
            continue
        mask = sum(1 << v for v, value in enumerate(outcome.model) if value)
        models.append(mask)
        open_vars &= ~(mask ^ first)

    return Backbone(
        frozenset(backbone),
        sat_calls=engine.num_solve_calls - calls_before,
        models=tuple(models),
    )
