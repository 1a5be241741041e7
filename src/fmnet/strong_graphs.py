"""Strong dependency and conflict graphs of a variability model.

A feature is core when it appears in every configuration and dead when it
appears in none; both follow from the backbone of the model's formula, the
literals true in every model. A remaining (configurable) feature v strongly
depends on g when every configuration selecting v selects g, and strongly
conflicts with g when none selects both. Dependencies form a directed graph
that is transitively closed by construction (entailment is); conflicts are
symmetric and collapse to undirected edges.

Both questions are one question under different assumptions: what does
selecting nothing, or selecting v, force? ``_forced`` answers it on one
incremental solver per model. Unit propagation from the formula and the
assumptions confirms every candidate it derives, the literals the formula
fixes at the root included, without a query. Every other candidate is
settled by one query shape: the assumptions plus the candidate negated,
which is unsatisfiable exactly when the candidate is forced, with every
other open candidate negated as a soft literal. A model keeps as many soft
literals as the solver's walk can add and so refutes the candidate and all
of those at once; through the caller's ``witness`` it also refutes the
candidates of every feature it selects. The backbone's models are replayed
as witnesses before the per-feature search. Refuting many candidates with
one model follows the chunking of Janota, Lynce & Marques-Silva,
"Algorithms for computing backbones of propositional formulae" (AI
Communications 28(2), 2015), with soft literals in place of selector
variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .cnf import CnfFormula
from .errors import VoidModelError
from .sat import SatEngine, Status, members

Arc = tuple[int, int]


@dataclass(frozen=True)
class Backbone:
    """Literals true in every model of the formula.

    ``sat_calls`` (the solves the computation made) and ``models`` (the
    masks of the models it found) are by-products and do not take part in
    equality.
    """

    literals: frozenset[int]
    sat_calls: int = field(default=0, compare=False)
    models: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        variables = [abs(lit) for lit in self.literals]
        if len(set(variables)) != len(variables):
            raise ValueError("backbone contains both polarities of a variable")


@dataclass(frozen=True)
class FeatureClassification:
    """Partition of a model's variables into core, dead and configurable."""

    num_vars: int
    core: frozenset[int]
    dead: frozenset[int]
    configurable: frozenset[int]

    def check_partition(self) -> None:
        """Raise unless the three sets partition 1..num_vars.

        Kept out of construction on purpose: validation and fault-injection
        tooling must be able to represent corrupted classifications.
        """
        universe = set(range(1, self.num_vars + 1))
        if (self.core | self.dead | self.configurable) != universe or (
            len(self.core) + len(self.dead) + len(self.configurable) != len(universe)
        ):
            raise ValueError("core/dead/configurable do not partition the variables")


@dataclass(frozen=True)
class StrongRelations:
    """What selecting one configurable feature forces about the others."""

    depends_on: frozenset[int]
    conflicts_with: frozenset[int]


@dataclass(frozen=True)
class StrongGraphs:
    """Dependency arcs and conflict edges over the configurable features.

    ``nodes`` is the classification's configurable set, held only there.
    ``conflict_edges`` holds canonical unordered pairs (smaller index first),
    each symmetric conflict appearing exactly once. ``names`` is carried for
    reporting; missing entries fall back to ``v<index>``.
    """

    dep_arcs: frozenset[Arc]
    conflict_edges: frozenset[Arc]
    classification: FeatureClassification
    names: Mapping[int, str]

    @property
    def nodes(self) -> frozenset[int]:
        return self.classification.configurable

    def name_of(self, var: int) -> str:
        return self.names.get(var, f"v{var}")


def _forced(
    engine: SatEngine,
    assumptions: Sequence[int],
    true_open: int,
    false_open: int,
    witness: Callable[[int], None],
) -> tuple[int, int]:
    """Which candidates every model under ``assumptions`` sets true or false.

    ``true_open`` and ``false_open`` are disjoint variable masks of the
    candidates to settle; the result holds the masks of those forced true
    and forced false. Every model found is passed to ``witness``.

    Propagation settles what it derives without a query. Each query then
    adds the highest open candidate, negated, to the assumptions, and
    passes every open candidate negated as a soft literal, as masks with no
    list built (the candidates for false as the mask of variables wanted
    true, those for true as the mask wanted false). An UNSAT answer proves
    the assumed candidate forced; a model refutes it and every candidate
    whose soft literal the walk kept. Each query settles its assumed
    candidate, so the solves never outnumber the candidates.
    """
    forced_true = forced_false = 0
    if true_open | false_open:
        # Never None: the callers' assumptions are satisfiable.
        implied_true, implied_false = engine.implied_literals(assumptions)
        forced_true, forced_false = true_open & implied_true, false_open & implied_false
        true_open ^= forced_true
        false_open ^= forced_false
    while true_open | false_open:
        g = (true_open | false_open).bit_length() - 1
        bit = 1 << g
        lit = -g if true_open & bit else g
        outcome = engine.solve((*assumptions, lit), (false_open, true_open))
        if outcome.status is Status.SAT:
            witness(outcome.model)
            true_open &= outcome.model
            false_open &= ~outcome.model
        elif lit < 0:
            forced_true |= bit
            true_open ^= bit
        else:
            forced_false |= bit
            false_open ^= bit
    return forced_true, forced_false


def compute_backbone(engine: SatEngine) -> Backbone:
    """Backbone of the formula ``engine`` was built from.

    Each variable is tested at most once, against its value in the first
    model; one that propagation fixes at the root takes no query. Raises
    VoidModelError when the formula is unsatisfiable.
    """
    calls_before = engine.num_solve_calls
    outcome = engine.solve()
    if outcome.status is Status.UNSAT:
        raise VoidModelError("formula is unsatisfiable")
    models = [outcome.model]
    unset = (1 << (engine.num_vars + 1)) - 2 & ~outcome.model
    core, dead = _forced(engine, (), outcome.model, unset, models.append)
    return Backbone(
        frozenset([*members(core), *(-v for v in members(dead))]),
        sat_calls=engine.num_solve_calls - calls_before,
        models=tuple(models),
    )


def extract_strong_relations(
    formula: CnfFormula,
) -> tuple[FeatureClassification, dict[int, StrongRelations]]:
    """Classify features and compute per-feature strong relations.

    Raises VoidModelError for an unsatisfiable formula.
    """
    if formula.trivially_unsat:
        raise VoidModelError("formula contains the empty clause")
    engine = SatEngine(formula)
    base = compute_backbone(engine)
    core = frozenset(lit for lit in base.literals if lit > 0)
    dead = frozenset(-lit for lit in base.literals if lit < 0)
    configurable = frozenset(set(formula.variables()) - core - dead)
    classification = FeatureClassification(
        num_vars=formula.num_vars, core=core, dead=dead, configurable=configurable
    )

    order = sorted(configurable)
    everyone = sum(1 << v for v in order)
    # Bitmasks per feature: relations still open, and relations proven.
    open_deps = {v: everyone & ~(1 << v) for v in order}
    open_conflicts = dict(open_deps)
    deps = dict.fromkeys(order, 0)
    conflicts = dict.fromkeys(order, 0)

    # The features whose turn is still to come: only their open masks are
    # read again, so a witness updates only them.
    pending = everyone

    def witness(model: int) -> None:
        for v in members(model & pending):
            open_deps[v] &= model
            open_conflicts[v] &= ~model

    for model in base.models:
        witness(model)
    for v in order:
        pending ^= 1 << v
        deps[v], found = _forced(engine, (v,), open_deps[v], open_conflicts[v], witness)
        # Conflicts are symmetric: each one found is proven for g as well.
        conflicts[v] |= found
        for g in members(found):
            conflicts[g] |= 1 << v
            open_conflicts[g] &= ~(1 << v)

    relations = {
        v: StrongRelations(
            depends_on=frozenset(members(deps[v])),
            conflicts_with=frozenset(members(conflicts[v])),
        )
        for v in order
    }
    return classification, relations


def build_strong_graphs(
    classification: FeatureClassification,
    relations: Mapping[int, StrongRelations],
    *,
    names: Mapping[int, str] | None = None,
) -> StrongGraphs:
    """Assemble the two graphs from per-feature relations.

    Symmetric conflict pairs are deduplicated into canonical unordered edges.
    """
    arcs = set()
    edges = set()
    for v, rel in relations.items():
        for g in rel.depends_on:
            arcs.add((v, g))
        for g in rel.conflicts_with:
            edges.add((v, g) if v < g else (g, v))
    return StrongGraphs(
        dep_arcs=frozenset(arcs),
        conflict_edges=frozenset(edges),
        classification=classification,
        names=dict(names) if names else {},
    )


def compute_strong_graphs(formula: CnfFormula) -> StrongGraphs:
    """Full pipeline from formula to graphs, keeping the formula's names."""
    classification, relations = extract_strong_relations(formula)
    return build_strong_graphs(classification, relations, names=formula.names)
