"""Strong dependency and conflict graphs of a variability model.

A feature is core when it appears in every configuration and dead when it
appears in none; both follow from the backbone of the model's formula. A
remaining (configurable) feature v strongly depends on g when every
configuration selecting v selects g, and strongly conflicts with g when none
selects both. Dependencies form a directed graph that is transitively closed
by construction (entailment is); conflicts are symmetric and collapse to
undirected edges.

One incremental solver serves a whole model: it finds the backbone first
and then settles every candidate pair, each by the cheapest route that
works. Every configuration the solver returns, the backbone's included, is
a witness: it refutes the open dependencies of each feature it selects on
the features it leaves out, and the open conflicts with the features it
selects too. Unit propagation from v alone confirms every relation it
derives. Only the pairs left after both get a query of their own, v with
not-g for a dependency and v with g for a conflict, which is unsatisfiable
exactly when the relation holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .backbone import compute_backbone
from .cnf import CnfFormula
from .errors import VoidModelError
from .sat import SatEngine, Status

Arc = tuple[int, int]


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


StrongRelationMap = Mapping[int, StrongRelations]


@dataclass(frozen=True)
class StrongGraphs:
    """Dependency arcs and conflict edges over the configurable features.

    ``conflict_edges`` holds canonical unordered pairs (smaller index first),
    each symmetric conflict appearing exactly once. ``names`` is carried for
    reporting; missing entries fall back to ``v<index>``.
    """

    nodes: frozenset[int]
    dep_arcs: frozenset[Arc]
    conflict_edges: frozenset[Arc]
    classification: FeatureClassification
    names: Mapping[int, str]

    def name_of(self, var: int) -> str:
        return self.names.get(var, f"v{var}")


def _members(mask: int) -> Iterator[int]:
    """Variables whose bit is set in ``mask`` (bit v stands for variable v)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    def selected(model: tuple[bool, ...]) -> int:
        return sum(1 << w for w in order if model[w])

    def witness(mask: int) -> None:
        # ``mask`` holds the configuration's selected variables.
        for v in _members(mask & everyone):
            open_deps[v] &= mask
            open_conflicts[v] &= ~mask

    def confirm_conflict(v: int, g: int) -> None:
        # Symmetric: proven for g as well, which spares g's query.
        conflicts[v] |= 1 << g
        conflicts[g] |= 1 << v
        open_conflicts[v] &= ~(1 << g)
        open_conflicts[g] &= ~(1 << v)

    for mask in base.models:
        witness(mask)
    for v in order:
        if open_deps[v] or open_conflicts[v]:
            # Never None: v is configurable, so propagating it cannot conflict.
            for lit in engine.implied_literals((v,)) or ():
                bit = 1 << abs(lit)
                if lit > 0 and open_deps[v] & bit:
                    deps[v] |= bit
                    open_deps[v] &= ~bit
                elif lit < 0 and open_conflicts[v] & bit:
                    confirm_conflict(v, -lit)
        for g in _members(open_deps[v]):
            if open_deps[v] >> g & 1:
                outcome = engine.solve((v, -g))
                if outcome.status is Status.UNSAT:
                    deps[v] |= 1 << g
                    open_deps[v] &= ~(1 << g)
                else:
                    witness(selected(outcome.model))
        for g in _members(open_conflicts[v]):
            if open_conflicts[v] >> g & 1:
                outcome = engine.solve((v, g))
                if outcome.status is Status.UNSAT:
                    confirm_conflict(v, g)
                else:
                    witness(selected(outcome.model))

    relations = {
        v: StrongRelations(
            depends_on=frozenset(_members(deps[v])),
            conflicts_with=frozenset(_members(conflicts[v])),
        )
        for v in order
    }
    return classification, relations


def build_strong_graphs(
    classification: FeatureClassification,
    relations: StrongRelationMap,
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
        nodes=frozenset(classification.configurable),
        dep_arcs=frozenset(arcs),
        conflict_edges=frozenset(edges),
        classification=classification,
        names=dict(names) if names else {},
    )


def compute_strong_graphs(formula: CnfFormula) -> StrongGraphs:
    """Full pipeline from formula to graphs, keeping the formula's names."""
    classification, relations = extract_strong_relations(formula)
    return build_strong_graphs(classification, relations, names=formula.names)
