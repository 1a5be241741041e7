"""Strong dependency and conflict graphs of a variability model.

A feature is core when it appears in every configuration and dead when it
appears in none; both follow from the backbone of the model's formula. For
each remaining (configurable) feature v, conditioning the formula on v and
recomputing the backbone reveals what selecting v forces: newly positive
backbone literals are strong dependencies of v, newly negative ones are
strong conflicts. Dependencies form a directed graph that is transitively
closed by construction (a backbone is deductively closed); conflicts are
symmetric and collapse to undirected edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .backbone import compute_backbone
from .cnf import CnfFormula

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


def _relations_for(
    formula: CnfFormula, base_literals: frozenset[int], var: int
) -> StrongRelations:
    conditioned = compute_backbone(formula, (var,))
    new_literals = conditioned.literals - base_literals
    return StrongRelations(
        depends_on=frozenset(lit for lit in new_literals if lit > 0 and lit != var),
        conflicts_with=frozenset(-lit for lit in new_literals if lit < 0),
    )


def extract_strong_relations(
    formula: CnfFormula,
) -> tuple[FeatureClassification, dict[int, StrongRelations]]:
    """Classify features and compute per-feature strong relations.

    Raises VoidModelError for an unsatisfiable formula.
    """
    base = compute_backbone(formula)
    core = frozenset(lit for lit in base.literals if lit > 0)
    dead = frozenset(-lit for lit in base.literals if lit < 0)
    configurable = frozenset(set(formula.variables()) - core - dead)
    classification = FeatureClassification(
        num_vars=formula.num_vars, core=core, dead=dead, configurable=configurable
    )

    relations = {v: _relations_for(formula, base.literals, v) for v in sorted(configurable)}
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
