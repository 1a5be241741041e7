"""Ground-truth relation extraction and artifact validation.

Two independent ways to double-check a strong-graphs artifact:

- ``oracle_strong_relations`` enumerates every model of a small formula and
  reads the relations straight off the model set. It never touches the
  backbone machinery, so agreement with the extractor is meaningful.
- ``validate_model`` spot-checks a graphs artifact against the formula with
  plain assumption solves: each claimed relation must be entailed (the
  witness query is unsatisfiable) and each sampled absent relation must have
  a witness model. Classification faults suppress relation checks for the
  affected feature, so one fault surfaces as one discrepancy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cnf import CnfFormula
from .errors import VoidModelError
from .sat import SatEngine, Status, enumerate_models
from .strong_graphs import FeatureClassification, StrongGraphs, StrongRelations

_PARTIAL_ABSENCE_CAP = 10


def oracle_strong_relations(
    formula: CnfFormula, var_limit: int = 25
) -> tuple[FeatureClassification, dict[int, StrongRelations]]:
    """Relations derived from the full model set of a small formula.

    A feature is core when true in every model, dead when true in none; a
    configurable feature depends on whatever is true in all models selecting
    it and conflicts with whatever is true in none of them.
    """
    n = formula.num_vars
    full_mask = (1 << (n + 1)) - 2  # bit v for variable v
    count = 0
    all_and = full_mask
    all_or = 0
    # Per-variable intersection/union over the models that select it.
    inter = [full_mask] * (n + 1)
    union = [0] * (n + 1)
    for mask in enumerate_models(formula, var_limit=var_limit):
        count += 1
        all_and &= mask
        all_or |= mask
        selected = mask
        while selected:
            low = selected & -selected
            v = low.bit_length() - 1
            inter[v] &= mask
            union[v] |= mask
            selected ^= low
    if count == 0:
        raise VoidModelError("formula is unsatisfiable")

    core = frozenset(v for v in range(1, n + 1) if all_and >> v & 1)
    dead = frozenset(v for v in range(1, n + 1) if not (all_or >> v & 1))
    configurable = frozenset(set(range(1, n + 1)) - core - dead)
    classification = FeatureClassification(
        num_vars=n, core=core, dead=dead, configurable=configurable
    )

    relations = {}
    for v in sorted(configurable):
        forced = inter[v]
        excluded = ~union[v] & full_mask
        relations[v] = StrongRelations(
            depends_on=frozenset(
                g for g in configurable if g != v and forced >> g & 1
            ),
            conflicts_with=frozenset(
                g for g in configurable if g != v and excluded >> g & 1
            ),
        )
    return classification, relations


@dataclass(frozen=True)
class Discrepancy:
    """One disagreement between the artifact and the formula.

    ``kind`` names the artifact element at fault: core, dead, arc, edge, or
    node for a configurable feature missing from the graph entirely.
    """

    kind: str
    features: tuple[int, ...]
    expected: str
    actual: str


@dataclass(frozen=True)
class ValidationReport:
    model_id: str
    checked_core: int
    checked_dead: int
    checked_nodes: int
    checked_arcs: int
    checked_edges: int
    discrepancies: tuple[Discrepancy, ...]

    @property
    def passed(self) -> bool:
        return not self.discrepancies


def validate_model(
    formula: CnfFormula,
    graphs: StrongGraphs,
    sample_size: int = 1000,
    seed: int = 0,
    model_id: str = "",
) -> ValidationReport:
    """Check a graphs artifact against its formula by assumption queries.

    Core and dead claims are always checked exhaustively, as is coverage
    (every variable must be accounted for as core, dead or a node) and the
    structural rule that relations touch only configurable nodes. Relation
    checks run over a seeded sample of min(sample_size, node count) nodes;
    when the sample covers all nodes, absence checks are exhaustive too, so
    any single corrupted element of the artifact is reported. With a partial
    sample each node gets at most 10 absence probes per relation kind.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    if formula.trivially_unsat:
        raise VoidModelError("formula contains the empty clause")
    engine = SatEngine(formula)

    def unsat(*assumptions: int) -> bool:
        return engine.solve(assumptions).status is Status.UNSAT

    discrepancies: list[Discrepancy] = []
    suspect: set[int] = set()

    # Classification claims, exhaustively.
    checked_core = checked_dead = 0
    for c in sorted(graphs.classification.core):
        checked_core += 1
        if not unsat(-c):
            discrepancies.append(Discrepancy(
                "core", (c,), "selected in every configuration",
                "a configuration omits it"))
            suspect.add(c)
    for d in sorted(graphs.classification.dead):
        checked_dead += 1
        if not unsat(d):
            discrepancies.append(Discrepancy(
                "dead", (d,), "selected in no configuration",
                "a configuration selects it"))
            suspect.add(d)

    # Coverage: every variable is core, dead, or a node.
    accounted = graphs.classification.core | graphs.classification.dead | graphs.nodes
    for v in formula.variables():
        if v in accounted:
            continue
        if unsat(-v):
            checked_core += 1
            discrepancies.append(Discrepancy(
                "core", (v,), "listed as core", "missing from the artifact"))
        elif unsat(v):
            checked_dead += 1
            discrepancies.append(Discrepancy(
                "dead", (v,), "listed as dead", "missing from the artifact"))
        else:
            discrepancies.append(Discrepancy(
                "node", (v,), "listed as a configurable node",
                "missing from the artifact"))
        suspect.add(v)

    # Structural rule: relations stay among the configurable nodes.
    for source, target in sorted(graphs.dep_arcs):
        for endpoint in (source, target):
            if endpoint not in graphs.nodes:
                discrepancies.append(Discrepancy(
                    "arc", (source, target), "both endpoints configurable nodes",
                    f"feature {endpoint} is not a node"))
    for a, b in sorted(graphs.conflict_edges):
        for endpoint in (a, b):
            if endpoint not in graphs.nodes:
                discrepancies.append(Discrepancy(
                    "edge", (a, b), "both endpoints configurable nodes",
                    f"feature {endpoint} is not a node"))

    # Node sample.
    rng = random.Random(seed)
    nodes = sorted(graphs.nodes)
    exhaustive = sample_size >= len(nodes)
    sampled = nodes if exhaustive else sorted(rng.sample(nodes, sample_size))

    out_arcs: dict[int, set[int]] = {v: set() for v in nodes}
    conflicts: dict[int, set[int]] = {v: set() for v in nodes}
    for source, target in graphs.dep_arcs:
        out_arcs.setdefault(source, set()).add(target)
    for a, b in graphs.conflict_edges:
        conflicts.setdefault(a, set()).add(b)
        conflicts.setdefault(b, set()).add(a)

    checked_nodes = checked_arcs = checked_edges = 0
    seen_edges: set[tuple[int, int]] = set()
    for v in sampled:
        checked_nodes += 1
        # The node itself must be neither core nor dead.
        if unsat(-v):
            discrepancies.append(Discrepancy(
                "core", (v,), "configurable", "selected in every configuration"))
            suspect.add(v)
            continue
        if unsat(v):
            discrepancies.append(Discrepancy(
                "dead", (v,), "configurable", "selected in no configuration"))
            suspect.add(v)
            continue

    for v in sampled:
        if v in suspect:
            continue
        # Claimed relations must be entailed.
        for g in sorted(out_arcs.get(v, ())):
            if g in suspect:
                continue
            checked_arcs += 1
            if not unsat(v, -g):
                discrepancies.append(Discrepancy(
                    "arc", (v, g), "selecting the first forces the second",
                    "a configuration has the first without the second"))
        for g in sorted(conflicts.get(v, ())):
            if g in suspect:
                continue
            pair = (v, g) if v < g else (g, v)
            if pair in seen_edges:
                continue
            seen_edges.add(pair)
            checked_edges += 1
            if not unsat(v, g):
                discrepancies.append(Discrepancy(
                    "edge", pair, "never selected together",
                    "a configuration selects both"))
        # Absent relations must have witnesses.
        arc_candidates = [g for g in nodes
                          if g != v and g not in out_arcs.get(v, ()) and g not in suspect]
        edge_candidates = [g for g in nodes
                           if g != v and g not in conflicts.get(v, ()) and g not in suspect]
        if not exhaustive:
            arc_candidates = sorted(rng.sample(
                arc_candidates, min(len(arc_candidates), _PARTIAL_ABSENCE_CAP)))
            edge_candidates = sorted(rng.sample(
                edge_candidates, min(len(edge_candidates), _PARTIAL_ABSENCE_CAP)))
        for g in arc_candidates:
            checked_arcs += 1
            if unsat(v, -g):
                discrepancies.append(Discrepancy(
                    "arc", (v, g), "no strong dependency recorded",
                    "selecting the first forces the second"))
        for g in edge_candidates:
            pair = (v, g) if v < g else (g, v)
            if pair in seen_edges:
                continue
            seen_edges.add(pair)
            checked_edges += 1
            if unsat(v, g):
                discrepancies.append(Discrepancy(
                    "edge", pair, "no strong conflict recorded",
                    "they are never selected together"))

    discrepancies.sort(key=lambda d: (d.features, d.kind))
    return ValidationReport(
        model_id=model_id,
        checked_core=checked_core,
        checked_dead=checked_dead,
        checked_nodes=checked_nodes,
        checked_arcs=checked_arcs,
        checked_edges=checked_edges,
        discrepancies=tuple(discrepancies),
    )
