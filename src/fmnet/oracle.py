"""Ground-truth relation extraction and artifact validation.

Two independent ways to double-check a strong-graphs artifact:

- ``oracle_strong_relations`` reads the relations straight off the model set
  of a small formula, which its own DPLL, ``enumerate_models``, lists. It
  shares no code with the solver or the extractor, so agreement is meaningful.
- ``validate_model`` spot-checks a graphs artifact against the formula with
  plain assumption solves: each claimed relation must be entailed (the
  witness query is unsatisfiable) and each sampled absent relation must have
  a witness model. Classification faults suppress relation checks for the
  affected feature, so one fault surfaces as one discrepancy. Every fault
  class it reports, and its wording, is one entry of ``_CLAIM_TEXTS`` (a
  wrong claim) or ``_LISTED_AS`` (a variable the artifact omits), plus the
  structural endpoint rule.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from .cnf import CnfFormula
from .errors import EnumerationLimitError, VoidModelError
from .sat import SatEngine, Status
from .strong_graphs import Arc, FeatureClassification, StrongGraphs

_PARTIAL_ABSENCE_CAP = 10

# (kind, claimed) -> (expected, actual) for a check whose claim is wrong.
# A claim of False on core/dead is a node's claim to be configurable.
_CLAIM_TEXTS = {
    ("core", True): ("selected in every configuration", "a configuration omits it"),
    ("core", False): ("configurable", "selected in every configuration"),
    ("dead", True): ("selected in no configuration", "a configuration selects it"),
    ("dead", False): ("configurable", "selected in no configuration"),
    ("arc", True): ("selecting the first forces the second",
                    "a configuration has the first without the second"),
    ("arc", False): ("no strong dependency recorded", "selecting the first forces the second"),
    ("edge", True): ("never selected together", "a configuration selects both"),
    ("edge", False): ("no strong conflict recorded", "they are never selected together"),
}
# Expected text for a variable the artifact omits, by what it really is.
_LISTED_AS = {"core": "listed as core", "dead": "listed as dead",
              "node": "listed as a configurable node"}


def enumerate_models(formula: CnfFormula, var_limit: int = 25) -> Iterator[int]:
    """Yield every model once, as the mask of the variables it sets true (bit
    v for variable v), from a plain DPLL over (positive mask, negative mask)
    clauses: unit propagation to a fixpoint, then both values of the lowest
    free variable. Refuses more than ``var_limit`` variables, since the
    model count can be exponential."""
    if formula.num_vars > var_limit:
        raise EnumerationLimitError(f"{formula.num_vars} variables; the limit is {var_limit}")
    clauses = []
    for clause in formula.clauses:
        pos = sum(1 << lit for lit in set(clause) if lit > 0)
        neg = sum(1 << -lit for lit in set(clause) if lit < 0)
        if not pos & neg:  # a tautology holds in every model
            clauses.append((pos, neg))
    full_mask = (1 << (formula.num_vars + 1)) - 2
    pending = [(0, 0)]  # (true mask, false mask)
    while pending:
        masks = _propagate(clauses, *pending.pop())
        if masks is None:
            continue
        true, false = masks
        free = full_mask & ~(true | false)
        if free:
            low = free & -free  # the lowest free variable
            pending += [(true, false | low), (true | low, false)]
        else:
            yield true


def _propagate(clauses: list[tuple[int, int]], true: int, false: int) -> tuple[int, int] | None:
    """The masks grown by unit propagation to a fixpoint; None on a conflict."""
    changed = True
    while changed:
        changed = False
        for pos, neg in clauses:
            open_pos, open_neg = pos & ~false, neg & ~true
            unset = open_pos | open_neg
            if pos & true or neg & false or unset & (unset - 1):
                continue  # satisfied, or two or more literals still open
            if not unset:
                return None  # every literal false
            true, false, changed = true | open_pos, false | open_neg, True
    return true, false


def oracle_strong_relations(
    formula: CnfFormula, var_limit: int = 25
) -> tuple[FeatureClassification, tuple[frozenset[Arc], frozenset[Arc]]]:
    """Classification, dependency arcs ``(v, g)`` and conflict edges
    ``(low, high)`` derived from the full model set of a small formula.

    A feature is core when true in every model, dead when true in none; a
    configurable feature depends on whatever is true in all models selecting
    it and conflicts with whatever is true in none of them.
    """
    n = formula.num_vars
    # Per-variable intersection/union over the models that select it. Every
    # model selects variable 0 (bit 0), so entry 0 runs over all models.
    inter = [-1] * (n + 1)
    union = [0] * (n + 1)
    for mask in enumerate_models(formula, var_limit=var_limit):
        mask |= 1
        selected = mask
        while selected:
            low = selected & -selected
            v = low.bit_length() - 1
            inter[v] &= mask
            union[v] |= mask
            selected ^= low
    if not union[0]:
        raise VoidModelError("formula is unsatisfiable")

    core = frozenset(v for v in range(1, n + 1) if inter[0] >> v & 1)
    dead = frozenset(v for v in range(1, n + 1) if not union[v])
    configurable = frozenset(set(range(1, n + 1)) - core - dead)
    classification = FeatureClassification(
        num_vars=n, core=core, dead=dead, configurable=configurable
    )

    arcs = frozenset((v, g) for v in configurable for g in configurable
                     if g != v and inter[v] >> g & 1)
    edges = frozenset((v, g) for v in configurable for g in configurable
                      if v < g and not union[v] >> g & 1)
    return classification, (arcs, edges)


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

    Each claim is checked by one solve; a wrong claim becomes the
    discrepancy that the claim table ``_CLAIM_TEXTS`` words for its kind.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    if () in formula.clauses:
        raise VoidModelError("formula contains the empty clause")
    engine = SatEngine(formula)

    def unsat(*assumptions: int) -> bool:
        return engine.solve(assumptions).status is Status.UNSAT

    discrepancies: list[Discrepancy] = []
    suspect: set[int] = set()
    checked = dict.fromkeys(("core", "dead", "node", "arc", "edge"), 0)

    def agrees(kind: str, features: tuple[int, ...], claimed: bool, holds: bool) -> bool:
        if claimed != holds:
            discrepancies.append(Discrepancy(kind, features, *_CLAIM_TEXTS[kind, claimed]))
        return claimed == holds

    # Classification claims, exhaustively.
    cls = graphs.classification
    for kind, claims, sign in (("core", cls.core, -1), ("dead", cls.dead, +1)):
        for v in sorted(claims):
            checked[kind] += 1
            if not agrees(kind, (v,), True, unsat(sign * v)):
                suspect.add(v)

    # Coverage: every variable is core, dead, or a node.
    accounted = cls.core | cls.dead | graphs.nodes
    for v in formula.variables():
        if v in accounted:
            continue
        kind = "core" if unsat(-v) else "dead" if unsat(v) else "node"
        if kind != "node":
            checked[kind] += 1
        discrepancies.append(Discrepancy(
            kind, (v,), _LISTED_AS[kind], "missing from the artifact"))
        suspect.add(v)

    # Structural rule: relations stay among the configurable nodes.
    for kind, pairs in (("arc", graphs.dep_arcs), ("edge", graphs.conflict_edges)):
        for a, b in sorted(pairs):
            for endpoint in (a, b):
                if endpoint not in graphs.nodes:
                    discrepancies.append(Discrepancy(
                        kind, (a, b), "both endpoints configurable nodes",
                        f"feature {endpoint} is not a node"))

    # Node sample: each sampled node must be neither core nor dead.
    rng = random.Random(seed)
    nodes = sorted(graphs.nodes)
    exhaustive = sample_size >= len(nodes)
    sampled = nodes if exhaustive else sorted(rng.sample(nodes, sample_size))
    for v in sampled:
        checked["node"] += 1
        if not (agrees("core", (v,), False, unsat(-v))
                and agrees("dead", (v,), False, unsat(v))):
            suspect.add(v)

    # Relations: claimed ones must be entailed, absent ones need a witness.
    # An arc v -> g holds iff (v, -g) is unsat, an edge v - g iff (v, g) is.
    related = {"arc": defaultdict(set), "edge": defaultdict(set)}
    for a, b in graphs.dep_arcs:
        related["arc"][a].add(b)
    for a, b in graphs.conflict_edges:
        related["edge"][a].add(b)
        related["edge"][b].add(a)
    seen_edges: set[tuple[int, int]] = set()
    for v in sampled:
        if v in suspect:
            continue
        for kind, sign in (("arc", -1), ("edge", +1)):
            claimed = related[kind][v]
            absent = [g for g in nodes if g != v and g not in claimed and g not in suspect]
            if not exhaustive:
                absent = sorted(rng.sample(absent, min(len(absent), _PARTIAL_ABSENCE_CAP)))
            for g in sorted(claimed - suspect) + absent:
                pair = (v, g) if kind == "arc" or v < g else (g, v)
                if kind == "edge":
                    if pair in seen_edges:
                        continue
                    seen_edges.add(pair)
                checked[kind] += 1
                agrees(kind, pair, g in claimed, unsat(v, sign * g))

    discrepancies.sort(key=lambda d: (d.features, d.kind))
    return ValidationReport(
        model_id=model_id,
        checked_core=checked["core"],
        checked_dead=checked["dead"],
        checked_nodes=checked["node"],
        checked_arcs=checked["arc"],
        checked_edges=checked["edge"],
        discrepancies=tuple(discrepancies),
    )
