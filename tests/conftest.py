"""Shared test oracles and generators.

The truth-table helpers answer satisfiability questions by big-integer
column arithmetic, one bit per assignment row. They share no code with the
package's solver, which is what makes cross-checks against them meaningful.
They are exponential in the variable count and intended for <= 20 variables.

Row convention: row ``r`` assigns variable ``v`` true iff ``r >> (v-1) & 1``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib
import random
import sys

import pytest

from fmnet.cnf import CnfFormula
from fmnet.fixtures import coreboot_graphics_formula
from fmnet.sat import SatEngine
from fmnet.strong_graphs import Arc, FeatureClassification


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's seeded model generators, as a module."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses look it up while the module runs
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return gen


def variable_column(num_vars: int, var: int) -> int:
    """Big-int whose bit r is the truth value of var in assignment row r."""
    rows = 1 << num_vars
    half = 1 << (var - 1)
    column = ((1 << half) - 1) << half
    width = 1 << var
    while width < rows:
        column |= column << width
        width <<= 1
    return column


def truth_table_mask(formula: CnfFormula) -> int:
    """Bitmask of satisfying assignment rows; 0 means unsatisfiable."""
    return clauses_truth_table(formula.num_vars, formula.clauses)


def clauses_truth_table(num_vars: int, clauses) -> int:
    """Bitmask of the rows that satisfy every clause as written, which
    need not be in the normal form a CnfFormula keeps."""
    full = (1 << (1 << num_vars)) - 1
    columns = {v: variable_column(num_vars, v) for v in range(1, num_vars + 1)}
    mask = full
    for clause in clauses:
        satisfied = 0
        for lit in clause:
            satisfied |= columns[lit] if lit > 0 else ~columns[-lit] & full
        mask &= satisfied
    return mask


def tt_model_count(formula: CnfFormula) -> int:
    return truth_table_mask(formula).bit_count()


def tt_models(formula: CnfFormula) -> list[tuple[bool, ...]]:
    """All models as bool tuples with a padding slot at index 0."""
    mask = truth_table_mask(formula)
    models = []
    while mask:
        low = mask & -mask
        row = low.bit_length() - 1
        models.append(tuple(
            bool(row >> (v - 1) & 1) if v else False
            for v in range(formula.num_vars + 1)
        ))
        mask ^= low
    return models


def tt_model_masks(formula: CnfFormula) -> list[int]:
    """All models as masks of their true variables, bit v for variable v."""
    mask = truth_table_mask(formula)
    return [row << 1 for row in range(1 << formula.num_vars) if mask >> row & 1]


def tt_backbone_literals(formula: CnfFormula) -> frozenset[int]:
    """Backbone literals read off the truth table (formula must be sat)."""
    mask = truth_table_mask(formula)
    assert mask, "truth-table backbone needs a satisfiable formula"
    rows = 1 << formula.num_vars
    full = (1 << rows) - 1
    literals = set()
    for v in formula.variables():
        column = variable_column(formula.num_vars, v)
        if mask & ~column & full == 0:
            literals.add(v)
        elif mask & column == 0:
            literals.add(-v)
    return frozenset(literals)


def tt_strong_relations(
    formula: CnfFormula,
) -> tuple[FeatureClassification, tuple[frozenset[Arc], frozenset[Arc]]]:
    """Classification, dependency arcs and conflict edges read straight off
    the truth table."""
    mask = truth_table_mask(formula)
    assert mask, "truth-table relations need a satisfiable formula"
    n = formula.num_vars
    rows = 1 << n
    full = (1 << rows) - 1
    columns = {v: variable_column(n, v) for v in range(1, n + 1)}
    core = frozenset(v for v in range(1, n + 1) if mask & ~columns[v] & full == 0)
    dead = frozenset(v for v in range(1, n + 1) if mask & columns[v] == 0)
    configurable = frozenset(set(range(1, n + 1)) - core - dead)
    selecting = {v: mask & columns[v] for v in configurable}
    arcs = frozenset((v, g) for v in configurable for g in configurable
                     if g != v and selecting[v] & ~columns[g] & full == 0)
    edges = frozenset((v, g) for v in configurable for g in configurable
                      if v < g and selecting[v] & columns[g] == 0)
    classification = FeatureClassification(
        num_vars=n, core=core, dead=dead, configurable=configurable
    )
    return classification, (arcs, edges)


def random_cnf(
    rng: random.Random, num_vars: int, ratio: float, width: int = 3
) -> CnfFormula:
    """Random width-CNF: distinct variables per clause, fair-coin signs."""
    num_clauses = max(1, round(num_vars * ratio))
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def random_satisfiable_cnf(
    rng: random.Random, num_vars: int, ratio: float, width: int = 3
) -> CnfFormula:
    while True:
        formula = random_cnf(rng, num_vars, ratio, width)
        if truth_table_mask(formula):
            return formula


def average_ranks_reference(values) -> list[float]:
    # Reference rank helper, written independently of fmnet.stats.average_ranks.
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def exact_wilcoxon_p(a, b) -> float:
    """One-sided (a larger) signed-rank p-value by enumerating all sign patterns."""
    diffs = [x - y for x, y in zip(a, b)]
    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    assert 0 < n <= 20, "exact enumeration is for small samples"
    ranks = average_ranks_reference([abs(d) for d in nonzero])
    observed = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    hits = 0
    for pattern in range(1 << n):
        w = sum(ranks[i] for i in range(n) if pattern >> i & 1)
        hits += w >= observed - 1e-9
    return hits / (1 << n)


MUTATION_KINDS = (
    "add_arc", "remove_arc", "add_edge", "remove_edge",
    "add_core", "remove_core", "add_dead", "remove_dead", "drop_node",
)

# Discrepancy kind validate_model must report for each mutation kind.
EXPECTED_DISCREPANCY_KIND = {
    "add_arc": "arc", "remove_arc": "arc",
    "add_edge": "edge", "remove_edge": "edge",
    "add_core": "core", "remove_core": "core",
    "add_dead": "dead", "remove_dead": "dead",
    "drop_node": "node",
}


def apply_mutation(graphs, kind: str, rng: random.Random):
    """One corrupted copy of a correct graphs artifact.

    Returns None when the artifact has no material for the requested kind
    (no arcs to remove, no dead features to flip, ...). Each mutation keeps
    the artifact structurally coherent, so a validator must catch it through
    the formula, not through shape checks.
    """
    cls = graphs.classification
    nodes = sorted(graphs.nodes)
    if kind == "add_arc":
        pairs = [(u, v) for u in nodes for v in nodes
                 if u != v and (u, v) not in graphs.dep_arcs]
        if not pairs:
            return None
        return dataclasses.replace(
            graphs, dep_arcs=graphs.dep_arcs | {rng.choice(pairs)})
    if kind == "remove_arc":
        if not graphs.dep_arcs:
            return None
        victim = rng.choice(sorted(graphs.dep_arcs))
        return dataclasses.replace(graphs, dep_arcs=graphs.dep_arcs - {victim})
    if kind == "add_edge":
        pairs = [(u, v) for u in nodes for v in nodes
                 if u < v and (u, v) not in graphs.conflict_edges]
        if not pairs:
            return None
        return dataclasses.replace(
            graphs, conflict_edges=graphs.conflict_edges | {rng.choice(pairs)})
    if kind == "remove_edge":
        if not graphs.conflict_edges:
            return None
        victim = rng.choice(sorted(graphs.conflict_edges))
        return dataclasses.replace(
            graphs, conflict_edges=graphs.conflict_edges - {victim})
    if kind in ("add_core", "add_dead"):
        if not nodes:
            return None
        chosen = rng.choice(nodes)
        new_cls = dataclasses.replace(
            cls,
            core=cls.core | {chosen} if kind == "add_core" else cls.core,
            dead=cls.dead | {chosen} if kind == "add_dead" else cls.dead,
            configurable=cls.configurable - {chosen},
        )
        return dataclasses.replace(
            graphs,
            dep_arcs=frozenset(p for p in graphs.dep_arcs if chosen not in p),
            conflict_edges=frozenset(
                p for p in graphs.conflict_edges if chosen not in p),
            classification=new_cls,
        )
    if kind == "remove_core":
        if not cls.core:
            return None
        chosen = rng.choice(sorted(cls.core))
        new_cls = dataclasses.replace(
            cls, core=cls.core - {chosen}, configurable=cls.configurable | {chosen})
        return dataclasses.replace(graphs, classification=new_cls)
    if kind == "remove_dead":
        if not cls.dead:
            return None
        chosen = rng.choice(sorted(cls.dead))
        new_cls = dataclasses.replace(
            cls, dead=cls.dead - {chosen}, configurable=cls.configurable | {chosen})
        return dataclasses.replace(graphs, classification=new_cls)
    if kind == "drop_node":
        if not nodes:
            return None
        chosen = rng.choice(nodes)
        new_cls = dataclasses.replace(cls, configurable=cls.configurable - {chosen})
        return dataclasses.replace(
            graphs,
            dep_arcs=frozenset(p for p in graphs.dep_arcs if chosen not in p),
            conflict_edges=frozenset(
                p for p in graphs.conflict_edges if chosen not in p),
            classification=new_cls,
        )
    raise ValueError(f"unknown mutation kind {kind!r}")


@pytest.fixture(scope="session")
def coreboot_formula() -> CnfFormula:
    return coreboot_graphics_formula()


@pytest.fixture
def solve_log(monkeypatch) -> list:
    """Every ``SatEngine.solve`` call made while the test runs, in order,
    as ``(assumptions, soft, outcome)``."""
    log = []
    solve = SatEngine.solve

    def recording(self, assumptions=(), soft=(0, 0)):
        outcome = solve(self, assumptions, soft)
        log.append((tuple(assumptions), tuple(soft), outcome))
        return outcome

    monkeypatch.setattr(SatEngine, "solve", recording)
    return log


@pytest.fixture
def search_log(monkeypatch) -> list:
    """What every ``SatEngine._search`` call made while the test runs
    returned, in order: True when the search found a model. A SAT answer
    with no search behind it came from a walk."""
    log = []
    search = SatEngine._search

    def recording(self, codes):
        found = search(self, codes)
        log.append(found)
        return found

    monkeypatch.setattr(SatEngine, "_search", recording)
    return log


@pytest.fixture(scope="session")
def coreboot_index(coreboot_formula) -> dict[str, int]:
    return {name: var for var, name in coreboot_formula.names.items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion(request):
    """Recorder for acceptance-criterion verdicts printed after the run."""

    def record(number: int, title: str, passed: bool, detail: str = "") -> None:
        lines = request.config.__dict__.setdefault("_acceptance_lines", [])
        verdict = "PASS" if passed else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        lines.append(f"criterion {number} {verdict}: {title}{suffix}")

    return record
