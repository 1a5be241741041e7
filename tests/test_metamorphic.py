"""Metamorphic checks of extraction on models too large for the oracles.

The enumeration oracle stops at 25 variables, but which model a query
starts from, which soft literal a query takes first and which features are
still open all depend on order, so an order-dependent bug could show only
on large models. Each check here changes a 1,000-feature Kconfig-shaped
model in a way that, by the definitions, leaves its classification and
relations as they were (Segura, Hierons, Benavides & Ruiz-Cortes,
"Automated metamorphic testing on the analyses of feature models", IST
53(3), 2011), and compares the two extractions.
"""

import random

import pytest

from conftest import perfbench_gen
from fmnet.cnf import CnfFormula
from fmnet.feature_model import parse_fm_to_cnf
from fmnet.strong_graphs import FeatureClassification, StrongRelations, extract_strong_relations

SEEDS = ("metamorphic:1", "metamorphic:2")


@pytest.fixture(scope="module")
def models():
    gen = perfbench_gen()
    formulas = [parse_fm_to_cnf(gen.kconfig_model(1000, 0.15, random.Random(seed)))
                for seed in SEEDS]
    return [(formula, extract_strong_relations(formula)) for formula in formulas]


def renumbered(extraction, perm):
    """An extraction with every variable v written as perm[v]."""
    classification, relations = extraction
    return (
        FeatureClassification(
            num_vars=classification.num_vars,
            core=frozenset(perm[v] for v in classification.core),
            dead=frozenset(perm[v] for v in classification.dead),
            configurable=frozenset(perm[v] for v in classification.configurable),
        ),
        {
            perm[v]: StrongRelations(
                depends_on=frozenset(perm[g] for g in rel.depends_on),
                conflicts_with=frozenset(perm[g] for g in rel.conflicts_with),
            )
            for v, rel in relations.items()
        },
    )


def resolvent(clauses):
    """A resolvent of two of the clauses that is no tautology and not a clause."""
    present = {frozenset(c) for c in clauses}
    by_literal = {}
    for clause in clauses:
        for lit in clause:
            by_literal.setdefault(lit, []).append(clause)
    for clause in clauses:
        for lit in clause:
            for other in by_literal.get(-lit, ()):
                merged = (set(clause) - {lit}) | (set(other) - {-lit})
                if merged and not any(-x in merged for x in merged) and merged not in present:
                    return tuple(sorted(merged))
    raise AssertionError("no new resolvent")


@pytest.mark.parametrize("index", range(len(SEEDS)))
def test_renumbering_leaves_the_graphs(models, index):
    # Permute the variables and shuffle the clauses, and the literals in
    # each; the extraction, mapped back, is the same.
    formula, extraction = models[index]
    rng = random.Random(f"renumber:{index}")
    targets = list(formula.variables())
    rng.shuffle(targets)
    perm = dict(zip(formula.variables(), targets))
    clauses = [[perm[abs(lit)] if lit > 0 else -perm[abs(lit)] for lit in clause]
               for clause in formula.clauses]
    rng.shuffle(clauses)
    for clause in clauses:
        rng.shuffle(clause)
    permuted = CnfFormula(num_vars=formula.num_vars, clauses=tuple(map(tuple, clauses)))
    assert extract_strong_relations(permuted) == renumbered(extraction, perm)


@pytest.mark.parametrize("index", range(len(SEEDS)))
def test_redundant_clauses_leave_the_graphs(models, index):
    # A resolvent of two clauses and a dependency the model already has,
    # written as a clause, add no constraint, so they change nothing.
    formula, extraction = models[index]
    _, relations = extraction
    present = {frozenset(c) for c in formula.clauses}
    arcs = sorted((v, g) for v, rel in relations.items() for g in rel.depends_on
                  if frozenset((-v, g)) not in present)
    assert arcs
    v, g = random.Random(f"redundant:{index}").choice(arcs)
    extra = (resolvent(formula.clauses), (-v, g))
    redundant = CnfFormula(num_vars=formula.num_vars, clauses=formula.clauses + extra)
    assert extract_strong_relations(redundant) == extraction


@pytest.mark.parametrize("index", range(len(SEEDS)))
def test_a_feature_and_its_copy(models, index):
    # Add X' <-> X for a configurable X. X and X' require each other, X'
    # has X's arcs, in and out, and X's conflict edges, and nothing else
    # changes. X is picked among the features with arcs in and out; a
    # witness applied to a feature the model does not select leaves none,
    # and then the arcs between X and X' are missing.
    formula, (classification, relations) = models[index]
    required = {g for rel in relations.values() for g in rel.depends_on}
    linked = [v for v, rel in relations.items() if rel.depends_on and v in required]
    x = random.Random(f"copy:{index}").choice(sorted(linked or classification.configurable))
    copy = formula.num_vars + 1
    copied = CnfFormula(num_vars=copy, clauses=formula.clauses + ((-x, copy), (x, -copy)))

    def with_copy(group):
        return group | {copy} if x in group else group

    expected = {
        v: StrongRelations(
            depends_on=with_copy(rel.depends_on) | ({copy} if v == x else set()),
            conflicts_with=with_copy(rel.conflicts_with),
        )
        for v, rel in relations.items()
    }
    expected[copy] = StrongRelations(
        depends_on=relations[x].depends_on | {x},
        conflicts_with=relations[x].conflicts_with,
    )
    expected_classification = FeatureClassification(
        num_vars=copy,
        core=classification.core,
        dead=classification.dead,
        configurable=classification.configurable | {copy},
    )
    assert extract_strong_relations(copied) == (expected_classification, expected)
    assert x in linked
