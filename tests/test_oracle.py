import dataclasses
import json
import random

import pytest

from conftest import (
    EXPECTED_DISCREPANCY_KIND,
    MUTATION_KINDS,
    apply_mutation,
    random_cnf,
    random_satisfiable_cnf,
    tt_model_count,
    tt_model_masks,
    tt_strong_relations,
)
import fmnet.cli as cli
import fmnet.oracle as oracle
import fmnet.sat as sat
from fmnet.cnf import CnfFormula, parse_dimacs
from fmnet.errors import EnumerationLimitError, VoidModelError
from fmnet.oracle import Discrepancy, enumerate_models, oracle_strong_relations, validate_model
from fmnet.sat import SatEngine
from fmnet.strong_graphs import compute_strong_graphs, extract_strong_relations


class TestEnumerateModels:
    def test_models_distinct_and_complete(self):
        rng = random.Random(5)
        for _ in range(100):
            formula = random_cnf(rng, rng.randint(1, 10), rng.uniform(0.8, 3.0))
            models = list(enumerate_models(formula))
            assert len(set(models)) == len(models)
            assert len(models) == tt_model_count(formula)
            assert sorted(models) == sorted(tt_model_masks(formula))

    def test_repeated_literals_and_tautologies_against_truth_table(self):
        # Literals drawn with replacement, so clauses repeat literals and
        # hold both signs of a variable.
        rng = random.Random(8)
        for _ in range(100):
            num_vars = rng.randint(1, 8)
            clauses = tuple(
                tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                      for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3 * num_vars))
            )
            formula = CnfFormula(num_vars=num_vars, clauses=clauses)
            assert sorted(enumerate_models(formula)) == tt_model_masks(formula)

    def test_zero_var_formula_has_one_empty_model(self):
        models = list(enumerate_models(CnfFormula(num_vars=0, clauses=())))
        assert models == [0]

    def test_unsat_yields_nothing(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        assert list(enumerate_models(formula)) == []

    def test_empty_clause_yields_nothing(self):
        for clauses in (((),), ((1, 2), ()), ((), (1, 2))):
            formula = CnfFormula(num_vars=2, clauses=clauses)
            assert list(enumerate_models(formula)) == []

    def test_tautology_and_duplicated_literal(self):
        formula = CnfFormula(num_vars=2, clauses=((1, -1), (2, 2)))
        models = list(enumerate_models(formula))
        assert sorted(models) == [0b100, 0b110]

    def test_var_limit(self):
        # All units, so raising the limit keeps the enumeration tiny.
        formula = CnfFormula(num_vars=26, clauses=tuple((v,) for v in range(1, 27)))
        with pytest.raises(EnumerationLimitError, match="26 variables"):
            list(enumerate_models(formula))
        assert len(list(enumerate_models(formula, var_limit=26))) == 1

    def test_free_variables_enumerated(self):
        # 2 constrained + 1 free variable: every model pair appears.
        formula = CnfFormula(num_vars=3, clauses=((1,), (-1, 2)))
        assert len(list(enumerate_models(formula))) == 2

    def test_many_models(self):
        # Three quarters of the 2^16 assignments satisfy (1, 2).
        models = list(enumerate_models(CnfFormula(num_vars=16, clauses=((1, 2),))))
        assert len(models) == len(set(models)) == 49_152
        assert all(model & 0b110 and not model & 1 for model in models)

    def test_every_clause_holds_the_top_variable(self, monkeypatch):
        # (v, n) and (-v, -n) for each v < n: the value of variable 1 forces
        # n and then every other variable, so propagation leaves two leaves,
        # where a walk that checks each clause only at its highest variable
        # explores 2^(n-1) partial assignments.
        n = 22
        clauses = tuple(c for v in range(1, n) for c in ((v, n), (-v, -n)))
        calls = []
        propagate = oracle._propagate

        def counted(*args):
            calls.append(args)
            return propagate(*args)

        monkeypatch.setattr(oracle, "_propagate", counted)
        models = sorted(enumerate_models(CnfFormula(num_vars=n, clauses=clauses)))
        assert models == [(1 << n) - 2, 1 << n]
        assert len(calls) == 3  # the root and each value of variable 1


# R; P -> R; A, B, C -> P; P -> A | B | C; P -> !A; P -> !B. So A and B are
# dead, R is core, and P and C force each other, but only through the one
# clause of width 4.
WIDE_CLAUSE_DIMACS = """\
c 1 R
c 2 P
c 3 A
c 4 B
c 5 C
p cnf 5 8
1 0
-2 1 0
-3 2 0
-4 2 0
-5 2 0
-2 3 4 5 0
-2 -3 0
-2 -4 0
"""


class TestIndependence:
    """The oracle shares no code with the solver, so a solver fault shows."""

    def test_engine_dropping_wide_clauses_is_caught(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "wide.cnf"
        path.write_text(WIDE_CLAUSE_DIMACS, "utf-8")
        assert cli.main(["oracle", str(path)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["arcs"] == [["C", "P"], ["P", "C"]]

        real_init = SatEngine.__init__

        def narrow(self, formula):
            kept = tuple(c for c in formula.clauses if len(c) < 4)
            real_init(self, dataclasses.replace(formula, clauses=kept))

        monkeypatch.setattr(SatEngine, "__init__", narrow)
        assert cli.main(["oracle", str(path)]) == cli.EXIT_DISAGREEMENT
        payload = json.loads(capsys.readouterr().out)
        assert payload["arcs"] == [["C", "P"], ["P", "C"]]
        assert payload["agrees_with_extraction"] is False

    def test_oracle_runs_without_the_solver(self, monkeypatch):
        def refuse(self, formula):
            raise AssertionError("the enumeration oracle built a solver")

        formula = parse_dimacs(WIDE_CLAUSE_DIMACS)
        # Both the module's name and the class every module imported.
        monkeypatch.setattr(sat, "SatEngine", type("NoSolver", (), {"__init__": refuse}))
        monkeypatch.setattr(SatEngine, "__init__", refuse)
        classification, relations = oracle_strong_relations(formula)
        assert (classification.core, classification.dead) == ({1}, {3, 4})
        assert {v: r.depends_on for v, r in relations.items()} == {2: {5}, 5: {2}}
        assert (classification, relations) == tt_strong_relations(formula)


class TestOracleStrongRelations:
    def test_matches_truth_table(self):
        # The enumeration oracle against the solver-free oracle.
        rng = random.Random(66)
        for _ in range(80):
            formula = random_satisfiable_cnf(rng, rng.randint(2, 10), rng.uniform(1.5, 3.5))
            assert oracle_strong_relations(formula) == tt_strong_relations(formula)

    def test_matches_extractor_on_fixture(self, coreboot_formula):
        classification, relations = extract_strong_relations(coreboot_formula)
        oracle_classification, oracle_relations = oracle_strong_relations(coreboot_formula)
        assert classification == oracle_classification
        assert relations == oracle_relations

    def test_void_model_raises(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        with pytest.raises(VoidModelError):
            oracle_strong_relations(formula)

    def test_var_limit_enforced(self):
        formula = CnfFormula(num_vars=30, clauses=tuple((v,) for v in range(1, 31)))
        with pytest.raises(EnumerationLimitError):
            oracle_strong_relations(formula)
        classification, _ = oracle_strong_relations(formula, var_limit=30)
        assert classification.core == frozenset(range(1, 31))


class TestValidateModel:
    def test_correct_artifact_passes(self, coreboot_formula):
        graphs = compute_strong_graphs(coreboot_formula)
        report = validate_model(coreboot_formula, graphs, model_id="coreboot")
        assert report.passed
        assert report.model_id == "coreboot"
        assert report.discrepancies == ()
        assert report.checked_core == 3
        assert report.checked_nodes == 12

    def test_correct_random_artifacts_pass(self):
        rng = random.Random(15)
        for _ in range(30):
            formula = random_satisfiable_cnf(rng, rng.randint(2, 10), rng.uniform(1.5, 3.5))
            graphs = compute_strong_graphs(formula)
            assert validate_model(formula, graphs).passed

    def test_partial_sampling_passes(self):
        rng = random.Random(16)
        formula = random_satisfiable_cnf(rng, 12, 2.0)
        graphs = compute_strong_graphs(formula)
        report = validate_model(formula, graphs, sample_size=3, seed=5)
        assert report.passed
        assert report.checked_nodes == min(3, len(graphs.nodes))

    def test_sample_size_validation(self):
        formula = CnfFormula(num_vars=1, clauses=((1,),))
        graphs = compute_strong_graphs(formula)
        with pytest.raises(ValueError, match="sample_size"):
            validate_model(formula, graphs, sample_size=0)

    def test_empty_clause_rejected(self):
        formula = CnfFormula(num_vars=1, clauses=((1,),))
        graphs = compute_strong_graphs(formula)
        broken = CnfFormula(num_vars=1, clauses=((1,), ()))
        with pytest.raises(VoidModelError, match="empty clause"):
            validate_model(broken, graphs)

    def test_each_mutation_kind_on_fixture(self, coreboot_formula):
        graphs = compute_strong_graphs(coreboot_formula)
        rng = random.Random(9)
        exercised = 0
        for kind in MUTATION_KINDS:
            mutated = apply_mutation(graphs, kind, rng)
            if mutated is None:  # the fixture has no dead features
                assert kind == "remove_dead"
                continue
            report = validate_model(coreboot_formula, mutated)
            assert len(report.discrepancies) == 1, kind
            assert report.discrepancies[0].kind == EXPECTED_DISCREPANCY_KIND[kind]
            exercised += 1
        assert exercised == len(MUTATION_KINDS) - 1

    def test_remove_dead_mutation(self):
        # 3 is dead here, unlike in the fixture.
        formula = CnfFormula(num_vars=3, clauses=((1, 2), (-3,)))
        graphs = compute_strong_graphs(formula)
        mutated = apply_mutation(graphs, "remove_dead", random.Random(0))
        report = validate_model(formula, mutated)
        assert [d.kind for d in report.discrepancies] == ["dead"]
        assert report.discrepancies[0].features == (3,)

    def test_structural_endpoint_violation_detected(self):
        # An arc reaching outside the node set is flagged even though the
        # entailment behind it is real.
        formula = CnfFormula(num_vars=3, clauses=((1,), (-3, 2)))
        graphs = compute_strong_graphs(formula)
        assert 1 in graphs.classification.core
        bad = dataclasses.replace(graphs, dep_arcs=graphs.dep_arcs | {(2, 1)})
        report = validate_model(formula, bad)
        assert not report.passed
        assert any(d.kind == "arc" and d.features == (2, 1)
                   for d in report.discrepancies)

    def test_two_faults_give_two_discrepancies_sorted(self):
        rng = random.Random(21)
        formula = random_satisfiable_cnf(rng, 8, 2.0)
        graphs = compute_strong_graphs(formula)
        once = apply_mutation(graphs, "drop_node", random.Random(1))
        twice = apply_mutation(once, "drop_node", random.Random(2))
        if twice is None:
            pytest.skip("formula too small for two node drops")
        report = validate_model(formula, twice)
        assert len(report.discrepancies) == 2
        features = [d.features for d in report.discrepancies]
        assert features == sorted(features)

    def test_report_counters_cover_all_pairs_when_exhaustive(self, coreboot_formula):
        graphs = compute_strong_graphs(coreboot_formula)
        report = validate_model(coreboot_formula, graphs)
        n = len(graphs.nodes)
        assert report.checked_arcs == n * (n - 1)
        assert report.checked_edges == n * (n - 1) // 2


# Variable 1 is core, 5 is dead and 2, 3, 4 are configurable, with the arc
# 3 -> 2 and the edges 2-4 and 3-4 (3 forces 2, which excludes 4).
PINNED_FORMULA = CnfFormula(num_vars=5, clauses=((1,), (-5,), (-3, 2), (-2, -4)))


def _reclassify(graphs, core=None, dead=None, nodes=None):
    """A copy whose core, dead and node sets are replaced; relations that
    leave the node set are dropped, so only the intended fault remains."""
    cls = graphs.classification
    core = cls.core if core is None else frozenset(core)
    dead = cls.dead if dead is None else frozenset(dead)
    nodes = graphs.nodes if nodes is None else frozenset(nodes)
    return dataclasses.replace(
        graphs,
        dep_arcs=frozenset(p for p in graphs.dep_arcs if set(p) <= nodes),
        conflict_edges=frozenset(p for p in graphs.conflict_edges if set(p) <= nodes),
        classification=dataclasses.replace(cls, core=core, dead=dead, configurable=nodes),
    )


# fault class -> (corrupt the correct artifact, the one expected discrepancy,
# checked_core and checked_dead of the report)
PINNED_FAULTS = {
    "claimed arc": (
        lambda g: dataclasses.replace(g, dep_arcs=g.dep_arcs | {(2, 3)}),
        ("arc", (2, 3), "selecting the first forces the second",
         "a configuration has the first without the second"), 1, 1),
    "claimed edge": (
        lambda g: dataclasses.replace(g, conflict_edges=g.conflict_edges | {(2, 3)}),
        ("edge", (2, 3), "never selected together", "a configuration selects both"), 1, 1),
    "claimed core": (
        lambda g: _reclassify(g, core={1, 2}, nodes={3, 4}),
        ("core", (2,), "selected in every configuration", "a configuration omits it"), 2, 1),
    "claimed dead": (
        lambda g: _reclassify(g, dead={2, 5}, nodes={3, 4}),
        ("dead", (2,), "selected in no configuration", "a configuration selects it"), 1, 2),
    "absent arc": (
        lambda g: dataclasses.replace(g, dep_arcs=g.dep_arcs - {(3, 2)}),
        ("arc", (3, 2), "no strong dependency recorded",
         "selecting the first forces the second"), 1, 1),
    "absent edge": (
        lambda g: dataclasses.replace(g, conflict_edges=g.conflict_edges - {(2, 4)}),
        ("edge", (2, 4), "no strong conflict recorded",
         "they are never selected together"), 1, 1),
    "core node": (
        lambda g: _reclassify(g, core=(), nodes={1, 2, 3, 4}),
        ("core", (1,), "configurable", "selected in every configuration"), 0, 1),
    "dead node": (
        lambda g: _reclassify(g, dead=(), nodes={2, 3, 4, 5}),
        ("dead", (5,), "configurable", "selected in no configuration"), 1, 0),
    "omitted node": (
        lambda g: _reclassify(g, nodes={2, 3}),
        ("node", (4,), "listed as a configurable node", "missing from the artifact"), 1, 1),
    "omitted core": (
        lambda g: _reclassify(g, core=()),
        ("core", (1,), "listed as core", "missing from the artifact"), 1, 1),
    "omitted dead": (
        lambda g: _reclassify(g, dead=()),
        ("dead", (5,), "listed as dead", "missing from the artifact"), 1, 1),
    "arc endpoint": (
        lambda g: dataclasses.replace(g, dep_arcs=g.dep_arcs | {(2, 1)}),
        ("arc", (2, 1), "both endpoints configurable nodes", "feature 1 is not a node"), 1, 1),
    "edge endpoint": (
        lambda g: dataclasses.replace(g, conflict_edges=g.conflict_edges | {(2, 5)}),
        ("edge", (2, 5), "both endpoints configurable nodes", "feature 5 is not a node"), 1, 1),
}


@pytest.mark.parametrize("fault", sorted(PINNED_FAULTS))
def test_discrepancy_texts_pinned(fault):
    graphs = compute_strong_graphs(PINNED_FORMULA)
    assert graphs.classification.core == {1} and graphs.classification.dead == {5}
    assert graphs.dep_arcs == {(3, 2)} and graphs.conflict_edges == {(2, 4), (3, 4)}
    corrupt, expected, checked_core, checked_dead = PINNED_FAULTS[fault]
    report = validate_model(PINNED_FORMULA, corrupt(graphs))
    assert report.discrepancies == (Discrepancy(*expected),)
    assert (report.checked_core, report.checked_dead) == (checked_core, checked_dead)


@pytest.mark.parametrize("options, solves", [({}, 225), ({"sample_size": 3, "seed": 5}, 70)])
def test_one_solve_per_check(coreboot_formula, solve_log, options, solves):
    # On a correct artifact every check is one assumption solve, and each
    # sampled node takes two (not core, not dead).
    graphs = compute_strong_graphs(coreboot_formula)
    solve_log.clear()
    report = validate_model(coreboot_formula, graphs, **options)
    assert report.passed
    assert len(solve_log) == solves == (
        report.checked_core + report.checked_dead + 2 * report.checked_nodes
        + report.checked_arcs + report.checked_edges
    )
