import random

import pytest

from conftest import (
    random_cnf,
    random_satisfiable_cnf,
    truth_table_mask,
    tt_backbone_literals,
    tt_model_masks,
)
from fmnet.cnf import CnfFormula
from fmnet.errors import VoidModelError
from fmnet.sat import SatEngine, Status
from fmnet.strong_graphs import Backbone, compute_backbone


def soft_literals(soft):
    """The literals a ``(true_mask, false_mask)`` pair of soft masks stands for."""
    true_mask, false_mask = soft
    return [v for v in range(true_mask.bit_length()) if true_mask >> v & 1] + [
        -v for v in range(false_mask.bit_length()) if false_mask >> v & 1
    ]


def unit_fixed(formula):
    """Literals that unit propagation from the clauses alone fixes."""
    fixed = set()
    while True:
        for clause in formula.clauses:
            if not fixed.intersection(clause):
                left = [lit for lit in clause if -lit not in fixed]
                if len(left) == 1:
                    fixed.add(left[0])
                    break
        else:
            return frozenset(fixed)


class TestBackboneDataclass:
    def test_rejects_both_polarities(self):
        with pytest.raises(ValueError, match="both polarities"):
            Backbone(frozenset({2, -2}))

    def test_sat_calls_ignored_by_equality(self):
        assert Backbone(frozenset({1}), sat_calls=3) == Backbone(frozenset({1}), sat_calls=9)

    def test_models_ignored_by_equality(self):
        assert Backbone(frozenset({1}), models=(0b10,)) == Backbone(frozenset({1}))


class TestComputeBackbone:
    def test_known_small_formula(self):
        # 1 forced, 2 forced through the implication, 3 free.
        formula = CnfFormula(num_vars=3, clauses=((1,), (-1, 2)))
        assert compute_backbone(SatEngine(formula)).literals == frozenset({1, 2})

    def test_negative_backbone_literal(self):
        formula = CnfFormula(num_vars=2, clauses=((-1,), (1, 2)))
        assert compute_backbone(SatEngine(formula)).literals == frozenset({-1, 2})

    def test_empty_backbone(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2),))
        assert compute_backbone(SatEngine(formula)).literals == frozenset()

    def test_unsat_raises(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        with pytest.raises(VoidModelError, match="unsatisfiable"):
            compute_backbone(SatEngine(formula))

    def test_agrees_with_truth_table(self):
        rng = random.Random(777)
        for _ in range(200):
            num_vars = rng.randint(1, 14)
            formula = random_cnf(rng, num_vars, rng.uniform(1.5, 4.5))
            if truth_table_mask(formula) == 0:
                with pytest.raises(VoidModelError):
                    compute_backbone(SatEngine(formula))
                continue
            backbone = compute_backbone(SatEngine(formula))
            assert backbone.literals == tt_backbone_literals(formula)

    def test_call_budget(self):
        # One initial model plus at most one test per candidate variable.
        rng = random.Random(13)
        for _ in range(100):
            num_vars = rng.randint(1, 14)
            formula = random_satisfiable_cnf(rng, num_vars, rng.uniform(1.5, 4.0))
            backbone = compute_backbone(SatEngine(formula))
            assert backbone.sat_calls <= num_vars + 1

    def test_chunks_keep_the_call_budget(self, solve_log):
        # Unit clauses settle candidates by propagation, which pays for
        # chunk queries (several candidates at once, as soft literals).
        # Without a unit clause nothing pays for one. The budget above
        # holds, and soft literals never make a chunk UNSAT.
        rng = random.Random(2015)
        for _ in range(300):
            num_vars = rng.randint(4, 14)
            while True:
                base = random_cnf(rng, num_vars, rng.uniform(1.0, 4.0))
                units = tuple((v if rng.random() < 0.5 else -v,)
                              for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 2)))
                formula = CnfFormula(num_vars=num_vars, clauses=base.clauses + units)
                if truth_table_mask(formula):
                    break
            backbone = compute_backbone(SatEngine(formula))
            assert backbone.literals == tt_backbone_literals(formula)
            assert backbone.sat_calls <= num_vars + 1
        chunks = [outcome.status for _, soft, outcome in solve_log if soft != (0, 0)]
        assert chunks.count(Status.SAT) > 100 and chunks.count(Status.UNSAT) == 0

    def test_counts_only_its_own_solves(self):
        engine = SatEngine(CnfFormula(num_vars=3, clauses=((1,), (-1, 2))))
        engine.solve()
        engine.solve((3,))
        backbone = compute_backbone(engine)
        assert backbone.sat_calls == engine.num_solve_calls - 2
        assert backbone.sat_calls <= 4

    def test_models_are_the_models_found(self, solve_log):
        # Each mask is a model of the formula, and there is one per SAT
        # answer. Each backbone literal takes one single-literal UNSAT
        # answer, except those fixed at the root once the first model is
        # found: propagation confirms them without a solve. A chunk query
        # (soft literals) is never UNSAT.
        rng = random.Random(31)
        for _ in range(100):
            num_vars = rng.randint(1, 12)
            formula = random_satisfiable_cnf(rng, num_vars, rng.uniform(1.5, 4.0))
            probe = SatEngine(formula)
            probe.solve()
            root_true, root_false = probe.implied_literals(())
            solve_log.clear()
            backbone = compute_backbone(SatEngine(formula))
            answers = [(len(assumptions), outcome.status) for assumptions, _, outcome in solve_log]
            queried = len(backbone.literals) - bin(root_true | root_false).count("1")
            assert len(answers) == backbone.sat_calls
            assert len(backbone.models) == sum(status is Status.SAT for _, status in answers)
            assert queried == answers.count((1, Status.UNSAT))
            assert set(backbone.models) <= set(tt_model_masks(formula))
            for lit in backbone.literals:
                assert all((mask >> abs(lit) & 1) == (lit > 0) for mask in backbone.models)

    def test_no_query_for_a_refuted_candidate(self, solve_log):
        # Each model found refutes every candidate it disagrees with, so no
        # literal of a later query, a chunk query's soft literals included,
        # asks about one of those; some queries are saved.
        rng = random.Random(55)
        saved = 0
        for _ in range(100):
            num_vars = rng.randint(2, 12)
            formula = random_satisfiable_cnf(rng, num_vars, rng.uniform(1.5, 4.0))
            solve_log.clear()
            backbone = compute_backbone(SatEngine(formula))
            made = [((*assumptions, *soft_literals(soft)), outcome.model)
                    for assumptions, soft, outcome in solve_log]
            for i, (query, _) in enumerate(made[1:], start=1):
                earlier = [model for _, model in made[:i] if model is not None]
                assert not any(
                    (m >> abs(lit) & 1) == (lit > 0) for m in earlier for lit in query
                )
            saved += num_vars + 1 - backbone.sat_calls
        assert saved > 0

    def test_no_query_for_a_variable_fixed_at_the_root(self, solve_log):
        # Unit clauses and the binary clauses they propagate through fix
        # variables at the root; propagation settles those without a query.
        rng = random.Random(808)
        fixed_seen = 0
        for _ in range(100):
            num_vars = rng.randint(2, 12)
            while True:
                base = random_cnf(rng, num_vars, rng.uniform(0.5, 2.0), width=2)
                units = tuple((v if rng.random() < 0.5 else -v,)
                              for v in rng.sample(range(1, num_vars + 1), rng.randint(1, 2)))
                formula = CnfFormula(num_vars=num_vars, clauses=base.clauses + units)
                if truth_table_mask(formula):
                    break
            fixed = unit_fixed(formula)
            solve_log.clear()
            backbone = compute_backbone(SatEngine(formula))
            queried = [abs(lit) for assumptions, soft, _ in solve_log
                       for lit in (*assumptions, *soft_literals(soft))]
            assert backbone.literals == tt_backbone_literals(formula)
            assert fixed <= backbone.literals
            assert not {abs(lit) for lit in fixed} & set(queried)
            fixed_seen += len(fixed)
        assert fixed_seen > 150

    def test_reused_engine_agrees_with_truth_table(self):
        # The engine may have answered other queries and learned clauses.
        rng = random.Random(4242)
        for _ in range(150):
            num_vars = rng.randint(2, 12)
            formula = random_satisfiable_cnf(rng, num_vars, rng.uniform(1.5, 4.0))
            engine = SatEngine(formula)
            for _ in range(3):
                picked = rng.sample(range(1, num_vars + 1), 2)
                engine.solve(tuple(v if rng.random() < 0.5 else -v for v in picked))
            assert compute_backbone(engine).literals == tt_backbone_literals(formula)
