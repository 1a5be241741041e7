import random

import pytest

from conftest import random_cnf, random_satisfiable_cnf, tt_backbone_literals, truth_table_mask
from fmnet.backbone import Backbone, compute_backbone
from fmnet.cnf import CnfFormula
from fmnet.errors import VoidModelError


class TestBackboneDataclass:
    def test_polarity_of(self):
        backbone = Backbone(frozenset({1, -3}))
        assert backbone.polarity_of(1) == 1
        assert backbone.polarity_of(3) == -1
        assert backbone.polarity_of(2) is None

    def test_rejects_both_polarities(self):
        with pytest.raises(ValueError, match="both polarities"):
            Backbone(frozenset({2, -2}))

    def test_sat_calls_ignored_by_equality(self):
        assert Backbone(frozenset({1}), sat_calls=3) == Backbone(frozenset({1}), sat_calls=9)


class TestComputeBackbone:
    def test_known_small_formula(self):
        # 1 forced, 2 forced through the implication, 3 free.
        formula = CnfFormula(num_vars=3, clauses=((1,), (-1, 2)))
        assert compute_backbone(formula).literals == frozenset({1, 2})

    def test_negative_backbone_literal(self):
        formula = CnfFormula(num_vars=2, clauses=((-1,), (1, 2)))
        assert compute_backbone(formula).literals == frozenset({-1, 2})

    def test_empty_backbone(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2),))
        assert compute_backbone(formula).literals == frozenset()

    def test_unsat_raises(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        with pytest.raises(VoidModelError, match="unsatisfiable"):
            compute_backbone(formula)

    def test_trivially_unsat_raises(self):
        formula = CnfFormula(num_vars=1, clauses=(), trivially_unsat=True)
        with pytest.raises(VoidModelError, match="empty clause"):
            compute_backbone(formula)

    def test_unsat_under_assumptions_raises(self):
        formula = CnfFormula(num_vars=2, clauses=((-1, 2),))
        with pytest.raises(VoidModelError, match="under assumptions"):
            compute_backbone(formula, (1, -2))

    def test_assumptions_join_backbone(self):
        formula = CnfFormula(num_vars=3, clauses=((1, 2, 3),))
        backbone = compute_backbone(formula, (-2,))
        assert -2 in backbone.literals
        # Conditioning can force more: with 2 off and 3 off, 1 is forced.
        backbone = compute_backbone(formula, (-2, -3))
        assert backbone.literals == frozenset({1, -2, -3})

    def test_agrees_with_truth_table(self):
        rng = random.Random(777)
        for _ in range(200):
            num_vars = rng.randint(1, 14)
            formula = random_cnf(rng, num_vars, rng.uniform(1.5, 4.5))
            if truth_table_mask(formula) == 0:
                with pytest.raises(VoidModelError):
                    compute_backbone(formula)
                continue
            backbone = compute_backbone(formula)
            assert backbone.literals == tt_backbone_literals(formula)

    def test_call_budget(self):
        # One initial model plus at most one test per candidate variable.
        rng = random.Random(13)
        for _ in range(100):
            num_vars = rng.randint(1, 14)
            formula = random_satisfiable_cnf(rng, num_vars, rng.uniform(1.5, 4.0))
            backbone = compute_backbone(formula)
            assert backbone.sat_calls <= num_vars + 1

    def test_conditioned_backbone_matches_conditioned_formula(self):
        rng = random.Random(55)
        for _ in range(80):
            num_vars = rng.randint(2, 10)
            formula = random_satisfiable_cnf(rng, num_vars, rng.uniform(1.0, 3.0))
            var = rng.randint(1, num_vars)
            lit = var if rng.random() < 0.5 else -var
            conditioned = CnfFormula(
                num_vars=num_vars, clauses=formula.clauses + ((lit,),)
            )
            if truth_table_mask(conditioned) == 0:
                with pytest.raises(VoidModelError):
                    compute_backbone(formula, (lit,))
                continue
            assert (
                compute_backbone(formula, (lit,)).literals
                == tt_backbone_literals(conditioned)
            )
