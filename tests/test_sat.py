import itertools
import random

import pytest

from conftest import (
    random_cnf,
    truth_table_mask,
    tt_model_count,
    tt_model_masks,
    variable_column,
)
import fmnet.sat as sat
from fmnet.cnf import CnfFormula
from fmnet.errors import EnumerationLimitError
from fmnet.sat import SatEngine, SatOutcome, Status, enumerate_models


def satisfies(model, formula):
    return all(any((model >> abs(l) & 1) == (l > 0) for l in c) for c in formula.clauses)


def bits(*variables):
    return sum(1 << v for v in variables)


def conditioned(formula, assumptions):
    """Truth-table rows of the formula's models that satisfy the assumptions."""
    return truth_table_mask(CnfFormula(
        num_vars=formula.num_vars,
        clauses=formula.clauses + tuple((a,) for a in assumptions),
    ))


def implied_hold(rows, num_vars, implied):
    """Whether every truth-table row in ``rows`` sets the masks' variables as they say."""
    true_mask, false_mask = implied
    full = (1 << (1 << num_vars)) - 1
    return all(
        rows & ~variable_column(num_vars, v) & full == 0 if true_mask >> v & 1
        else rows & variable_column(num_vars, v) == 0
        for v in range(1, num_vars + 1)
        if (true_mask | false_mask) >> v & 1
    )


class TestSatOutcome:
    def test_model_required_exactly_for_sat(self):
        with pytest.raises(ValueError):
            SatOutcome(status=Status.SAT)
        with pytest.raises(ValueError):
            SatOutcome(status=Status.UNSAT, model=0b10)


class TestSolve:
    def test_simple_sat(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2), (-1, 2)))
        outcome = SatEngine(formula).solve()
        assert outcome.status is Status.SAT
        assert outcome.model >> 2 & 1

    def test_simple_unsat(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        assert SatEngine(formula).solve().status is Status.UNSAT

    def test_trivially_unsat(self):
        formula = CnfFormula(num_vars=1, clauses=(), trivially_unsat=True)
        assert SatEngine(formula).solve().status is Status.UNSAT

    def test_zero_vars_sat(self):
        outcome = SatEngine(CnfFormula(num_vars=0, clauses=())).solve()
        assert outcome.status is Status.SAT
        assert outcome.model == 0

    def test_assumptions_force_polarity(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2),))
        outcome = SatEngine(formula).solve((-1,))
        assert outcome.status is Status.SAT
        assert not outcome.model >> 1 & 1 and outcome.model >> 2 & 1

    def test_contradictory_assumptions(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2),))
        assert SatEngine(formula).solve((1, -1)).status is Status.UNSAT

    def test_assumption_conflicts_with_clauses(self):
        formula = CnfFormula(num_vars=2, clauses=((1,), (-1, 2)))
        assert SatEngine(formula).solve((-2,)).status is Status.UNSAT
        assert SatEngine(formula).solve((2,)).status is Status.SAT

    def test_assumption_out_of_range(self):
        engine = SatEngine(CnfFormula(num_vars=2, clauses=()))
        with pytest.raises(ValueError, match="assumption"):
            engine.solve((3,))
        with pytest.raises(ValueError, match="assumption"):
            engine.solve((0,))
        with pytest.raises(ValueError, match="assumption"):
            engine.implied_literals((3,))

    def test_solve_call_counter(self):
        engine = SatEngine(CnfFormula(num_vars=1, clauses=((1,),)))
        assert engine.num_solve_calls == 0
        engine.solve()
        engine.solve((1,))
        assert engine.num_solve_calls == 2

    def test_incremental_clauses_between_solves(self):
        engine = SatEngine(CnfFormula(num_vars=2, clauses=((1, 2),)))
        assert engine.solve().status is Status.SAT
        engine.add_clause([-1])
        engine.add_clause([-2])
        assert engine.solve().status is Status.UNSAT

    def test_add_clause_skips_tautology_and_rejects_unknown_variable(self):
        engine = SatEngine(CnfFormula(num_vars=2, clauses=()))
        engine.add_clause([1, 2, -1])
        assert engine._clauses == []
        assert engine.solve((-1, -2)).status is Status.SAT
        with pytest.raises(ValueError, match="literal -3 out of range"):
            engine.add_clause([1, -3])

    def test_unsat_is_sticky(self):
        engine = SatEngine(CnfFormula(num_vars=1, clauses=((1,), (-1,))))
        assert engine.solve().status is Status.UNSAT
        engine.add_clause([1])
        assert engine.solve().status is Status.UNSAT
        assert engine.solve((1,)).status is Status.UNSAT

    def test_model_is_total_and_satisfying(self):
        rng = random.Random(3)
        for _ in range(50):
            formula = random_cnf(rng, rng.randint(1, 15), rng.uniform(1.0, 3.0))
            outcome = SatEngine(formula).solve()
            if outcome.status is Status.SAT:
                assert outcome.model & 1 == 0
                assert outcome.model >> (formula.num_vars + 1) == 0
                assert satisfies(outcome.model, formula)

    def test_agrees_with_truth_table(self):
        # The load-bearing check: 500 random instances against an oracle
        # that shares no code with the solver.
        rng = random.Random(20240814)
        sat_seen = unsat_seen = 0
        for _ in range(500):
            num_vars = rng.randint(1, 20)
            formula = random_cnf(rng, num_vars, rng.uniform(1.0, 5.0))
            expected_sat = truth_table_mask(formula) != 0
            outcome = SatEngine(formula).solve()
            assert (outcome.status is Status.SAT) == expected_sat
            if expected_sat:
                sat_seen += 1
                assert satisfies(outcome.model, formula)
            else:
                unsat_seen += 1
        assert sat_seen > 50 and unsat_seen > 50

    def test_assumptions_agree_with_conditioned_truth_table(self):
        rng = random.Random(97)
        for _ in range(200):
            num_vars = rng.randint(2, 12)
            formula = random_cnf(rng, num_vars, rng.uniform(1.5, 4.0))
            picked = rng.sample(range(1, num_vars + 1), 2)
            assumptions = tuple(v if rng.random() < 0.5 else -v for v in picked)
            expected_sat = conditioned(formula, assumptions) != 0
            outcome = SatEngine(formula).solve(assumptions)
            assert (outcome.status is Status.SAT) == expected_sat
            if expected_sat:
                assert all((outcome.model >> abs(a) & 1) == (a > 0) for a in assumptions)


class TestImpliedLiterals:
    def test_chain_above_the_root(self):
        # 4 is fixed at the root, so it is left out.
        formula = CnfFormula(num_vars=4, clauses=((-1, 2), (-2, 3), (4,)))
        engine = SatEngine(formula)
        assert engine.implied_literals((1,)) == (bits(1, 2, 3), 0)
        assert engine.implied_literals((3,)) == (bits(3), 0)
        assert engine.implied_literals((4,)) == (0, 0)
        assert engine.implied_literals((-3,)) == (0, bits(1, 2, 3))

    def test_conflict_returns_none(self):
        formula = CnfFormula(num_vars=2, clauses=((-1, 2), (-1, -2)))
        engine = SatEngine(formula)
        assert engine.implied_literals((1,)) is None
        assert engine.implied_literals((2, -2)) is None
        assert engine.solve().status is Status.SAT
        assert engine.solve((1,)).status is Status.UNSAT
        assert engine.num_solve_calls == 2

    def test_sound_against_truth_table(self):
        # Every variable in the masks is set that way in every model of the
        # formula under the assumptions; None comes back only when there is
        # no such model. Afterwards the engine answers as a fresh one does.
        rng = random.Random(1313)
        implied_seen = none_seen = 0
        for _ in range(300):
            num_vars = rng.randint(1, 12)
            formula = random_cnf(rng, num_vars, rng.uniform(1.0, 4.5), width=rng.choice((2, 3)))
            engine = SatEngine(formula)
            for _ in range(3):
                picked = rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))
                assumptions = tuple(v if rng.random() < 0.5 else -v for v in picked)
                rows = conditioned(formula, assumptions)
                implied = engine.implied_literals(assumptions)
                if implied is None:
                    none_seen += 1
                    assert rows == 0
                    continue
                implied_seen += 1
                true_mask, false_mask = implied
                assert true_mask & false_mask == 0
                assert (true_mask | false_mask) >> (num_vars + 1) == 0
                assert (true_mask | false_mask) & 1 == 0
                assert implied_hold(rows, num_vars, implied)
            probe_vars = rng.sample(range(1, num_vars + 1), min(2, num_vars))
            probe = tuple(v if rng.random() < 0.5 else -v for v in probe_vars)
            for assumptions in ((), probe):
                outcome = engine.solve(assumptions)
                assert outcome.status is SatEngine(formula).solve(assumptions).status
                if outcome.status is Status.SAT:
                    assert satisfies(outcome.model, formula)
        assert implied_seen > 100 and none_seen > 20

    def test_models_agree_with_masks(self):
        # Both calls share the assumption protocol, on one engine: every
        # model solve(A) returns sets each variable as implied_literals(A)
        # reports it, and None comes back only when solve(A) is UNSAT.
        rng = random.Random(4242)
        sat_seen = none_seen = 0
        for _ in range(200):
            num_vars = rng.randint(2, 14)
            formula = random_cnf(rng, num_vars, rng.uniform(1.0, 4.5), width=rng.choice((2, 3)))
            engine = SatEngine(formula)
            for _ in range(4):
                picked = rng.choices(range(1, num_vars + 1), k=rng.randint(1, 4))
                assumptions = tuple(v if rng.random() < 0.5 else -v for v in picked)
                implied = engine.implied_literals(assumptions)
                outcome = engine.solve(assumptions)
                if implied is None:
                    none_seen += 1
                    assert outcome.status is Status.UNSAT
                elif outcome.status is Status.SAT:
                    sat_seen += 1
                    true_mask, false_mask = implied
                    assert outcome.model & true_mask == true_mask
                    assert outcome.model & false_mask == 0
        assert sat_seen > 100 and none_seen > 50

    def test_repeated_root_true_and_contradictory_assumptions(self):
        # 3 is fixed true at the root, and 1 propagates 2 and 4, so several
        # assumptions below meet a literal that is already true or false.
        formula = CnfFormula(num_vars=4, clauses=((3,), (-1, 2), (-2, 4)))
        engine = SatEngine(formula)
        assert engine.implied_literals((1, 1)) == (bits(1, 2, 4), 0)
        assert engine.implied_literals((3,)) == (0, 0)
        assert engine.implied_literals((3, 1, 3)) == (bits(1, 2, 4), 0)
        assert engine.implied_literals((1, 2)) == (bits(1, 2, 4), 0)
        assert engine.implied_literals((2, -2)) is None
        assert engine.implied_literals((-3,)) is None
        literals = [lit for v in range(1, 5) for lit in (v, -v)]
        for size in (1, 2, 3):
            for assumptions in itertools.product(literals, repeat=size):
                rows = conditioned(formula, assumptions)
                outcome = engine.solve(assumptions)
                assert (outcome.status is Status.SAT) == (rows != 0), assumptions
                if rows:
                    assert satisfies(outcome.model, formula)
                    assert all((outcome.model >> abs(a) & 1) == (a > 0) for a in assumptions)
                implied = engine.implied_literals(assumptions)
                if implied is None:
                    assert rows == 0, assumptions
                else:
                    assert implied_hold(rows, 4, implied), assumptions
                    assert (implied[0] | implied[1]) & bits(3) == 0
                    for a in assumptions:
                        if abs(a) != 3:
                            assert implied[a < 0] >> abs(a) & 1, assumptions


class TestRarelyReachedPaths:
    """Luby restarts and the activity rescale, which the other tests and
    the benchmark workloads never reach, forced by lowering their thresholds."""

    @staticmethod
    def solve_random(seed):
        # Near the 3-SAT threshold, with assumptions, against the truth table.
        rng = random.Random(seed)
        engines = []
        for _ in range(240):
            num_vars = rng.randint(8, 14)
            formula = random_cnf(rng, num_vars, rng.uniform(3.5, 5.0))
            engine = SatEngine(formula)
            engines.append(engine)
            for _ in range(5):
                picked = rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
                assumptions = tuple(v if rng.random() < 0.5 else -v for v in picked)
                rows = conditioned(formula, assumptions)
                outcome = engine.solve(assumptions)
                assert (outcome.status is Status.SAT) == (rows != 0), assumptions
                if rows:
                    assert satisfies(outcome.model, formula)
                    assert all((outcome.model >> abs(a) & 1) == (a > 0) for a in assumptions)
                    # The decision heap ran empty only once every variable was set.
                    assert sat._UNASSIGNED not in engine._values[1:]
        return engines

    def test_restarts(self, monkeypatch):
        luby_terms, real_luby = [], sat._luby

        def luby(i):
            luby_terms.append(i)
            return real_luby(i)

        monkeypatch.setattr(sat, "_RESTART_BASE", 1)
        monkeypatch.setattr(sat, "_luby", luby)
        self.solve_random(606)
        # Each solve asks for term 1 once; every later term is one restart.
        assert sum(i > 1 for i in luby_terms) > 400

    def test_activity_rescale(self, monkeypatch):
        monkeypatch.setattr(sat, "_ACTIVITY_LIMIT", 4.0)
        engines = self.solve_random(707)
        # The increment only grows, except when a rescale shrinks it.
        assert sum(engine._activity_inc < 1.0 for engine in engines) > 80


class TestEnumerateModels:
    def test_models_distinct_and_complete(self):
        rng = random.Random(5)
        for _ in range(100):
            formula = random_cnf(rng, rng.randint(1, 10), rng.uniform(0.8, 3.0))
            models = list(enumerate_models(formula))
            assert len(set(models)) == len(models)
            assert len(models) == tt_model_count(formula)
            assert sorted(models) == sorted(tt_model_masks(formula))

    def test_zero_var_formula_has_one_empty_model(self):
        models = list(enumerate_models(CnfFormula(num_vars=0, clauses=())))
        assert models == [0]

    def test_unsat_yields_nothing(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        assert list(enumerate_models(formula)) == []

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
