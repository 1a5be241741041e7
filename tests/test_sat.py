import itertools
import random

import pytest

from conftest import perfbench_gen, random_cnf, truth_table_mask, variable_column
import fmnet.sat as sat
import fmnet.strong_graphs as strong_graphs
from fmnet.cnf import CnfFormula
from fmnet.feature_model import parse_fm_to_cnf
from fmnet.sat import SatEngine, SatOutcome, Status


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

    def test_empty_clause(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), ()))
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

    def test_construction_skips_tautology_and_rejects_unknown_variable(self):
        engine = SatEngine(CnfFormula(num_vars=2, clauses=((1, 2, -1),)))
        assert engine._clauses == []
        assert engine.solve((-1, -2)).status is Status.SAT
        with pytest.raises(ValueError, match="literal -3 out of range"):
            SatEngine(CnfFormula(num_vars=2, clauses=((1, -3),)))

    def test_root_handling_of_each_clause(self):
        # The unit 1 is propagated before the next clause is read, so
        # (-1, 2, 3) loses its false literal and (1, 3) is skipped as
        # satisfied; (-2, -3) is stored as it is.
        engine = SatEngine(CnfFormula(num_vars=3, clauses=((1,), (-1, 2, 3), (1, 3), (-2, -3))))
        assert engine._clauses == [[4, 6], [5, 7]]
        assert engine._trail == [2]
        # A clause whose literals are all false at the root makes it UNSAT.
        engine = SatEngine(CnfFormula(num_vars=2, clauses=((1,), (2,), (-1, -2))))
        assert engine.solve().status is Status.UNSAT

    def test_unsat_is_sticky(self):
        engine = SatEngine(CnfFormula(num_vars=1, clauses=((1,), (-1,))))
        assert engine.solve().status is Status.UNSAT
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
        # 4 is fixed at the root, so every call reports it.
        formula = CnfFormula(num_vars=4, clauses=((-1, 2), (-2, 3), (4,)))
        engine = SatEngine(formula)
        assert engine.implied_literals(()) == (bits(4), 0)
        assert engine.implied_literals((1,)) == (bits(1, 2, 3, 4), 0)
        assert engine.implied_literals((3,)) == (bits(3, 4), 0)
        assert engine.implied_literals((4,)) == (bits(4), 0)
        assert engine.implied_literals((-3,)) == (bits(4), bits(1, 2, 3))

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
        assert engine.implied_literals((1, 1)) == (bits(1, 2, 3, 4), 0)
        assert engine.implied_literals((3,)) == (bits(3), 0)
        assert engine.implied_literals((3, 1, 3)) == (bits(1, 2, 3, 4), 0)
        assert engine.implied_literals((1, 2)) == (bits(1, 2, 3, 4), 0)
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
                    assert implied[0] & bits(3), assumptions
                    for a in assumptions:
                        assert implied[a < 0] >> abs(a) & 1, assumptions


def true_in(model, lit):
    return (model >> abs(lit) & 1) == (lit > 0)


def walked(clauses, model, fixed, lit):
    """One soft literal of ``solve`` walked naively, on copies: ``lit`` is
    made true and fixed, and each clause a change makes false, visited in
    the engine's order (last change first, clauses by index), gets its
    first free literal flipped and fixed. Returns the new model and fixed
    set, or None when a false clause has no free literal."""
    var = abs(lit)
    if var in fixed:
        return (model, fixed) if true_in(model, lit) else None
    fixed = fixed | {var}
    if true_in(model, lit):
        return model, fixed
    model ^= 1 << var
    made_false = [-lit]
    while made_false:
        false_lit = made_false.pop()
        for clause in clauses:
            if false_lit in clause and not any(true_in(model, l) for l in clause):
                free = [l for l in clause if abs(l) not in fixed]
                if not free:
                    return None
                model ^= 1 << abs(free[0])
                fixed = fixed | {abs(free[0])}
                made_false.append(-free[0])
    return model, fixed


class TestRepair:
    """``solve`` first walks the last model it returned to the assumptions;
    the search decides only when that walk fails. Soft literals take the
    same walk, one at a time, and are kept when it succeeds. They come as a
    pair of masks, and those of the true mask go first, each mask in
    ascending variable order."""

    def test_soft_literals_against_truth_table_and_a_naive_walk(self):
        # One engine per formula answers a run of queries with assumptions
        # and soft literals, which may contradict each other (a variable in
        # both masks) and the assumptions. The status is the truth table's
        # whatever the soft literals, and every model satisfies every clause
        # and assumption. After solve(A) has returned model M, solve(A, soft)
        # walks no assumption, so its model is the naive walk's from M over
        # the engine's stored clauses, in their current literal order, taking
        # the true mask's literals and then the false mask's, each ascending.
        rng = random.Random(1906)
        kept = dropped = unsat = 0
        for _ in range(150):
            num_vars = rng.randint(2, 12)
            formula = random_cnf(rng, num_vars, rng.uniform(1.0, 4.5), width=rng.choice((2, 3)))
            engine = SatEngine(formula)
            stored = len(engine._clauses)
            literals = [lit for v in range(1, num_vars + 1) for lit in (v, -v)]
            for _ in range(6):
                assumptions = tuple(rng.choices(literals, k=rng.randint(0, 3)))
                drawn = rng.choices(literals, k=rng.randint(0, 10))
                soft = (sum({1 << lit for lit in drawn if lit > 0}),
                        sum({1 << -lit for lit in drawn if lit < 0}))
                rows = conditioned(formula, assumptions)
                outcome = engine.solve(assumptions, soft)
                assert (outcome.status is Status.SAT) == (rows != 0), (assumptions, soft)
                if not rows:
                    unsat += 1
                    continue
                assert satisfies(outcome.model, formula)
                assert all(true_in(outcome.model, a) for a in assumptions)
                model = engine.solve(assumptions).model
                root_true, root_false = engine.implied_literals(())
                fixed = {v for v in range(1, num_vars + 1) if (root_true | root_false) >> v & 1}
                fixed |= {abs(a) for a in assumptions}
                clauses = [[c >> 1 if c & 1 == 0 else -(c >> 1) for c in clause]
                           for clause in engine._clauses[:stored]]
                in_order = [v for v in range(1, num_vars + 1) if soft[0] >> v & 1]
                in_order += [-v for v in range(1, num_vars + 1) if soft[1] >> v & 1]
                for lit in in_order:
                    step = walked(clauses, model, fixed, lit)
                    if step is None:
                        dropped += 1
                    else:
                        kept += 1
                        model, fixed = step
                assert engine.solve(assumptions, soft).model == model, (assumptions, soft)
        assert kept > 1000 and dropped > 300 and unsat > 100

    def test_soft_literal_out_of_range(self):
        # A negative mask, bit 0 (no variable) and a bit above num_vars are
        # refused in either mask, and the refused call leaves no trace.
        engine = SatEngine(CnfFormula(num_vars=2, clauses=((1, 2),)))
        for bad in (-2, 0b001, 0b1000):
            for soft in ((bad, 0), (0, bad)):
                with pytest.raises(ValueError, match=f"soft mask {bad} out of range 1..2"):
                    engine.solve((), soft)
        assert engine.num_solve_calls == 6
        assert engine.solve((), (0b110, 0)).model == 0b110
        assert engine.solve((), (0b100, 0b110)).model == 0b100

    def test_random_queries_against_truth_table(self, search_log):
        # One engine per formula answers a run of assumption queries: the
        # status is the truth table's, and every model satisfies every
        # clause and every assumption, whichever route found it. Only a
        # search says UNSAT, unless an earlier one left the root unsatisfiable.
        rng = random.Random(1505)
        repaired = searched = 0
        for _ in range(150):
            num_vars = rng.randint(2, 14)
            formula = random_cnf(rng, num_vars, rng.uniform(1.0, 4.5), width=rng.choice((2, 3)))
            engine = SatEngine(formula)
            for _ in range(8):
                picked = rng.choices(range(1, num_vars + 1), k=rng.randint(0, 4))
                assumptions = tuple(v if rng.random() < 0.5 else -v for v in picked)
                rows = conditioned(formula, assumptions)
                searches = len(search_log)
                outcome = engine.solve(assumptions)
                assert (outcome.status is Status.SAT) == (rows != 0), assumptions
                if rows:
                    assert outcome.model & 1 == 0
                    assert outcome.model >> (num_vars + 1) == 0
                    assert satisfies(outcome.model, formula)
                    assert all((outcome.model >> abs(a) & 1) == (a > 0) for a in assumptions)
                    assert search_log[searches:] in ([], [True])
                    repaired += len(search_log) == searches
                    searched += len(search_log) > searches
                else:
                    assert search_log[searches:] == [False] or not engine._ok
        assert repaired > 200 and searched > 100

    def test_all_fixed_false_clause_falls_back(self, search_log):
        # From the all-false model, assuming 1 and 4 makes (-1, 2, 3) false;
        # the repair flips 2, its first free literal, which makes (-2, -4)
        # false with both variables fixed. The search then finds 3 instead.
        formula = CnfFormula(num_vars=4, clauses=((-1, 2, 3), (-2, -4)))
        engine = SatEngine(formula)
        assert engine.solve((-1, -2, -3, -4)).model == 0
        assert search_log == [True]
        outcome = engine.solve((1, 4))
        assert search_log == [True, True]
        assert outcome.status is Status.SAT
        assert outcome.model == bits(1, 3, 4)
        # A false clause over assumptions alone falls back to an UNSAT search.
        assert engine.solve((2, 4)).status is Status.UNSAT
        assert search_log == [True, True, False]
        # The search's model is the next starting point.
        outcome = engine.solve((1,))
        assert search_log == [True, True, False]
        assert outcome.model == bits(1, 3, 4)

    def test_decision_heap_stays_bounded(self, monkeypatch, solve_log, search_log):
        # Each return to the root puts every freed variable on the lazy
        # decision heap, and only the search takes entries off it, so a
        # run of repaired answers must not let stale entries pile up.
        gen = perfbench_gen()
        formula = parse_fm_to_cnf(gen.kconfig_model(1000, 0.15, random.Random("heap:1000")))
        engines = []

        class Recorded(SatEngine):
            def __init__(self, formula):
                super().__init__(formula)
                engines.append(self)

        monkeypatch.setattr(strong_graphs, "SatEngine", Recorded)
        strong_graphs.extract_strong_relations(formula)
        (engine,) = engines
        # A search that finds a model stands behind one SAT answer; a walk, the rest.
        walked = sum(outcome.status is Status.SAT for *_, outcome in solve_log) - sum(search_log)
        assert walked > 100
        entries = len(engine._heap)
        assert entries <= 3 * (engine.num_vars + 1), entries


class TestRarelyReachedPaths:
    """Luby restarts and the activity rescale, which the other tests and
    the benchmark workloads never reach, forced by lowering their thresholds."""

    @staticmethod
    def solve_random(seed, search_log):
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
                searches = len(search_log)
                outcome = engine.solve(assumptions)
                assert (outcome.status is Status.SAT) == (rows != 0), assumptions
                if rows:
                    assert satisfies(outcome.model, formula)
                    assert all((outcome.model >> abs(a) & 1) == (a > 0) for a in assumptions)
                    if len(search_log) > searches:
                        # The search's decision heap ran empty only once
                        # every variable was set.
                        assert sat._UNASSIGNED not in engine._values[1:]
        return engines

    def test_restarts(self, monkeypatch, search_log):
        luby_terms, real_luby = [], sat._luby

        def luby(i):
            luby_terms.append(i)
            return real_luby(i)

        monkeypatch.setattr(sat, "_RESTART_BASE", 1)
        monkeypatch.setattr(sat, "_luby", luby)
        self.solve_random(606, search_log)
        # Each solve asks for term 1 once; every later term is one restart.
        assert sum(i > 1 for i in luby_terms) > 400

    def test_luby_sequence(self):
        def luby(i):  # t_i = 2^(k-1) if i = 2^k - 1, else t_(i - 2^(k-1) + 1)
            k = 1
            while (1 << k) - 1 < i:
                k += 1
            if i == (1 << k) - 1:
                return 1 << (k - 1)
            return luby(i - (1 << (k - 1)) + 1)

        terms = [sat._luby(i) for i in range(1, 64)]
        assert terms[:15] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert terms == [luby(i) for i in range(1, 64)]

    def test_activity_rescale(self, monkeypatch, search_log):
        monkeypatch.setattr(sat, "_ACTIVITY_LIMIT", 4.0)
        engines = self.solve_random(707, search_log)
        # The increment only grows, except when a rescale shrinks it.
        assert sum(engine._activity_inc < 1.0 for engine in engines) > 80

