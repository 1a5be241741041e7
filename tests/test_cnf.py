import random

import pytest

from conftest import random_cnf
from fmnet.cnf import CnfFormula, emit_dimacs, normalize_clause, parse_dimacs
from fmnet.errors import DimacsError, InputSyntaxError


class TestNormalizeClause:
    def test_keeps_first_occurrence_order(self):
        assert normalize_clause([3, -1, 3, 2, -1]) == (3, -1, 2)

    def test_tautology_is_none(self):
        assert normalize_clause([1, -2, -1]) is None

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError, match="invalid literal"):
            normalize_clause([1, 0, 2])

    def test_non_int_rejected(self):
        with pytest.raises(ValueError, match="invalid literal"):
            normalize_clause([1, "2"])

    def test_empty_input_gives_empty_clause(self):
        assert normalize_clause([]) == ()


class TestCnfFormula:
    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CnfFormula(num_vars=2, clauses=((1, -3),))

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError, match="empty clause"):
            CnfFormula(num_vars=1, clauses=((),))

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CnfFormula(num_vars=-1, clauses=())

    def test_name_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="name index"):
            CnfFormula(num_vars=1, clauses=(), names={2: "X"})

    def test_names_must_be_injective(self):
        with pytest.raises(ValueError, match="used for variables"):
            CnfFormula(num_vars=2, clauses=(), names={1: "X", 2: "X"})

    def test_name_of_falls_back_to_index(self):
        formula = CnfFormula(num_vars=2, clauses=(), names={1: "A"})
        assert formula.name_of(1) == "A"
        assert formula.name_of(2) == "v2"

    def test_variables_range(self):
        assert list(CnfFormula(num_vars=3, clauses=()).variables()) == [1, 2, 3]


class TestParseDimacs:
    def test_basic(self):
        formula = parse_dimacs("c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
        assert formula.num_vars == 3
        assert formula.clauses == ((1, -2), (2, 3))
        assert not formula.trivially_unsat

    def test_clause_split_across_lines(self):
        formula = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n")
        assert formula.clauses == ((1, -2, 3),)

    def test_blank_line_between_clauses(self):
        formula = parse_dimacs("p cnf 2 2\n1 0\n\n-2 0\n")
        assert formula.clauses == ((1,), (-2,))

    def test_name_comments(self):
        formula = parse_dimacs("c 2 BETA\np cnf 2 1\nc 1 ALPHA\n1 2 0\n")
        assert formula.names == {1: "ALPHA", 2: "BETA"}

    def test_two_token_comment_without_index_is_plain(self):
        formula = parse_dimacs("c hello world\np cnf 1 1\n1 0\n")
        assert formula.names == {}

    def test_tautology_dropped_but_counted(self):
        formula = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        assert formula.clauses == ((2,),)

    def test_empty_clause_sets_flag(self):
        formula = parse_dimacs("p cnf 2 2\n0\n1 2 0\n")
        assert formula.trivially_unsat
        assert formula.clauses == ((1, 2),)

    def test_zero_vars_zero_clauses(self):
        formula = parse_dimacs("p cnf 0 0\n")
        assert formula.num_vars == 0
        assert formula.clauses == ()

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="missing problem line"):
            parse_dimacs("c nothing else\n")

    def test_clause_before_problem_line(self):
        with pytest.raises(DimacsError, match="line 1: clause data"):
            parse_dimacs("1 0\np cnf 1 1\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError, match="line 2: duplicate problem"):
            parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")

    def test_malformed_problem_line(self):
        with pytest.raises(DimacsError, match="malformed problem line"):
            parse_dimacs("p cnf one 1\n")

    def test_negative_counts_in_problem_line(self):
        with pytest.raises(DimacsError, match="line 1: negative counts"):
            parse_dimacs("p cnf -1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2: literal 4 exceeds"):
            parse_dimacs("p cnf 3 1\n1 4 0\n")

    def test_invalid_literal_token(self):
        with pytest.raises(DimacsError, match="invalid literal token"):
            parse_dimacs("p cnf 1 1\n1 x 0\n")

    def test_unterminated_final_clause(self):
        with pytest.raises(DimacsError, match="not 0-terminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares 3 clauses but 2"):
            parse_dimacs("p cnf 2 3\n1 0\n2 0\n")

    def test_name_comment_out_of_range(self):
        with pytest.raises(DimacsError, match="variable 9 out of range"):
            parse_dimacs("c 9 GHOST\np cnf 2 1\n1 0\n")

    def test_duplicate_name_comment(self):
        with pytest.raises(DimacsError, match="duplicate name comment"):
            parse_dimacs("c 1 A\nc 1 B\np cnf 1 1\n1 0\n")

    def test_dimacs_error_is_input_syntax_error(self):
        with pytest.raises(InputSyntaxError):
            parse_dimacs("")


class TestEmitDimacs:
    def test_layout(self):
        formula = CnfFormula(
            num_vars=3, clauses=((1, -2), (3,)), names={2: "B", 1: "A"}
        )
        assert emit_dimacs(formula) == (
            "p cnf 3 2\nc 1 A\nc 2 B\n1 -2 0\n3 0\n"
        )

    def test_trivially_unsat_regains_empty_clause(self):
        formula = CnfFormula(num_vars=1, clauses=((1,),), trivially_unsat=True)
        text = emit_dimacs(formula)
        assert text.endswith("0\n")
        assert "p cnf 1 2" in text
        again = parse_dimacs(text)
        assert again.trivially_unsat
        assert again.clauses == ((1,),)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            formula = random_cnf(rng, rng.randint(1, 12), rng.uniform(1.0, 4.0))
            named = CnfFormula(
                num_vars=formula.num_vars,
                clauses=formula.clauses,
                names={v: f"F{v}" for v in formula.variables() if rng.random() < 0.5},
            )
            again = parse_dimacs(emit_dimacs(named))
            assert again == named
