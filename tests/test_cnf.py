import random

import pytest

from conftest import clauses_truth_table, random_cnf, truth_table_mask
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

    @pytest.mark.parametrize("given, normal", [
        (((1, 1),), ((1,),)),
        (((1, -1, 2), (2,)), ((2,),)),
        (((-2, 1, -2, 1), (), ()), ((-2, 1), (), ())),
        ([[2, 1, 2], (1, -2, -1), [], [2]], ((2, 1), (), (2,))),
    ], ids=["repeated-literal", "tautology", "both-and-empty-clauses", "lists"])
    def test_formulas_differing_only_in_normal_form_are_equal(self, given, normal):
        formula = CnfFormula(num_vars=2, clauses=given)
        assert formula.clauses == normal
        assert formula == CnfFormula(num_vars=2, clauses=normal)

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CnfFormula(num_vars=-1, clauses=())

    def test_name_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="name index"):
            CnfFormula(num_vars=1, clauses=(), names={2: "X"})

    def test_names_must_be_injective(self):
        with pytest.raises(ValueError, match="used for variables"):
            CnfFormula(num_vars=2, clauses=(), names={1: "X", 2: "X"})

    @pytest.mark.parametrize("name", ["", "a b", "x\ty", " A", "A\n", "A\u00a0B", "A\x1cB"])
    def test_name_must_be_one_token(self, name):
        with pytest.raises(ValueError, match="is not one token"):
            CnfFormula(num_vars=2, clauses=((1,),), names={1: "A", 2: name})

    @pytest.mark.parametrize("name", [
        'A"B', "A<B&C", "c", "p", "0", "-1", "é", "a b", "x\ty", "", "A\n", "A\u2028B",
    ])
    def test_every_accepted_name_survives_dimacs(self, name):
        try:
            formula = CnfFormula(num_vars=2, clauses=((1,),), names={1: "A", 2: name})
        except ValueError:
            return
        assert parse_dimacs(emit_dimacs(formula)) == formula

    @pytest.mark.parametrize("name", [
        "a\x00b", "A\x01", "\x08", "A\x1bB", "A\ud800", "\udfffB", "A\ufffe", "A\uffffB",
    ])
    def test_name_must_hold_only_xml_characters(self, name):
        with pytest.raises(ValueError, match="holds a character outside XML"):
            CnfFormula(num_vars=2, clauses=((1,),), names={1: "A", 2: name})

    def test_name_must_not_be_an_unnamed_variables_fallback(self):
        # DOT, GraphML and nodes.csv would show variables 1 and 2 as one v2.
        with pytest.raises(ValueError, match="'v2' of variable 1 is the fallback name of unnamed variable 2"):
            CnfFormula(num_vars=2, clauses=((-1, -2),), names={1: "v2"})

    @pytest.mark.parametrize("names", [{1: "v2", 2: "v1"}, {1: "v1"}, {1: "v02"}, {1: "v3"}])
    def test_fallback_shaped_name_that_names_no_one_else(self, names):
        formula = CnfFormula(num_vars=2, clauses=(), names=names)
        assert len({formula.name_of(v) for v in formula.variables()}) == 2

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

    def test_empty_clause_kept_in_place(self):
        formula = parse_dimacs("p cnf 2 3\n1 0\n0\n1 2 0\n")
        assert formula.clauses == ((1,), (), (1, 2))

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

    @pytest.mark.parametrize("line", ["p cnf 1_2 1", "p cnf +2 1", "p cnf 2 \u0661"])
    def test_problem_line_counts_are_ascii_integers(self, line):
        with pytest.raises(DimacsError, match="line 1: malformed problem line"):
            parse_dimacs(f"{line}\n1 0\n")

    def test_negative_counts_in_problem_line(self):
        with pytest.raises(DimacsError, match="line 1: negative counts"):
            parse_dimacs("p cnf -1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2: literal 4 exceeds"):
            parse_dimacs("p cnf 3 1\n1 4 0\n")

    def test_invalid_literal_token(self):
        with pytest.raises(DimacsError, match="invalid literal token"):
            parse_dimacs("p cnf 1 1\n1 x 0\n")

    @pytest.mark.parametrize("token", [
        "1_0", "+1", "\u0661", pytest.param("1" * 5000, id="5000-digits"),
    ])
    def test_literal_is_an_ascii_integer(self, token):
        with pytest.raises(DimacsError, match="line 2: invalid literal token"):
            parse_dimacs(f"p cnf 12 1\n{token} 0\n")

    @pytest.mark.parametrize("index", [
        "\u00b2", "\u0663", "+1", "1_0", pytest.param("1" * 5000, id="5000-digits"),
    ])
    def test_comment_without_an_ascii_index_is_plain(self, index):
        formula = parse_dimacs(f"c {index} x\np cnf 10 1\n1 0\n")
        assert formula.names == {}

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

    @pytest.mark.parametrize("text, message", [
        ("c 1 A\nc 2 A\np cnf 2 1\n1 0\n", "line 2: name 'A' used for variables 1 and 2"),
        ("p cnf 3 1\nc 3 X\n1 0\nc 1 X\n", "line 4: name 'X' used for variables 3 and 1"),
    ], ids=["before-problem-line", "after-clauses"])
    def test_repeated_name_carries_its_line(self, text, message):
        with pytest.raises(DimacsError, match=f"^{message}$"):
            parse_dimacs(text)

    @pytest.mark.parametrize("text, message", [
        ("c 1 v2\np cnf 2 1\n-1 -2 0\n",
         "line 1: name 'v2' of variable 1 is the fallback name of unnamed variable 2"),
        ("p cnf 3 1\nc 2 B\nc 3 v1\n1 0\n",
         "line 3: name 'v1' of variable 3 is the fallback name of unnamed variable 1"),
    ], ids=["before-problem-line", "after-problem-line"])
    def test_fallback_name_carries_its_line(self, text, message):
        with pytest.raises(DimacsError, match=f"^{message}$"):
            parse_dimacs(text)

    @pytest.mark.parametrize(
        "names", ["c 1 v2\nc 2 v1", "c 1 v1", "c 1 v02", "c 1 v3", "c 1 v-2"],
        ids=["swapped", "own", "leading-zero", "out-of-range", "negative"],
    )
    def test_fallback_shaped_name_comment_that_names_no_one_else(self, names):
        formula = parse_dimacs(f"{names}\np cnf 2 1\n1 0\n")
        assert len({formula.name_of(v) for v in formula.variables()}) == 2

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x1b", "\ud800", "\ufffe", "\uffff"])
    def test_name_outside_xml_carries_its_line(self, char):
        name = f"x{char}y"
        with pytest.raises(DimacsError) as error:
            parse_dimacs(f"p cnf 2 1\nc 1 {name}\n1 2 0\n")
        assert str(error.value) == (
            f"line 2: name {name!r} of variable 1 holds a character outside XML"
        )

    def test_names_of_xml_characters_are_accepted(self):
        formula = parse_dimacs('c 1 café\nc 2 A<B&C\nc 3 A"B\np cnf 3 1\n1 0\n')
        assert formula.names == {1: "café", 2: "A<B&C", 3: 'A"B'}

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

    def test_empty_clause_is_a_bare_zero_in_its_place(self):
        text = "p cnf 2 3\n1 -2 0\n0\n2 0\n"
        formula = parse_dimacs(text)
        assert emit_dimacs(formula) == text
        assert parse_dimacs(emit_dimacs(formula)) == formula

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

    def test_roundtrip_of_hand_built_clauses(self):
        # Repeated literals, tautologies and empty clauses, as given: the
        # formula keeps their truth table and survives DIMACS unchanged.
        rng = random.Random(27)
        for _ in range(300):
            num_vars = rng.randint(1, 8)
            given = []
            for _ in range(rng.randint(0, 6)):
                width = rng.choice((0, 1, 2, 3, 4, 5))
                given.append([rng.choice((1, -1)) * rng.randint(1, num_vars)
                              for _ in range(width)])
            formula = CnfFormula(num_vars=num_vars, clauses=given)
            assert parse_dimacs(emit_dimacs(formula)) == formula
            assert truth_table_mask(formula) == clauses_truth_table(num_vars, given)
