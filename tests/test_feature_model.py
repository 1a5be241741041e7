import random

import pytest

from conftest import tt_model_count, tt_models, truth_table_mask
from fmnet.cnf import emit_dimacs, parse_dimacs
from fmnet.errors import ConstraintError, DialectError
from fmnet.feature_model import (
    MAX_CONSTRAINT_DEPTH,
    And,
    Constraint,
    Feature,
    FeatureModel,
    Implies,
    Not,
    Or,
    Var,
    fm_to_cnf,
    parse_fm,
    parse_fm_to_cnf,
)


def evaluate(expr, assignment):
    if isinstance(expr, Var):
        return assignment[expr.name]
    if isinstance(expr, Not):
        return not evaluate(expr.operand, assignment)
    if isinstance(expr, And):
        return evaluate(expr.left, assignment) and evaluate(expr.right, assignment)
    if isinstance(expr, Or):
        return evaluate(expr.left, assignment) or evaluate(expr.right, assignment)
    return (not evaluate(expr.left, assignment)) or evaluate(expr.right, assignment)


class TestExpressionParsing:
    def constraint_of(self, text):
        model = parse_fm(f"feature R\n    optional A\n    optional B\n"
                         f"    optional C\n    optional D\n    constraint {text}\n")
        return model.constraints[0].expression

    def test_precedence(self):
        # ! binds tightest, then &, then |, then =>.
        expr = self.constraint_of("!A & B | C => D")
        assert expr == Implies(Or(And(Not(Var("A")), Var("B")), Var("C")), Var("D"))

    def test_implication_right_associative(self):
        expr = self.constraint_of("A => B => C")
        assert expr == Implies(Var("A"), Implies(Var("B"), Var("C")))

    def test_conjunction_and_disjunction_left_associative(self):
        a, b, c = Var("A"), Var("B"), Var("C")
        assert self.constraint_of("A & B & C") == And(And(a, b), c)
        assert self.constraint_of("A | B | C") == Or(Or(a, b), c)

    def test_parentheses_override(self):
        expr = self.constraint_of("A & (B | C)")
        assert expr == And(Var("A"), Or(Var("B"), Var("C")))

    def test_double_negation(self):
        assert self.constraint_of("!!A") == Not(Not(Var("A")))

    def test_dangling_operator(self):
        with pytest.raises(DialectError, match="ends unexpectedly"):
            self.constraint_of("A &")

    def test_unclosed_paren_at_end(self):
        with pytest.raises(DialectError, match="ends unexpectedly"):
            self.constraint_of("(A | B")

    def test_missing_close_paren(self):
        with pytest.raises(DialectError, match="closing parenthesis"):
            self.constraint_of("(A B)")

    @pytest.mark.parametrize("text", ["A & )", "A | (=> B)", ") A"])
    def test_operator_where_an_operand_is_due(self, text):
        with pytest.raises(DialectError, match="unexpected token '(\\)|=>)' in constraint"):
            self.constraint_of(text)

    def test_trailing_token(self):
        with pytest.raises(DialectError, match="unexpected token"):
            self.constraint_of("A B")

    def test_bad_character(self):
        with pytest.raises(DialectError, match="bad character"):
            self.constraint_of("A + B")


def nested_constraint(shape, depth):
    """A constraint over A that nests ``depth`` levels in the given shape."""
    if shape == "parentheses":
        return "(" * depth + "A" + ")" * depth
    if shape == "negations":
        return "!" * depth + "A"
    operator = {"implications": " => ", "conjunctions": " & ", "disjunctions": " | "}[shape]
    return operator.join(["A"] * (depth + 1))


NESTING_SHAPES = ("parentheses", "negations", "implications", "conjunctions", "disjunctions")


class TestNestingLimit:
    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_constraint_at_the_limit_encodes(self, shape):
        text = nested_constraint(shape, MAX_CONSTRAINT_DEPTH)
        formula = parse_fm_to_cnf(f"feature R\n    optional A\n    constraint {text}\n")
        assert formula.num_vars == 2

    @pytest.mark.parametrize("depth", [MAX_CONSTRAINT_DEPTH + 1, 1000])
    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_deeper_constraint_is_a_dialect_error(self, shape, depth):
        text = nested_constraint(shape, depth)
        with pytest.raises(DialectError, match="line 3: constraint nests deeper than"):
            parse_fm(f"feature R\n    optional A\n    constraint {text}\n")

    @pytest.mark.parametrize("text", [
        "!" * (MAX_CONSTRAINT_DEPTH + 1) + "A &",
        "A => " * (MAX_CONSTRAINT_DEPTH + 1) + "A A",
        "(" * (MAX_CONSTRAINT_DEPTH + 1) + "A",
    ])
    def test_depth_error_comes_before_a_later_syntax_error(self, text):
        model = f"feature R\n    optional A\n    constraint {text}\n    constraint A &\n"
        with pytest.raises(DialectError, match="line 3: constraint nests deeper than"):
            parse_fm(model)

    @staticmethod
    def built_model(depth):
        """A model built in code, not parsed: an ``And`` chain over A."""
        expr = Var("A")
        for _ in range(depth):
            expr = And(expr, Var("A"))
        root = Feature("R", children=[Feature("A")])
        return FeatureModel(root, [Constraint(expr, "A & ... & A", 3)])

    def test_built_constraint_at_the_limit_encodes(self):
        formula = fm_to_cnf(self.built_model(MAX_CONSTRAINT_DEPTH))
        assert formula.num_vars == 2
        assert (2,) in formula.clauses

    @pytest.mark.parametrize("depth", [MAX_CONSTRAINT_DEPTH + 1, 3000])
    def test_deeper_built_constraint_is_a_dialect_error(self, depth):
        with pytest.raises(DialectError, match="line 3: constraint nests deeper than"):
            fm_to_cnf(self.built_model(depth))


class TestParseFm:
    def test_tree_shape(self):
        model = parse_fm(
            "feature R\n"
            "    optional A\n"
            "        mandatory B\n"
            "        or { C D }\n"
            "    optional E\n"
        )
        assert model.root.name == "R"
        assert [f.name for f in model.root.children] == ["A", "E"]
        a = model.root.children[0]
        assert [f.name for f in a.children] == ["B"]
        assert a.children[0].mandatory
        assert a.groups[0].kind == "or"
        assert [f.name for f in a.groups[0].members] == ["C", "D"]
        assert [f.name for f in model.preorder()] == ["R", "A", "B", "C", "D", "E"]

    def test_comments_and_blank_lines_ignored(self):
        model = parse_fm("# header\nfeature R\n\n    # note\n    optional A\n")
        assert [f.name for f in model.preorder()] == ["R", "A"]

    def test_duplicate_feature_name(self):
        with pytest.raises(DialectError, match="line 3: .*already declared"):
            parse_fm("feature R\n    optional A\n    optional A\n")

    def test_tab_indentation_rejected(self):
        with pytest.raises(DialectError, match="line 2: .*spaces, not tabs"):
            parse_fm("feature R\n\toptional A\n")

    def test_two_roots_rejected(self):
        with pytest.raises(DialectError, match="only one root"):
            parse_fm("feature R\nfeature S\n")

    def test_indented_root_rejected(self):
        with pytest.raises(DialectError, match="column 0"):
            parse_fm("    feature R\n")

    def test_child_before_root_rejected(self):
        with pytest.raises(DialectError, match="root 'feature'"):
            parse_fm("optional A\nfeature R\n")

    def test_group_needs_two_members(self):
        with pytest.raises(DialectError, match="at least two members"):
            parse_fm("feature R\n    alternative { A }\n")

    def test_group_needs_braces(self):
        with pytest.raises(DialectError, match="members in braces"):
            parse_fm("feature R\n    alternative A B\n")

    def test_unknown_keyword(self):
        with pytest.raises(DialectError, match="unknown keyword 'needs'"):
            parse_fm("feature R\n    needs A\n")

    def test_tree_line_at_column_zero_rejected(self):
        with pytest.raises(DialectError, match="line 2: line is not indented under any feature"):
            parse_fm("feature R\noptional A\n")

    def test_bare_constraint_line_rejected(self):
        with pytest.raises(DialectError, match="line 2: constraint line has no expression"):
            parse_fm("feature R\n    constraint\n")

    def test_undeclared_constraint_name(self):
        with pytest.raises(DialectError, match="undeclared feature 'GHOST'"):
            parse_fm("feature R\n    optional A\n    constraint A => GHOST\n")

    def test_empty_input(self):
        with pytest.raises(DialectError, match="declares no features"):
            parse_fm("# nothing\n")

    def test_invalid_feature_name(self):
        with pytest.raises(DialectError, match="invalid feature name"):
            parse_fm("feature 9lives\n")


class TestEncoding:
    def test_preorder_numbering(self):
        formula = parse_fm_to_cnf(
            "feature R\n"
            "    optional A\n"
            "        mandatory B\n"
            "        or { C D }\n"
            "    optional E\n"
        )
        assert formula.names == {1: "R", 2: "A", 3: "B", 4: "C", 5: "D", 6: "E"}
        assert formula.clauses[0] == (1,)  # the root is always selected

    def test_mandatory_child_tracks_parent(self):
        formula = parse_fm_to_cnf("feature R\n    mandatory A\n")
        models = tt_models(formula)
        assert all(m[1] and m[2] for m in models)

    def test_optional_child_requires_parent(self):
        formula = parse_fm_to_cnf(
            "feature R\n    optional A\n        optional B\n"
        )
        assert all(m[2] for m in tt_models(formula) if m[3])

    def test_alternative_group_is_exactly_one(self):
        formula = parse_fm_to_cnf("feature R\n    alternative { A B C }\n")
        counts = {sum(m[2:5]) for m in tt_models(formula)}
        assert counts == {1}

    def test_or_group_is_at_least_one(self):
        formula = parse_fm_to_cnf("feature R\n    or { A B C }\n")
        counts = {sum(m[2:5]) for m in tt_models(formula)}
        assert counts == {1, 2, 3}

    def test_group_under_optional_parent(self):
        formula = parse_fm_to_cnf(
            "feature R\n    optional A\n        alternative { B C }\n"
        )
        for m in tt_models(formula):
            if m[2]:
                assert m[3] + m[4] == 1
            else:
                assert not m[3] and not m[4]

    def test_constraint_filters_models(self):
        base = "feature R\n    optional A\n    optional B\n"
        unconstrained = parse_fm_to_cnf(base)
        constrained = parse_fm_to_cnf(base + "    constraint A => B\n")
        assert tt_model_count(unconstrained) == 4
        assert tt_model_count(constrained) == 3

    def test_built_model_with_undeclared_name(self):
        model = FeatureModel(Feature("R", mandatory=True), [Constraint(Var("X"), "X", 1)])
        with pytest.raises(DialectError) as raised:
            fm_to_cnf(model)
        assert str(raised.value) == "line 1: constraint references undeclared feature 'X'"

    def test_built_model_with_repeated_name(self):
        # Unchecked, the second A took variable 3 and left variable 2 unnamed.
        root = Feature("R", mandatory=True,
                       children=[Feature("A", mandatory=True), Feature("A")])
        with pytest.raises(DialectError, match="feature 'A' declared twice"):
            fm_to_cnf(FeatureModel(root, []))

    @pytest.mark.parametrize("name", ["a b", "x\ty", "", "1x", "A-B", "A\n", "é"])
    def test_built_model_with_invalid_name(self, name):
        # A DIMACS name comment carries only dialect names intact (no whitespace).
        for root in (Feature(name, mandatory=True, children=[Feature("C")]),
                     Feature("R", mandatory=True, children=[Feature(name)])):
            with pytest.raises(DialectError) as raised:
                fm_to_cnf(FeatureModel(root, []))
            assert str(raised.value) == f"invalid feature name {name!r}"

    def test_built_model_names_survive_dimacs(self):
        root = Feature("_r0", mandatory=True,
                       children=[Feature("Ab_9"), Feature("c", children=[Feature("p")])])
        formula = fm_to_cnf(FeatureModel(root, []))
        assert formula.names == {1: "_r0", 2: "Ab_9", 3: "c", 4: "p"}
        assert parse_dimacs(emit_dimacs(formula)) == formula

    def test_unsupported_constraint_shape(self):
        text = (
            "feature R\n    optional A\n    optional B\n"
            "    optional C\n    optional D\n"
            "    constraint (A & B) | (C & D)\n"
        )
        with pytest.raises(ConstraintError, match="not convertible"):
            parse_fm_to_cnf(text)

    def test_random_constraints_match_direct_evaluation(self):
        # Encoding oracle: the constrained model set must equal the
        # unconstrained set filtered by evaluating the expression directly.
        rng = random.Random(2024)
        names = ["A", "B", "C", "D"]
        base = "feature R\n" + "".join(f"    optional {n}\n" for n in names)

        def random_text(depth):
            if depth == 0 or rng.random() < 0.35:
                return rng.choice(names)
            op = rng.choice(["!", "&", "|", "=>"])
            if op == "!":
                return f"!({random_text(depth - 1)})"
            return f"({random_text(depth - 1)}) {op} ({random_text(depth - 1)})"

        checked = 0
        for _ in range(120):
            text = random_text(3)
            try:
                formula = parse_fm_to_cnf(base + f"    constraint {text}\n")
            except ConstraintError:
                continue
            model = parse_fm(base + f"    constraint {text}\n")
            expression = model.constraints[0].expression
            plain = parse_fm_to_cnf(base)
            kept = [
                m for m in tt_models(plain)
                if evaluate(expression, {n: m[i + 2] for i, n in enumerate(names)})
            ]
            assert sorted(tt_models(formula)) == sorted(kept)
            checked += 1
        assert checked > 60

    def test_fixture_encoding_frozen(self, coreboot_formula):
        assert coreboot_formula.num_vars == 15
        assert len(coreboot_formula.clauses) == 35
        assert coreboot_formula.names[1] == "GRAPHICS"
        assert coreboot_formula.names[15] == "VBE_LINEAR_FRAMEBUFFER"
        # Independent count of valid configurations via the truth table.
        assert tt_model_count(coreboot_formula) == 88
