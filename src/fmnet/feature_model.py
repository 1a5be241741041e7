"""A small line-oriented feature-model dialect and its CNF encoding.

The dialect describes a feature tree plus cross-tree constraints::

    # comment
    feature Root
        mandatory Child
        optional Extra
            optional Nested
        alternative { OneOf TwoOf }
        or { Any Some }
        constraint OneOf => !Extra

``feature`` opens the single root. Nesting is by indentation: a line
indented deeper than the previous feature line becomes its child. Group
lines declare their members inline; members are leaf features. A
``constraint`` line holds a boolean expression over feature names built
from ``!``, ``&``, ``|``, ``=>`` and parentheses, and may appear at any
indentation; constraints are global either way. A constraint nests at most
``MAX_CONSTRAINT_DEPTH`` levels deep, counting parentheses and operators.

Encoding: one variable per feature, numbered by preorder traversal of the
tree. Clauses are the usual tree semantics (root always selected, child
implies parent, mandatory parent implies child, or-group parent implies
some member, alternative-group additionally at most one member) followed by
the cross-tree constraints converted to clauses. Constraints are limited to
shapes that convert without auxiliary variables: implications expand,
negations push inward, conjunctions split, and a disjunction may combine
multi-clause operands on at most one side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Container, Iterator, Union

from .cnf import CnfFormula
from .errors import ConstraintError, DialectError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(=>|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")

# Bounds the open parentheses, '!' and '=>' while a constraint is parsed, and
# the height of every constraint tree, which _expr_clauses descends by recursion.
MAX_CONSTRAINT_DEPTH = 100
_TOO_DEEP = f"constraint nests deeper than {MAX_CONSTRAINT_DEPTH} levels"


# ---- constraint expressions ----

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Implies:
    left: "Expr"
    right: "Expr"


Expr = Union[Var, Not, And, Or, Implies]


_OPERATORS = {"&": (And, 3), "|": (Or, 2), "=>": (Implies, 1)}  # class, precedence


def _parse_expr(text: str, line: int) -> Expr:
    """Operator precedence ! > & > | > => (=> right-associative), in one loop.

    The whole text is tokenized first, so a bad character outranks any
    syntax error. ``pending`` holds the operators not yet applied and the
    open parentheses; its '(', '!' and '=>' entries are the nesting depth.
    """
    tokens: list[str | None] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:  # the text is stripped, so a non-blank character is left
            raise DialectError(f"bad character {text[pos:].strip()[0]!r} in constraint", line)
        tokens.append(match.group(1))
        pos = match.end()
    operands: list[Expr] = []
    pending: list[str] = []

    def apply() -> None:
        op = pending.pop()
        right = operands.pop()
        operands.append(Not(right) if op == "!" else _OPERATORS[op][0](operands.pop(), right))

    want_operand = True
    for token in tokens + [None]:  # None ends the constraint
        if want_operand and token in ("!", "("):
            pending.append(token)
        elif not want_operand and token in _OPERATORS:
            rank = _OPERATORS[token][1]
            # '&' and '|' associate left; a pending '=>' waits for its right side
            while pending and pending[-1] in ("&", "|") and _OPERATORS[pending[-1]][1] >= rank:
                apply()
            pending.append(token)
            want_operand = True
        else:
            if want_operand:  # an operand is due
                if token is None:
                    raise DialectError("constraint ends unexpectedly", line)
                if not _NAME_RE.fullmatch(token):
                    raise DialectError(f"unexpected token {token!r} in constraint", line)
                operands.append(Var(token))
            elif "(" not in pending:
                if token is not None:
                    raise DialectError(f"unexpected token {token!r} in constraint", line)
            elif token is None:
                raise DialectError("constraint ends unexpectedly", line)
            elif token != ")":
                raise DialectError("missing closing parenthesis in constraint", line)
            else:
                while pending[-1] != "(":
                    apply()
                pending.pop()
            want_operand = False
            while pending and pending[-1] == "!":  # the operand just completed is theirs
                apply()
            continue
        if len(pending) - pending.count("&") - pending.count("|") > MAX_CONSTRAINT_DEPTH:
            raise DialectError(_TOO_DEEP, line)
    while pending:
        apply()
    return operands[0]


def _walk(expr: Expr) -> Iterator[tuple[Expr, int]]:
    """Every node, left to right, with the operators above it; no recursion."""
    stack = [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, Not):
            stack.append((node.operand, depth + 1))
        elif not isinstance(node, Var):
            stack += [(node.right, depth + 1), (node.left, depth + 1)]


# ---- the model ----

@dataclass
class Group:
    kind: str  # "alternative" or "or"
    members: list["Feature"]


@dataclass
class Feature:
    name: str
    mandatory: bool = False
    children: list["Feature"] = field(default_factory=list)
    groups: list[Group] = field(default_factory=list)


@dataclass
class Constraint:
    expression: Expr
    text: str
    line: int


@dataclass
class FeatureModel:
    root: Feature
    constraints: list[Constraint]

    def preorder(self) -> Iterator[Feature]:
        """Depth-first feature order: each feature, then its direct children
        in declaration order, then its group members in declaration order."""
        stack = [self.root]
        while stack:
            feature = stack.pop()
            yield feature
            rear: list[Feature] = []
            for group in feature.groups:
                rear.extend(group.members)
            stack.extend(reversed(feature.children + rear))


def _check_constraint(constraint: Constraint, declared: Container[str]) -> None:
    """The rules every constraint obeys, parsed or built in code: its tree
    nests at most MAX_CONSTRAINT_DEPTH operators deep and it names only
    declared features."""
    for node, depth in _walk(constraint.expression):
        if depth > MAX_CONSTRAINT_DEPTH:
            raise DialectError(_TOO_DEEP, constraint.line)
        if isinstance(node, Var) and node.name not in declared:
            raise DialectError(
                f"constraint references undeclared feature {node.name!r}", constraint.line
            )


def parse_fm(text: str) -> FeatureModel:
    """Parse dialect text into a FeatureModel.

    Errors carry the line number: unknown keyword, bad indentation, duplicate
    feature name, group with fewer than two members, constraint referencing
    an undeclared feature.
    """
    root: Feature | None = None
    # Stack of (indent, feature) from root to the innermost open feature.
    stack: list[tuple[int, Feature]] = []
    seen: dict[str, int] = {}
    raw_constraints: list[Constraint] = []

    def declare(name: str, line_no: int) -> None:
        if not _NAME_RE.fullmatch(name):
            raise DialectError(f"invalid feature name {name!r}", line_no)
        if name in seen:
            raise DialectError(
                f"feature {name!r} already declared on line {seen[name]}", line_no
            )
        seen[name] = line_no

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "\t" in line[: len(line) - len(line.lstrip())]:
            raise DialectError("indentation must use spaces, not tabs", line_no)
        indent = len(line) - len(line.lstrip())
        body = line.strip()
        keyword, _, rest = body.partition(" ")
        rest = rest.strip()

        if keyword == "feature":
            if root is not None:
                raise DialectError("only one root feature is allowed", line_no)
            if indent != 0:
                raise DialectError("root feature must start at column 0", line_no)
            declare(rest, line_no)
            root = Feature(rest, mandatory=True)
            stack = [(indent, root)]
            continue
        if root is None:
            raise DialectError("expected a root 'feature' declaration first", line_no)

        if keyword == "constraint":
            if not rest:
                raise DialectError("constraint line has no expression", line_no)
            expression = _parse_expr(rest, line_no)
            raw_constraints.append(Constraint(expression, rest, line_no))
            continue

        # Tree lines must be indented under some open feature.
        while stack and indent <= stack[-1][0]:
            stack.pop()
        if not stack:
            raise DialectError("line is not indented under any feature", line_no)
        parent = stack[-1][1]

        if keyword in ("mandatory", "optional"):
            declare(rest, line_no)
            child = Feature(rest, mandatory=(keyword == "mandatory"))
            parent.children.append(child)
            stack.append((indent, child))
        elif keyword in ("alternative", "or"):
            match = re.fullmatch(r"\{\s*(.*?)\s*\}", rest)
            if not match:
                raise DialectError(f"{keyword} group must list members in braces", line_no)
            member_names = match.group(1).split()
            if len(member_names) < 2:
                raise DialectError(
                    f"{keyword} group needs at least two members", line_no
                )
            members = []
            for name in member_names:
                declare(name, line_no)
                members.append(Feature(name))
            parent.groups.append(Group(keyword, members))
        else:
            raise DialectError(f"unknown keyword {keyword!r}", line_no)

    if root is None:
        raise DialectError("input declares no features")

    for constraint in raw_constraints:
        _check_constraint(constraint, seen)
    return FeatureModel(root, raw_constraints)


# ---- CNF encoding ----

def _expr_clauses(expr: Expr, index: dict[str, int], negate: bool,
                  constraint: Constraint) -> list[list[int]]:
    """Clauses of ``expr`` (or of its negation), no auxiliary variables.

    Disjunction distributes only when at most one operand produced several
    clauses; two multi-clause operands would need quadratic distribution or
    fresh variables, and the dialect rejects that shape.
    """
    if isinstance(expr, Var):
        lit = index[expr.name]
        return [[-lit if negate else lit]]
    if isinstance(expr, Not):
        return _expr_clauses(expr.operand, index, not negate, constraint)
    if isinstance(expr, Implies):
        rewritten = Or(Not(expr.left), expr.right)
        return _expr_clauses(rewritten, index, negate, constraint)
    if isinstance(expr, And) != negate:  # conjunction: plain And, or negated Or
        return (_expr_clauses(expr.left, index, negate, constraint)
                + _expr_clauses(expr.right, index, negate, constraint))
    left = _expr_clauses(expr.left, index, negate, constraint)
    right = _expr_clauses(expr.right, index, negate, constraint)
    if len(left) > 1 and len(right) > 1:
        raise ConstraintError(
            f"constraint {constraint.text!r} (line {constraint.line}) is not "
            "convertible to clauses without auxiliary variables"
        )
    return [lc + rc for lc in left for rc in right]


def fm_to_cnf(model: FeatureModel) -> CnfFormula:
    """Encode the feature tree and constraints as CNF.

    Variables are numbered by preorder traversal; the names map records each
    feature's name. Clause order is deterministic: root unit, per-feature
    tree clauses in preorder, then constraints in declaration order. A feature
    name the dialect does not allow or that repeats, or a constraint
    _check_constraint rejects, is a DialectError.
    """
    features = list(model.preorder())
    index: dict[str, int] = {}
    for number, feature in enumerate(features, start=1):
        if not _NAME_RE.fullmatch(feature.name):
            raise DialectError(f"invalid feature name {feature.name!r}")
        if index.setdefault(feature.name, number) != number:
            raise DialectError(f"feature {feature.name!r} declared twice")
    clauses = [[index[model.root.name]]]
    for feature in features:
        parent = index[feature.name]
        for child in feature.children:
            clauses.append([-index[child.name], parent])
            if child.mandatory:
                clauses.append([-parent, index[child.name]])
        for group in feature.groups:
            members = [index[m.name] for m in group.members]
            for member in members:
                clauses.append([-member, parent])
            clauses.append([-parent] + members)
            if group.kind == "alternative":
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        clauses.append([-a, -b])
    for constraint in model.constraints:
        _check_constraint(constraint, index)
        clauses += _expr_clauses(constraint.expression, index, False, constraint)

    return CnfFormula(
        num_vars=len(features),
        clauses=clauses,
        names={index[f.name]: f.name for f in features},
    )


def parse_fm_to_cnf(text: str) -> CnfFormula:
    """Convenience: dialect text straight to its CNF encoding."""
    return fm_to_cnf(parse_fm(text))
