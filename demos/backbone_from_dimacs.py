"""Backbone analysis on a hand-written DIMACS formula.

The backbone is the set of literals fixed in every satisfying assignment.
This script parses a small named CNF, enumerates all of its models to show
the backbone really is the intersection, then asks the extractor what
selecting one configurable feature forces on or off.
"""

from fmnet.cnf import parse_dimacs
from fmnet.oracle import enumerate_models
from fmnet.sat import SatEngine
from fmnet.strong_graphs import compute_backbone, extract_strong_relations

TEXT = """\
c 1 ROOT
c 2 BASE
c 3 EXTRA
c 4 SOLO
p cnf 4 4
1 0
-3 2 0
-4 -2 0
2 4 0
"""


def show(formula, literals) -> str:
    parts = []
    for lit in sorted(literals, key=abs):
        name = formula.name_of(abs(lit))
        parts.append(name if lit > 0 else f"!{name}")
    return "{" + ", ".join(parts) + "}"


def main() -> None:
    formula = parse_dimacs(TEXT)
    print(f"parsed {formula.num_vars} variables, {len(formula.clauses)} clauses")

    models = list(enumerate_models(formula))
    print(f"\nall {len(models)} satisfying assignments:")
    # each model is the bitmask of its selected variables, bit v for variable v
    for model in models:
        row = [formula.name_of(v) for v in formula.variables() if model >> v & 1]
        print(f"  {{{', '.join(row)}}}")

    backbone = compute_backbone(SatEngine(formula))
    print(f"\nbackbone: {show(formula, backbone.literals)}")
    print(f"found with {backbone.sat_calls} solver calls "
          f"(budget is variables + 1 = {formula.num_vars + 1})")

    # every backbone literal must hold in every model above
    for lit in backbone.literals:
        assert all((model >> abs(lit) & 1) == (lit > 0) for model in models)
    print("cross-checked against the enumeration: consistent")

    # what selecting EXTRA forces beyond the backbone
    classification, relations = extract_strong_relations(formula)
    print(f"\nconfigurable: {show(formula, classification.configurable)}")
    extra = relations[3]
    print(f"EXTRA depends_on: {show(formula, extra.depends_on)}")
    print(f"EXTRA conflicts_with: {show(formula, extra.conflicts_with)}")
    for model in models:
        if model >> 3 & 1:
            assert all(model >> g & 1 for g in extra.depends_on)
            assert not any(model >> g & 1 for g in extra.conflicts_with)
    print("every assignment selecting EXTRA agrees")


if __name__ == "__main__":
    main()
