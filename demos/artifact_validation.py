"""Catching corrupted graph artifacts with the independent checkers.

A graphs artifact can rot: a serialization bug, a truncated file, a stale
cache. This script computes a correct artifact for the bundled model,
verifies it two ways (assumption probes and full model enumeration), then
corrupts it in two different spots and shows each fault being pinpointed.
"""

import dataclasses

from fmnet.fixtures import coreboot_graphics_formula
from fmnet.oracle import oracle_strong_relations, validate_model
from fmnet.strong_graphs import compute_strong_graphs, extract_strong_relations


def report_of(formula, graphs) -> None:
    report = validate_model(formula, graphs, sample_size=formula.num_vars + 1)
    print(f"  checked: {report.checked_core} core claims, "
          f"{report.checked_nodes} nodes, {report.checked_arcs} arc slots, "
          f"{report.checked_edges} edge slots")
    if report.passed:
        print("  verdict: artifact consistent with the formula")
    for item in report.discrepancies:
        names = ", ".join(formula.name_of(v) for v in item.features)
        print(f"  verdict: {item.kind} discrepancy on ({names}): "
              f"artifact says \"{item.expected}\" but {item.actual}")


def main() -> None:
    formula = coreboot_graphics_formula()
    graphs = compute_strong_graphs(formula)

    print("clean artifact, probe-based validation:")
    report_of(formula, graphs)

    agrees = oracle_strong_relations(formula) == extract_strong_relations(formula)
    print(f"\nfull-enumeration oracle agrees with extraction: {agrees}")

    # fault 1: drop a dependency arc, as a truncated export would
    dropped = sorted(graphs.dep_arcs)[0]
    mutated = dataclasses.replace(
        graphs, dep_arcs=frozenset(graphs.dep_arcs - {dropped})
    )
    a, b = (formula.name_of(v) for v in dropped)
    print(f"\nartifact missing the arc {a} -> {b}:")
    report_of(formula, mutated)

    # fault 2: claim a configurable feature is core, relations scrubbed the
    # way a consistent-looking but wrong artifact would have them
    victim = min(graphs.nodes)
    mutated = dataclasses.replace(
        graphs,
        dep_arcs=frozenset(
            arc for arc in graphs.dep_arcs if victim not in arc
        ),
        conflict_edges=frozenset(
            edge for edge in graphs.conflict_edges if victim not in edge
        ),
        classification=dataclasses.replace(
            graphs.classification,
            core=frozenset(graphs.classification.core | {victim}),
            configurable=frozenset(graphs.classification.configurable - {victim}),
        ),
    )
    print(f"\nartifact claiming {formula.name_of(victim)} is core:")
    report_of(formula, mutated)


if __name__ == "__main__":
    main()
