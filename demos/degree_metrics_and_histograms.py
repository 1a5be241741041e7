"""Degree metrics and distribution histograms on a synthetic hub model.

Builds a model where one feature excludes many others and a few chains of
requirements share a common target, then shows how the per-node
percentages, the high-degree flags and the binned degree distribution
expose the hubs at a glance.
"""

from fmnet.feature_model import parse_fm_to_cnf
from fmnet.metrics import compute_model_metrics, compute_node_metrics, degree_distribution
from fmnet.strong_graphs import compute_strong_graphs

MODEL = """\
feature HUB_DEMO
    optional MINIMAL
    optional DRIVER_A
    optional DRIVER_B
    optional DRIVER_C
    optional BACKEND
    optional TOOL_A
    optional TOOL_B
    optional TOOL_C
    constraint MINIMAL => !DRIVER_A
    constraint MINIMAL => !DRIVER_B
    constraint MINIMAL => !DRIVER_C
    constraint MINIMAL => !BACKEND
    constraint TOOL_A => BACKEND
    constraint TOOL_B => BACKEND
    constraint TOOL_C => BACKEND
"""


def bar(share: float, width: int = 40) -> str:
    return "#" * round(share * width)


def main() -> None:
    formula = parse_fm_to_cnf(MODEL)
    graphs = compute_strong_graphs(formula)
    metrics = compute_model_metrics(graphs, threshold_pct=25.0)

    print(f"{metrics.num_configurable} configurable features, "
          f"{metrics.num_arcs} arcs, {metrics.num_conflict_edges} conflict edges")
    print(f"require density {metrics.require_density:.3f}, "
          f"exclude density {metrics.exclude_density:.3f}\n")

    nodes = compute_node_metrics(graphs, threshold_pct=25.0)
    print("node percentages (of possible partners), threshold 25%:")
    for node in nodes:
        flags = "".join((
            "R" if node.high_in else "-",      # heavily required
            "D" if node.high_out else "-",     # heavily depending
            "X" if node.high_conflict else "-",  # heavily conflicting
        ))
        print(f"  {node.name:10s} [{flags}] in={node.in_pct:5.1f}% "
              f"out={node.out_pct:5.1f}% conflict={node.conflict_pct:5.1f}%")

    hub_share = metrics.overlap_in_conflict_pct
    print(f"\nhigh-in nodes that also conflict a lot: {hub_share:.0f}%"
          if hub_share is not None else "\nno high-in nodes, overlap undefined")

    for axis in ("in", "out", "conflict"):
        print(f"\n{axis}-degree distribution (share of nodes per bin):")
        for hbin in degree_distribution(nodes, axis, bin_width_pct=25.0):
            label = f"{hbin.low:5.1f}..{hbin.high:5.1f}%"
            print(f"  {label} {bar(hbin.share)} {hbin.share:.2f}")


if __name__ == "__main__":
    main()
