"""Degree metrics over the strong graphs.

Per-node degrees are normalized against the other configurable nodes: with
Nc configurable features a node's in-percentage is 100 * in_degree / (Nc - 1),
so 100% means "every other configurable feature strongly depends on this
one". A node is a high-degree node on an axis when that percentage reaches
the threshold (default 10%). Whole-model densities divide relation counts by
the total variable count, so they compare models of different sizes; they
read as "relations per feature". The hub overlaps are the shares of high-in
nodes that are also high-out or high-conflict; each is None when no node
is high-in, which is not the same as a share of 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .strong_graphs import StrongGraphs

AXES = ("in", "out", "conflict")

DEFAULT_THRESHOLD_PCT = 10.0
DEFAULT_BIN_WIDTH_PCT = 10.0


@dataclass(frozen=True)
class NodeMetrics:
    feature: int
    name: str
    in_degree: int
    out_degree: int
    conflict_degree: int
    in_pct: float
    out_pct: float
    conflict_pct: float
    high_in: bool
    high_out: bool
    high_conflict: bool

    def degree(self, axis: str) -> int:
        return getattr(self, f"{axis}_degree")

    def pct(self, axis: str) -> float:
        return getattr(self, f"{axis}_pct")


@dataclass(frozen=True)
class ModelMetrics:
    model_id: str
    num_vars: int
    num_configurable: int
    num_core: int
    num_dead: int
    num_arcs: int
    num_conflict_edges: int
    core_pct: float
    dead_pct: float
    require_density: float
    exclude_density: float
    threshold_pct: float
    nodes: tuple[NodeMetrics, ...]
    overlap_in_out_pct: float | None
    overlap_in_conflict_pct: float | None


@dataclass(frozen=True)
class HistogramBin:
    low: float
    high: float
    share: float


def validate_threshold(threshold_pct: float) -> None:
    if not 0 < threshold_pct <= 100:
        raise ValueError(f"threshold_pct must be in (0, 100], got {threshold_pct}")


def compute_node_metrics(
    graphs: StrongGraphs, threshold_pct: float = DEFAULT_THRESHOLD_PCT
) -> tuple[NodeMetrics, ...]:
    """Per-node degrees, percentages and high-degree flags, in index order.

    With fewer than two configurable nodes every percentage is 0 (there is
    nobody to relate to), so no node is high on any axis.
    """
    validate_threshold(threshold_pct)
    nodes = sorted(graphs.nodes)
    in_deg = {v: 0 for v in nodes}
    out_deg = {v: 0 for v in nodes}
    conf_deg = {v: 0 for v in nodes}
    for source, target in graphs.dep_arcs:
        out_deg[source] += 1
        in_deg[target] += 1
    for a, b in graphs.conflict_edges:
        conf_deg[a] += 1
        conf_deg[b] += 1

    denominator = len(nodes) - 1
    result = []
    for v in nodes:
        if denominator >= 1:
            in_pct = 100.0 * in_deg[v] / denominator
            out_pct = 100.0 * out_deg[v] / denominator
            conf_pct = 100.0 * conf_deg[v] / denominator
        else:
            in_pct = out_pct = conf_pct = 0.0
        result.append(NodeMetrics(
            feature=v,
            name=graphs.name_of(v),
            in_degree=in_deg[v],
            out_degree=out_deg[v],
            conflict_degree=conf_deg[v],
            in_pct=in_pct,
            out_pct=out_pct,
            conflict_pct=conf_pct,
            high_in=in_pct >= threshold_pct,
            high_out=out_pct >= threshold_pct,
            high_conflict=conf_pct >= threshold_pct,
        ))
    return tuple(result)


def compute_model_metrics(
    graphs: StrongGraphs,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    model_id: str = "",
) -> ModelMetrics:
    """Whole-model summary: classification shares, densities, hub overlap."""
    nodes = compute_node_metrics(graphs, threshold_pct)
    num_vars = graphs.classification.num_vars
    core = len(graphs.classification.core)
    dead = len(graphs.classification.dead)

    high_in = [n for n in nodes if n.high_in]
    overlap_in_out = overlap_in_conflict = None
    if high_in:
        overlap_in_out = 100.0 * sum(n.high_out for n in high_in) / len(high_in)
        overlap_in_conflict = 100.0 * sum(n.high_conflict for n in high_in) / len(high_in)

    return ModelMetrics(
        model_id=model_id,
        num_vars=num_vars,
        num_configurable=len(graphs.nodes),
        num_core=core,
        num_dead=dead,
        num_arcs=len(graphs.dep_arcs),
        num_conflict_edges=len(graphs.conflict_edges),
        core_pct=100.0 * core / num_vars if num_vars else 0.0,
        dead_pct=100.0 * dead / num_vars if num_vars else 0.0,
        require_density=len(graphs.dep_arcs) / num_vars if num_vars else 0.0,
        exclude_density=len(graphs.conflict_edges) / num_vars if num_vars else 0.0,
        threshold_pct=threshold_pct,
        nodes=nodes,
        overlap_in_out_pct=overlap_in_out,
        overlap_in_conflict_pct=overlap_in_conflict,
    )


def degree_distribution(
    nodes: tuple[NodeMetrics, ...] | list[NodeMetrics],
    axis: str,
    bin_width_pct: float = DEFAULT_BIN_WIDTH_PCT,
) -> tuple[HistogramBin, ...]:
    """Histogram of normalized degrees on one axis.

    Bins are [k*w, (k+1)*w) with the last bin closed at 100 so a full-degree
    hub lands inside it. Shares are node fractions and sum to 1 whenever any
    nodes exist; all bins are emitted, including empty ones.
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    if not 0 < bin_width_pct <= 100:
        raise ValueError(f"bin_width_pct must be in (0, 100], got {bin_width_pct}")
    bin_count = 1
    while bin_count * bin_width_pct < 100:
        bin_count += 1
    counts = [0] * bin_count
    for node in nodes:
        index = min(int(node.pct(axis) // bin_width_pct), bin_count - 1)
        counts[index] += 1
    total = len(nodes)
    return tuple(
        HistogramBin(
            low=k * bin_width_pct,
            high=min((k + 1) * bin_width_pct, 100.0),
            share=counts[k] / total if total else 0.0,
        )
        for k in range(bin_count)
    )
