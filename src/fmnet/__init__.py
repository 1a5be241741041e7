"""Strong dependency and conflict graphs for feature models.

The pipeline: parse a model (DIMACS CNF or the feature-model dialect),
ask one incremental solver, through one settling routine, what selecting
nothing forces (the backbone, which makes each feature core, dead or
configurable) and what selecting each configurable feature forces (its
strong dependencies and conflicts), then study the resulting graphs with
degree metrics and corpus-level statistics. A model-enumeration oracle and
a sampling validator double-check every artifact.
"""

from .cnf import Clause, CnfFormula, emit_dimacs, normalize_clause, parse_dimacs
from .errors import (
    ConstraintError,
    DialectError,
    DimacsError,
    EnumerationLimitError,
    FmnetError,
    InputSyntaxError,
    VoidModelError,
)
from .export import export_graph, graphs_from_json
from .feature_model import FeatureModel, fm_to_cnf, parse_fm, parse_fm_to_cnf
from .metrics import (
    HistogramBin,
    ModelMetrics,
    NodeMetrics,
    compute_model_metrics,
    compute_node_metrics,
    degree_distribution,
)
from .oracle import Discrepancy, ValidationReport, oracle_strong_relations, validate_model
from .sat import SatEngine, SatOutcome, Status
from .stats import (
    StatsSummary,
    WilcoxonResult,
    effect_label,
    median_and_coverage,
    spearman_rho,
    summarize_metric,
    wilcoxon_signed_rank,
)
from .strong_graphs import (
    Backbone,
    FeatureClassification,
    StrongGraphs,
    build_strong_graphs,
    compute_backbone,
    compute_strong_graphs,
    extract_strong_relations,
)

__version__ = "0.1.0"

__all__ = [
    "Backbone",
    "Clause",
    "CnfFormula",
    "ConstraintError",
    "DialectError",
    "DimacsError",
    "Discrepancy",
    "EnumerationLimitError",
    "FeatureClassification",
    "FeatureModel",
    "FmnetError",
    "HistogramBin",
    "InputSyntaxError",
    "ModelMetrics",
    "NodeMetrics",
    "SatEngine",
    "SatOutcome",
    "StatsSummary",
    "Status",
    "StrongGraphs",
    "ValidationReport",
    "VoidModelError",
    "WilcoxonResult",
    "build_strong_graphs",
    "compute_backbone",
    "compute_model_metrics",
    "compute_node_metrics",
    "compute_strong_graphs",
    "degree_distribution",
    "effect_label",
    "emit_dimacs",
    "export_graph",
    "extract_strong_relations",
    "fm_to_cnf",
    "graphs_from_json",
    "median_and_coverage",
    "normalize_clause",
    "oracle_strong_relations",
    "parse_dimacs",
    "parse_fm",
    "parse_fm_to_cnf",
    "spearman_rho",
    "summarize_metric",
    "validate_model",
    "wilcoxon_signed_rank",
]
