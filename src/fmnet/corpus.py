"""Model analysis runs: per-model artifacts and corpus aggregation.

A manifest is a CSV with header ``id,path,format,domain``; paths resolve
relative to the manifest's directory. Analyzing one model writes, under
``<out>/<id>/``: graphs.dot, graphs.graphml, graphs.json, nodes.csv,
histograms.csv and summary.json. A corpus run writes those per model plus
corpus.csv (one row per analyzed model), domain_stats.csv (median, coverage
interval and size correlation per domain and metric) and tests.csv (paired
signed-rank tests per domain). Output is byte-for-byte identical no matter
how many worker processes run, because workers only produce per-model
artifacts and every aggregate is emitted in manifest order.
"""

from __future__ import annotations

import csv
import json
import traceback
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

from .cnf import CnfFormula, parse_dimacs
from .errors import FmnetError, InputSyntaxError
from .export import export_graph
from .feature_model import parse_fm_to_cnf
from .metrics import (
    AXES,
    DEFAULT_BIN_WIDTH_PCT,
    DEFAULT_THRESHOLD_PCT,
    ModelMetrics,
    compute_model_metrics,
    degree_distribution,
    validate_threshold,
)
from .stats import (
    StatsSummary,
    WilcoxonResult,
    summarize_metric,
    wilcoxon_signed_rank,
)
from .strong_graphs import StrongGraphs, compute_strong_graphs

FORMATS = ("dimacs", "fm")

# The corpus-level tables, written next to the model directories.
CORPUS_TABLES = ("corpus.csv", "domain_stats.csv", "tests.csv")

# Metrics aggregated per domain, in report order.
DOMAIN_METRICS = ("core_pct", "dead_pct", "require_density", "exclude_density")

# Paired hypotheses tested per domain: (label, metric a, metric b).
DOMAIN_TESTS = (
    ("dead_gt_core", "dead_pct", "core_pct"),
    ("excludes_gt_requires", "exclude_density", "require_density"),
)


@dataclass(frozen=True)
class ManifestEntry:
    model_id: str
    path: Path
    fmt: str
    domain: str


@dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]


@dataclass(frozen=True)
class CorpusRecord:
    model_id: str
    domain: str
    num_vars: int
    num_configurable: int
    core_pct: float
    dead_pct: float
    require_density: float
    exclude_density: float
    num_arcs: int
    num_conflict_edges: int
    overlap_in_out_pct: float | None
    overlap_in_conflict_pct: float | None


@dataclass(frozen=True)
class CorpusFailure:
    model_id: str
    error: str


@dataclass(frozen=True)
class CorpusResult:
    records: tuple[CorpusRecord, ...]
    failures: tuple[CorpusFailure, ...]
    domain_stats: dict[str, dict[str, StatsSummary]]
    tests: dict[str, dict[str, WilcoxonResult]]


def validate_model_id(model_id: str, line: int | None = None) -> None:
    """Refuse an id that cannot name a model's directory next to the corpus tables."""
    if model_id in ("", ".", "..") or any(c in model_id for c in "/\\\0"):
        raise InputSyntaxError(f"model id {model_id!r} is not a plain directory name", line)
    if model_id in CORPUS_TABLES:
        raise InputSyntaxError(f"model id {model_id!r} names a corpus table", line)


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read and validate a manifest CSV; all referenced paths must exist."""
    path = Path(path)
    entries = []
    seen = set()
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        try:
            required = {"id", "path", "format", "domain"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise InputSyntaxError(
                    f"manifest must have columns id,path,format,domain; got {reader.fieldnames}"
                )
            for row in reader:
                row_no = reader.line_num  # a quoted field may span lines
                if None in row.values():  # csv pads a short row with None
                    raise InputSyntaxError("row has fewer columns than the header", row_no)
                model_id = row["id"].strip()
                validate_model_id(model_id, row_no)
                if model_id in seen:
                    raise InputSyntaxError(f"duplicate model id {model_id!r}", row_no)
                seen.add(model_id)
                fmt = row["format"].strip()
                if fmt not in FORMATS:
                    raise InputSyntaxError(
                        f"unknown format {fmt!r}; expected one of {FORMATS}", row_no
                    )
                model_path = (path.parent / row["path"].strip()).resolve()
                if not model_path.is_file():
                    raise InputSyntaxError(f"model file not found: {model_path}", row_no)
                entries.append(ManifestEntry(model_id, model_path, fmt, row["domain"].strip()))
        except csv.Error as error:  # a field over csv's size limit; NUL before 3.11
            line = reader.reader.line_num  # DictReader's own count lags on a failed row
            raise InputSyntaxError(f"not a CSV manifest: {error}", line) from error
    if not entries:
        raise InputSyntaxError(f"manifest {path} lists no models")
    return CorpusManifest(tuple(entries))


def load_formula(path: str | Path, fmt: str | None = None) -> CnfFormula:
    """Parse a model file; without ``fmt`` the suffix picks the format."""
    if fmt is None:
        fmt = detect_format(path)
    text = Path(path).read_text(encoding="utf-8-sig")
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt == "fm":
        return parse_fm_to_cnf(text)
    raise ValueError(f"unknown input format {fmt!r}; expected one of {FORMATS}")


def detect_format(path: str | Path) -> str:
    """Guess the input format from the file suffix; DIMACS is the default."""
    return "fm" if Path(path).suffix == ".fm" else "dimacs"


def _float_cell(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def analyze_model(
    path: str | Path,
    fmt: str | None = None,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    out_dir: str | Path | None = None,
    model_id: str | None = None,
) -> tuple[ModelMetrics, StrongGraphs]:
    """Analyze one model file; optionally write its artifact directory."""
    validate_threshold(threshold_pct)
    path = Path(path)
    if model_id is None:
        model_id = path.stem
    if out_dir is not None:
        validate_model_id(model_id)
    formula = load_formula(path, fmt)
    graphs = compute_strong_graphs(formula)
    metrics = compute_model_metrics(graphs, threshold_pct, model_id)
    if out_dir is not None:
        write_model_artifacts(Path(out_dir), metrics, graphs)
    return metrics, graphs


def write_model_artifacts(
    out_dir: Path, metrics: ModelMetrics, graphs: StrongGraphs
) -> Path:
    model_dir = out_dir / metrics.model_id
    model_dir.mkdir(parents=True, exist_ok=True)
    for fmt in ("dot", "graphml", "json"):
        (model_dir / f"graphs.{fmt}").write_text(export_graph(graphs, fmt), "utf-8")

    _write_csv(model_dir / "nodes.csv", [
        "feature", "name", "in_degree", "out_degree", "conflict_degree",
        "in_pct", "out_pct", "conflict_pct", "high_in", "high_out", "high_conflict",
    ], ([
        node.feature, node.name, node.in_degree, node.out_degree, node.conflict_degree,
        _float_cell(node.in_pct), _float_cell(node.out_pct), _float_cell(node.conflict_pct),
        int(node.high_in), int(node.high_out), int(node.high_conflict),
    ] for node in metrics.nodes))
    _write_csv(model_dir / "histograms.csv", ["axis", "bin_low", "bin_high", "share"], (
        [axis, _float_cell(hist_bin.low), _float_cell(hist_bin.high),
         _float_cell(hist_bin.share)]
        for axis in AXES
        for hist_bin in degree_distribution(metrics.nodes, axis, DEFAULT_BIN_WIDTH_PCT)
    ))

    (model_dir / "summary.json").write_text(summary_json(metrics), "utf-8")
    return model_dir


def _argmax_block(metrics: ModelMetrics, axis: str) -> dict:
    best = max((node.degree(axis) for node in metrics.nodes), default=0)
    return {
        "degree": best,
        "features": [
            {"index": node.feature, "name": node.name}
            for node in metrics.nodes if node.degree(axis) == best
        ],
    }


def summary_json(metrics: ModelMetrics) -> str:
    payload = {
        "model_id": metrics.model_id,
        "num_vars": metrics.num_vars,
        "num_configurable": metrics.num_configurable,
        "num_core": metrics.num_core,
        "num_dead": metrics.num_dead,
        "num_arcs": metrics.num_arcs,
        "num_conflict_edges": metrics.num_conflict_edges,
        "core_pct": metrics.core_pct,
        "dead_pct": metrics.dead_pct,
        "require_density_x": metrics.require_density,
        "exclude_density_x": metrics.exclude_density,
        "threshold_pct": metrics.threshold_pct,
        "overlap": {
            "high_in_and_high_out_pct": metrics.overlap_in_out_pct,
            "high_in_and_high_conflict_pct": metrics.overlap_in_conflict_pct,
        },
        "max_in_degree": _argmax_block(metrics, "in"),
        "max_out_degree": _argmax_block(metrics, "out"),
        "max_conflict_degree": _argmax_block(metrics, "conflict"),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _record_from(metrics: ModelMetrics, domain: str) -> CorpusRecord:
    return CorpusRecord(
        model_id=metrics.model_id,
        domain=domain,
        num_vars=metrics.num_vars,
        num_configurable=metrics.num_configurable,
        core_pct=metrics.core_pct,
        dead_pct=metrics.dead_pct,
        require_density=metrics.require_density,
        exclude_density=metrics.exclude_density,
        num_arcs=metrics.num_arcs,
        num_conflict_edges=metrics.num_conflict_edges,
        overlap_in_out_pct=metrics.overlap_in_out_pct,
        overlap_in_conflict_pct=metrics.overlap_in_conflict_pct,
    )


def _analyze_entry(
    entry: ManifestEntry, threshold_pct: float, out_dir: str | Path | None
) -> CorpusRecord | CorpusFailure:
    try:
        metrics, _ = analyze_model(
            entry.path, entry.fmt, threshold_pct, out_dir, entry.model_id
        )
    except (FmnetError, OSError, ValueError) as error:
        return CorpusFailure(entry.model_id, str(error))
    except Exception as error:  # a fault in one model must not sink the run
        frame = traceback.extract_tb(error.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno}"
        return CorpusFailure(entry.model_id, f"{type(error).__name__} at {where}: {error}")
    return _record_from(metrics, entry.domain)


def analyze_corpus(
    manifest: CorpusManifest,
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    jobs: int = 1,
    out_dir: str | Path | None = None,
) -> CorpusResult:
    """Analyze every manifest entry; a model that fails to parse, is void
    or raises any other exception is tallied as that model's failure, never
    fatal for the run. A bad threshold or job count raises ValueError before
    any model is read."""
    validate_threshold(threshold_pct)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(manifest.entries) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        # The pool forks all its workers at the first task, so ask for no
        # more than there are models.
        with ProcessPoolExecutor(max_workers=min(jobs, len(manifest.entries))) as pool:
            outcomes = list(pool.map(
                _analyze_entry, manifest.entries,
                repeat(threshold_pct), repeat(out_dir),
            ))
    else:
        outcomes = [_analyze_entry(e, threshold_pct, out_dir) for e in manifest.entries]

    records = tuple(o for o in outcomes if isinstance(o, CorpusRecord))
    failures = tuple(o for o in outcomes if isinstance(o, CorpusFailure))

    domains = sorted({record.domain for record in records})
    domain_stats: dict[str, dict[str, StatsSummary]] = {}
    tests: dict[str, dict[str, WilcoxonResult]] = {}
    for domain in domains:
        rows = [r for r in records if r.domain == domain]
        sizes = [float(r.num_vars) for r in rows]
        domain_stats[domain] = {
            metric: summarize_metric([getattr(r, metric) for r in rows], sizes)
            for metric in DOMAIN_METRICS
        }
        tests[domain] = {
            label: wilcoxon_signed_rank(
                [getattr(r, metric_a) for r in rows],
                [getattr(r, metric_b) for r in rows],
            )
            for label, metric_a, metric_b in DOMAIN_TESTS
        }

    result = CorpusResult(records, failures, domain_stats, tests)
    if out_dir is not None:
        write_corpus_tables(Path(out_dir), result)
    return result


def write_corpus_tables(out_dir: Path, result: CorpusResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_csv, domain_stats_csv, tests_csv = (out_dir / name for name in CORPUS_TABLES)
    _write_csv(corpus_csv, [
        "id", "domain", "num_vars", "num_configurable",
        "core_pct", "dead_pct", "require_density", "exclude_density",
        "num_arcs", "num_conflict_edges",
        "overlap_in_out_pct", "overlap_in_conflict_pct",
    ], ([
        r.model_id, r.domain, r.num_vars, r.num_configurable,
        _float_cell(r.core_pct), _float_cell(r.dead_pct),
        _float_cell(r.require_density), _float_cell(r.exclude_density),
        r.num_arcs, r.num_conflict_edges,
        _float_cell(r.overlap_in_out_pct), _float_cell(r.overlap_in_conflict_pct),
    ] for r in result.records))
    _write_csv(domain_stats_csv, [
        "domain", "metric", "n", "median", "ci_low", "ci_high", "rho",
    ], ([
        domain, metric, s.n, _float_cell(s.median),
        _float_cell(s.ci_low), _float_cell(s.ci_high), _float_cell(s.rho),
    ] for domain, summaries in result.domain_stats.items()
        for metric, s in summaries.items()))
    _write_csv(tests_csv, [
        "domain", "hypothesis", "n_pairs", "n_effective", "w_statistic",
        "z_value", "p_value", "significant", "effect_size_r", "effect_label",
        "degenerate",
    ], ([
        domain, hypothesis, t.n_pairs, t.n_effective,
        _float_cell(t.w_statistic), _float_cell(t.z_value),
        _float_cell(t.p_value), int(t.significant()),
        _float_cell(t.effect_size_r), t.effect_label, int(t.degenerate),
    ] for domain, results in result.tests.items()
        for hypothesis, t in results.items()))
