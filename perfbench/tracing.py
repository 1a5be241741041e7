"""In-memory spans around fmnet's public calls, and the per-layer metrics
derived from them.

A span is ``(name, start, end, parent, attrs)``: ``parent`` is the index of
the enclosing span or -1, ``attrs`` holds the counts read off the call's
arguments and result. Spans are recorded by wrapping functions where fmnet
looks them up (module globals or class attributes), so nothing under
``src/`` changes. Everything runs in one thread, so spans nest strictly and
a span's self time is its duration minus its direct children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import fmnet
import fmnet.corpus
import fmnet.sat
import fmnet.strong_graphs


def _artifact_tree(args, kwargs, model_dir):
    files = [p for p in Path(model_dir).iterdir() if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


def _backbone(args, kwargs, result):
    assumptions = args[1] if len(args) > 1 else kwargs.get("assumptions", ())
    return {"conditioned": bool(tuple(assumptions)), "sat_calls": result.sat_calls}


# (owner, attribute, span name, attrs from (args, kwargs, result)).
# Functions called by fmnet itself are wrapped where it looks them up: the
# corpus module's globals for the artifact path, the strong_graphs module's
# globals for extraction, the SatEngine class for the solver.
PER_MODEL = (
    (fmnet.corpus, "analyze_model", "corpus.analyze_model", None),
    (fmnet.corpus, "parse_fm_to_cnf", "feature_model.parse_fm_to_cnf",
     lambda a, k, r: {"clauses": len(r.clauses)}),
    (fmnet.corpus, "parse_dimacs", "cnf.parse_dimacs", None),
    (fmnet.strong_graphs, "extract_strong_relations", "strong_graphs.extract_strong_relations",
     lambda a, k, r: {"configurable": len(r[0].configurable)}),
    (fmnet.strong_graphs, "build_strong_graphs", "strong_graphs.build_strong_graphs",
     lambda a, k, r: {"arcs": len(r.dep_arcs), "edges": len(r.conflict_edges)}),
    (fmnet.strong_graphs, "compute_backbone", "backbone.compute_backbone", _backbone),
    (fmnet.sat.SatEngine, "__init__", "sat.SatEngine.__init__", None),
    (fmnet.sat.SatEngine, "solve", "sat.SatEngine.solve",
     lambda a, k, r: {"unsat": r.status is fmnet.Status.UNSAT}),
    (fmnet.corpus, "compute_model_metrics", "metrics.compute_model_metrics", None),
    (fmnet.corpus, "degree_distribution", "metrics.degree_distribution", None),
    (fmnet.corpus, "export_graph", "export.export_graph",
     lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    (fmnet.corpus, "write_model_artifacts", "corpus.write_model_artifacts", _artifact_tree),
    (fmnet, "validate_model", "oracle.validate_model",
     lambda a, k, r: {"checked_arcs": r.checked_arcs, "checked_edges": r.checked_edges}),
)

# Calls a corpus run makes in the parent process, around its worker pool.
PARENT = (
    (fmnet.corpus, "analyze_corpus", "corpus.analyze_corpus",
     lambda a, k, r: {"failures": len(r.failures)}),
    (fmnet.corpus, "write_corpus_tables", "corpus.write_corpus_tables", None),
    (fmnet.corpus, "summarize_metric", "stats.summarize_metric", None),
    (fmnet.corpus, "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", None),
)


class Tracer:
    """Records spans while installed; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, targets) -> None:
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, fn, name, attrs_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # A call that raises keeps its span but carries no counts.
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            spans[index] = (name, start, end, parent, attrs)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, total seconds, self seconds)}``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return {name: tuple(row) for name, row in sorted(table.items())}

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index, attrs."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, attrs in self.spans:
                handle.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def _within(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals over ``spans``; layers not exercised read 0."""
    total = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    for i, (name, start, end, _, attrs) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if attrs is None:
            continue
        if name == "backbone.compute_backbone":
            kind = "conditioned" if attrs["conditioned"] else "base"
            total[f"backbone.{kind}"] += end - start
            calls[f"backbone.{kind}"] += 1
            count[f"backbone.{kind}_sat_calls"] += attrs["sat_calls"]
        elif name == "sat.SatEngine.solve":
            unsat = attrs["unsat"]
            count["sat.unsat"] += unsat
            if _within(spans, i, "strong_graphs.extract_strong_relations"):
                count["extract.solves"] += 1
            if _within(spans, i, "oracle.validate_model"):
                count["oracle.solves"] += 1
                count["oracle.unsat"] += unsat
        else:
            for key, value in attrs.items():
                count[f"{name}.{key}"] += value

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls["sat.SatEngine.solve"]
    configurable = count["strong_graphs.extract_strong_relations.configurable"]
    return {
        "feature_model.parse_s": total["feature_model.parse_fm_to_cnf"],
        "feature_model.clauses": count["feature_model.parse_fm_to_cnf.clauses"],
        "cnf.parse_dimacs_s": total["cnf.parse_dimacs"],
        "backbone.base_s": total["backbone.base"],
        "backbone.base_sat_calls": count["backbone.base_sat_calls"],
        "backbone.conditioned_calls": calls["backbone.conditioned"],
        "backbone.conditioned_s": total["backbone.conditioned"],
        "strong_graphs.extract_s": total["strong_graphs.extract_strong_relations"],
        "strong_graphs.build_s": total["strong_graphs.build_strong_graphs"],
        "strong_graphs.configurable": configurable,
        "strong_graphs.arcs": count["strong_graphs.build_strong_graphs.arcs"],
        "strong_graphs.edges": count["strong_graphs.build_strong_graphs.edges"],
        "strong_graphs.solves_per_feature": ratio(count["extract.solves"], configurable),
        "sat.engines_built": calls["sat.SatEngine.__init__"],
        "sat.init_s": total["sat.SatEngine.__init__"],
        "sat.solves": solves,
        "sat.solves_sat": solves - count["sat.unsat"],
        "sat.solves_unsat": count["sat.unsat"],
        "sat.unsat_frac": ratio(count["sat.unsat"], solves),
        "sat.solve_s": total["sat.SatEngine.solve"],
        "sat.solve_mean_us": ratio(total["sat.SatEngine.solve"], solves) * 1e6,
        "oracle.validate_s": total["oracle.validate_model"],
        "oracle.solves": count["oracle.solves"],
        "oracle.unsat_frac": ratio(count["oracle.unsat"], count["oracle.solves"]),
        "oracle.checked_arcs": count["oracle.validate_model.checked_arcs"],
        "oracle.checked_edges": count["oracle.validate_model.checked_edges"],
        "metrics.compute_s": total["metrics.compute_model_metrics"],
        "metrics.histogram_s": total["metrics.degree_distribution"],
        "export.render_s": total["export.export_graph"],
        "export.bytes": count["export.export_graph.bytes"],
        "corpus.write_artifacts_s": total["corpus.write_model_artifacts"],
        "corpus.artifact_files": count["corpus.write_model_artifacts.files"],
        "corpus.artifact_bytes": count["corpus.write_model_artifacts.bytes"],
        "corpus.tables_s": total["corpus.write_corpus_tables"],
        "corpus.failures": count["corpus.analyze_corpus.failures"],
        "stats.summarize_s": total["stats.summarize_metric"],
        "stats.wilcoxon_s": total["stats.wilcoxon_signed_rank"],
    }


# Metrics that are counts of work and must repeat exactly for one seed.
COUNT_METRICS = tuple(
    name for name in layer_metrics([])
    if not name.endswith(("_s", "_us"))
)
