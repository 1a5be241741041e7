"""Command-line front end.

Subcommands:

- ``analyze <file>``: classify one model, print its summary, optionally
  write the artifact directory.
- ``corpus <manifest.csv>``: analyze every model in a manifest and write the
  per-model artifacts plus corpus-level tables.
- ``export <model-dir>``: re-render a previously written artifact directory
  (its graphs.json) in another format on stdout.
- ``validate <file>``: rebuild the graphs and check them against the formula
  with sampled assumption queries.
- ``oracle <file>``: derive the graphs by full model enumeration (small
  models only) and cross-check the extractor against them.

Exit codes: 0 success, 1 reported disagreement (validate/oracle), 2 input or
usage error or out of memory, 3 void model (the formula has no configurations).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .corpus import (
    FORMATS,
    analyze_corpus,
    analyze_model,
    load_formula,
    load_manifest,
    summary_json,
)
from .errors import FmnetError, InputSyntaxError, VoidModelError
from .export import FORMATS as EXPORT_FORMATS
from .export import export_graph, graphs_from_json
from .metrics import DEFAULT_THRESHOLD_PCT, compute_model_metrics
from .oracle import oracle_strong_relations, validate_model
from .strong_graphs import compute_strong_graphs, extract_strong_relations

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT_ERROR = 2
EXIT_VOID_MODEL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmnet",
        description="Strong dependency and conflict graphs for feature models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a single model file")
    analyze.set_defaults(run=_cmd_analyze)
    analyze.add_argument("file", type=Path)
    analyze.add_argument("--format", choices=FORMATS, default=None,
                         help="input format (default: by file suffix)")
    analyze.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
                         help="high-degree threshold in percent (default 10)")
    analyze.add_argument("--out", type=Path, default=None,
                         help="directory to write the artifact files into")

    corpus = sub.add_parser("corpus", help="analyze every model in a manifest")
    corpus.set_defaults(run=_cmd_corpus)
    corpus.add_argument("manifest", type=Path)
    corpus.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    corpus.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT)
    corpus.add_argument("--out", type=Path, default=Path("corpus-out"),
                        help="output directory (default ./corpus-out)")

    export = sub.add_parser("export", help="re-render an analyzed model's graphs")
    export.set_defaults(run=_cmd_export)
    export.add_argument("model_dir", type=Path,
                        help="artifact directory written by analyze/corpus")
    export.add_argument("--format", choices=EXPORT_FORMATS, required=True)

    validate = sub.add_parser("validate", help="check rebuilt graphs against the formula")
    validate.set_defaults(run=_cmd_validate)
    validate.add_argument("file", type=Path)
    validate.add_argument("--format", choices=FORMATS, default=None)
    validate.add_argument("--sample", type=int, default=1000,
                          help="node sample size (default 1000)")
    validate.add_argument("--seed", type=int, default=0)

    oracle = sub.add_parser("oracle", help="enumerate all models and cross-check")
    oracle.set_defaults(run=_cmd_oracle)
    oracle.add_argument("file", type=Path)
    oracle.add_argument("--format", choices=FORMATS, default=None)
    oracle.add_argument("--var-limit", type=int, default=25,
                        help="refuse models with more variables (default 25)")
    return parser


def _cmd_analyze(args) -> int:
    metrics, _ = analyze_model(
        args.file, args.format, args.threshold, args.out
    )
    sys.stdout.write(summary_json(metrics))
    if args.out is not None:
        print(f"artifacts written to {args.out / metrics.model_id}", file=sys.stderr)
    return EXIT_OK


def _cmd_corpus(args) -> int:
    manifest = load_manifest(args.manifest)
    result = analyze_corpus(manifest, args.threshold, args.jobs, args.out)
    print(
        f"analyzed {len(result.records)} of {len(manifest.entries)} models "
        f"({len(result.failures)} failed); tables in {args.out}",
        file=sys.stderr,
    )
    for failure in result.failures:
        print(f"  failed {failure.model_id}: {failure.error}", file=sys.stderr)
    return EXIT_OK


def _cmd_export(args) -> int:
    graphs_json = args.model_dir / "graphs.json"
    if not graphs_json.is_file():
        raise InputSyntaxError(f"{args.model_dir} has no graphs.json")
    graphs = graphs_from_json(graphs_json.read_text("utf-8"))
    sys.stdout.write(export_graph(graphs, args.format))
    return EXIT_OK


def _cmd_validate(args) -> int:
    formula = load_formula(args.file, args.format)
    graphs = compute_strong_graphs(formula)
    report = validate_model(
        formula, graphs, sample_size=args.sample, seed=args.seed,
        model_id=args.file.stem,
    )
    payload = dataclasses.asdict(report)
    payload["passed"] = report.passed
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK if report.passed else EXIT_DISAGREEMENT


def _cmd_oracle(args) -> int:
    formula = load_formula(args.file, args.format)
    oracle = oracle_strong_relations(formula, var_limit=args.var_limit)
    agrees = extract_strong_relations(formula) == oracle
    classification, (arcs, edges) = oracle

    def named(pairs):
        return sorted([formula.name_of(a), formula.name_of(b)] for a, b in pairs)

    payload = {
        "model": str(args.file),
        "core": sorted(formula.name_of(v) for v in classification.core),
        "dead": sorted(formula.name_of(v) for v in classification.dead),
        "arcs": named(arcs),
        "conflict_edges": named(edges),
        "agrees_with_extraction": agrees,
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK if agrees else EXIT_DISAGREEMENT


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except VoidModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_VOID_MODEL
    except (FmnetError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
