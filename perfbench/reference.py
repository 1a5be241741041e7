#!/usr/bin/env python3
"""Record perfbench/reference.json: the expected outputs for two seeds.

Usage (from the repository root):

    python3 perfbench/reference.py

For the default seed and one held-out seed, analyzes every model of the
Kconfig pool, validates each artifact exhaustively with ``validate_model``
(its default sample covers every node at these sizes) and checks the
structural invariants. Only when all of that passes does it store the
SHA-256 digests of each model's checked artifacts and the validation check
counts. Rerun it only when fmnet's output is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # puts the repository's src/ on the path
import gen

import fmnet
import fmnet.corpus

HELD_OUT_SEED = 7321
SEEDS = (run.DEFAULT_SEED, HELD_OUT_SEED)


def record(seed: int) -> tuple[dict, dict]:
    work = run.WORK / f"reference-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        digests, counts = {}, {}
        for path in (p for paths in gen.kconfig_pool(seed, work / "models") for p in paths):
            model_id = path.stem
            fmnet.corpus.analyze_model(path, out_dir=work / "out")
            model_dir = work / "out" / model_id
            graphs = fmnet.graphs_from_json((model_dir / "graphs.json").read_text("utf-8"))
            summary = json.loads((model_dir / "summary.json").read_text("utf-8"))
            rows = len((model_dir / "nodes.csv").read_text("utf-8").splitlines()) - 1
            formula = fmnet.corpus.load_formula(path, "fm")
            report = fmnet.validate_model(formula, graphs, model_id=model_id)
            problems = run.structural_problems(graphs, summary, rows)
            if report.checked_nodes != len(graphs.nodes):
                problems.append("validation did not cover every node")
            if not report.passed or problems:
                raise SystemExit(f"seed {seed} {model_id}: {report.discrepancies[:3]} {problems[:3]}")
            digests[model_id] = {name: run.file_digest(model_dir / name) for name in run.ARTIFACTS}
            counts[model_id] = run.validation_counts(report)
            print(f"seed {seed} {model_id}: validated exhaustively, {counts[model_id]}",
                  file=sys.stderr)
        return digests, counts
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()


def main() -> int:
    reference = {"analyze-kconfig": {}, "validate-kconfig": {}}
    for seed in SEEDS:
        digests, counts = record(seed)
        reference["analyze-kconfig"][str(seed)] = digests
        reference["validate-kconfig"][str(seed)] = counts
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
