#!/usr/bin/env python3
"""One traced analyze of one large Kconfig-shaped model: a scale point.

Usage (from the repository root):

    python3 perfbench/scale.py --features 201

The model comes from the default seed. Prints the model's size, its graphs
and where the time went, as one JSON object. These points are too slow to
repeat inside a benchmark run; their results are recorded in
perfbench/NOTES.md next to ROADMAP.md's baseline.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time

import run  # puts the repository's src/ on the path
import gen
import tracing

import fmnet.corpus

RATIO = 0.15  # cross-tree constraints per feature, mid-range of the pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--features", type=int, required=True)
    args = parser.parse_args(argv)

    seed = run.DEFAULT_SEED
    work = run.WORK / f"scale-{args.features}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    model_id = f"s{args.features}"
    path = work / f"{model_id}.fm"
    rng = random.Random(f"scale:{seed}:{model_id}")
    path.write_text(gen.kconfig_model(args.features, RATIO, rng, prefix="S"), "utf-8")

    tracer = tracing.Tracer()
    tracer.install(tracing.PER_MODEL)
    try:
        start = time.perf_counter()
        metrics, graphs = fmnet.corpus.analyze_model(path, out_dir=work / "out")
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    layers = tracing.layer_metrics(tracer.spans)
    print(json.dumps({
        "features": args.features,
        "seed": seed,
        "vars": metrics.num_vars,
        "configurable": metrics.num_configurable,
        "core": metrics.num_core,
        "dead": metrics.num_dead,
        "arcs": metrics.num_arcs,
        "edges": metrics.num_conflict_edges,
        "traced_wall_s": wall,
        "parse_s": layers["feature_model.parse_s"],
        "base_backbone_s": layers["backbone.base_s"],
        "base_sat_calls": layers["backbone.base_sat_calls"],
        "extract_s": layers["strong_graphs.extract_s"],
        "metrics_s": layers["metrics.compute_s"],
        "write_artifacts_s": layers["corpus.write_artifacts_s"],
        "sat_solves": layers["sat.solves"],
        "sat_engines_built": layers["sat.engines_built"],
        "solves_per_feature": layers["strong_graphs.solves_per_feature"],
        "sat_solve_mean_us": layers["sat.solve_mean_us"],
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
