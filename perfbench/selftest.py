#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selftest.py

Checks that the generators are deterministic (the same seed gives
byte-identical files, another seed different ones) and that every count-type
per-layer metric repeats exactly across two traced runs of the default seed,
on every workload.
Exits 1 on the first failed check. Takes a few minutes for all workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # puts the repository's src/ on the path
import gen
import tracing


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def check_generators(work: Path) -> list[str]:
    problems = []
    for label, make in (("kconfig pool", gen.kconfig_pool), ("tiny corpus", gen.tiny_corpus)):
        trees = []
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            make(seed, work / label / name)
            trees.append(_files(work / label / name))
        if trees[0] != trees[1]:
            problems.append(f"{label}: seed 5 gave different files on two runs")
        if trees[0] == trees[2]:
            problems.append(f"{label}: seeds 5 and 6 gave the same files")
        print(f"{label}: {len(trees[0])} files, byte-identical for one seed", file=sys.stderr)
    return problems


def traced_counts(workload: str) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported wrong output")
    return {name: result["metrics"][name]["value"] for name in tracing.COUNT_METRICS}


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        problems = check_generators(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    for workload in run.WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        differing = sorted(name for name in first if first[name] != second[name])
        if differing:
            problems.append(f"{workload}: counts differ between runs: {differing}")
        print(f"{workload}: {len(first)} count metrics, "
              f"{'identical' if not differing else 'DIFFERENT'} across two runs", file=sys.stderr)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
