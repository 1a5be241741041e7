#!/usr/bin/env python3
"""fmnet benchmark: one seeded workload per run, outputs checked, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-kconfig --seed 1 --seconds 45 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

- ``analyze-kconfig``: ``fmnet.corpus.analyze_model`` on a pool of
  Kconfig-shaped models, five each of 60, 80, 100, 120 and 140 features;
- ``validate-kconfig``: ``fmnet.validate_model`` at its default sample on
  the 60-, 100- and 140-feature models of that pool's first copy, with the graphs
  computed during set-up;
- ``corpus-tiny``: ``fmnet.corpus.analyze_corpus`` with ``jobs=2`` over a
  400-entry manifest of tiny models with planted void and broken entries.

One client runs a closed loop: passes over the workload's inputs, at
least three, until ``--seconds`` of timed work have passed. On
``analyze-kconfig`` a pass covers one model of each size, and the passes
take the pool's five copies in turn. Metrics are medians over passes and
samples. Output checks run between
passes, outside the timed region. With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of traced passes, and the spans are written under
``.perfbench_out/``. All files live under the current directory, which
must be the repository root; fmnet is imported from its ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
try:
    import fmnet
    import fmnet.corpus
except ImportError as error:
    sys.exit(f"perfbench: cannot import fmnet from {ROOT / 'src'}: {error}")
if Path(fmnet.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"perfbench: fmnet was imported from {fmnet.__file__}, not from {ROOT / 'src'}")

import gen  # noqa: E402  (needs fmnet on the path)
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
JOBS = 2
ARTIFACTS = ("graphs.json", "summary.json", "nodes.csv", "histograms.csv")
VALIDATE_SAMPLE = 8     # nodes sampled when checking a seed without references
# Set-ups per end-to-end run, each followed by its warm-up: about 2 s in all on
# analyze-kconfig, 5 s on corpus-tiny and 11 s on validate-kconfig.
SETUP_REPEATS = {"analyze-kconfig": 7, "validate-kconfig": 3, "corpus-tiny": 3}
# validate-kconfig runs on the pool's smallest, middle and largest slots:
# exhaustive validation of all five takes two to three times as long per
# pass, too long for three passes plus three set-ups in one run.
VALIDATE_POOL = (60, 100, 140)
MIN_PASSES = 3          # so that the median pass is one that most passes agree with
SERIAL_PASSES = 3       # corpus-tiny: serial passes per run, at even shares of --seconds

END_TO_END_UNITS = {
    "setup_s": "s", "models_per_s": "1/s", "model_p50_s": "s",
    "largest_model_s": "s", "peak_rss_mb": "MB",
}


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text("utf-8")) if REFERENCE.is_file() else {}


def _graph_key(graphs):
    c = graphs.classification
    return (c.num_vars, c.core, c.dead, graphs.nodes, graphs.dep_arcs, graphs.conflict_edges)


def structural_problems(graphs, summary: dict, node_rows: int) -> list[str]:
    """Invariants every correct artifact holds, whatever the model."""
    problems = []
    try:
        graphs.classification.check_partition()
    except ValueError as error:
        problems.append(str(error))
    nodes = graphs.nodes
    deps: dict[int, set[int]] = {v: set() for v in nodes}
    for a, b in graphs.dep_arcs:
        if a == b or a not in nodes or b not in nodes:
            problems.append(f"arc {a}->{b} leaves the configurable nodes")
        else:
            deps[a].add(b)
    conflicts: dict[int, set[int]] = {v: set() for v in nodes}
    for a, b in graphs.conflict_edges:
        if not a < b or a not in nodes or b not in nodes:
            problems.append(f"edge {a}--{b} is not a canonical pair of nodes")
        else:
            conflicts[a].add(b)
            conflicts[b].add(a)
    # A backbone is deductively closed: v->g and g->h give v->h, and v->g
    # with g--h gives v--h.
    for v, targets in deps.items():
        for g in targets:
            if not deps.get(g, set()) <= targets | {v}:
                problems.append(f"dependencies of {v} not closed through {g}")
            if not conflicts.get(g, set()) <= conflicts[v]:
                problems.append(f"conflicts of {v} miss those of {g}")
    expected = {
        "num_vars": graphs.classification.num_vars,
        "num_configurable": len(nodes),
        "num_core": len(graphs.classification.core),
        "num_dead": len(graphs.classification.dead),
        "num_arcs": len(graphs.dep_arcs),
        "num_conflict_edges": len(graphs.conflict_edges),
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            problems.append(f"summary.json {key}={summary.get(key)} but graphs say {value}")
    if node_rows != len(nodes):
        problems.append(f"nodes.csv has {node_rows} rows for {len(nodes)} nodes")
    return problems


def expected_validation_counts(graphs) -> dict[str, int]:
    """Check counts of an exhaustive ``validate_model`` pass on a correct artifact."""
    n = len(graphs.nodes)
    return {
        "checked_core": len(graphs.classification.core),
        "checked_dead": len(graphs.classification.dead),
        "checked_nodes": n,
        "checked_arcs": n * (n - 1),
        "checked_edges": n * (n - 1) // 2,
    }


def validation_counts(report) -> dict[str, int]:
    return {key: getattr(report, key) for key in (
        "checked_core", "checked_dead", "checked_nodes", "checked_arcs", "checked_edges")}


# ---- workloads ----
#
# A workload has set_up(work) -> state; warm_up(state, out); passes(state)
# -> the inputs of its passes, which the loop takes in turn; run(inputs,
# out) -> (models attempted, per-model samples [(id, seconds)]), the timed
# region; check(inputs, out) -> ids whose output is wrong, run untimed after
# each pass; and largest(state) -> ids of the pool's largest models.


class AnalyzeKconfig:
    name = "analyze-kconfig"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference.get(self.name, {}).get(str(seed))
        self.verified: dict[str, dict] = {}  # a seed without references: digests checked once

    def set_up(self, work: Path):
        return gen.kconfig_pool(self.seed, work / "models")

    def warm_up(self, rounds, out: Path) -> None:
        fmnet.corpus.analyze_model(rounds[0][0], out_dir=out)

    def passes(self, rounds):
        return rounds

    def run(self, paths, out: Path):
        samples = []
        for path in paths:
            start = time.perf_counter()
            fmnet.corpus.analyze_model(path, out_dir=out)
            samples.append((path.stem, time.perf_counter() - start))
        return len(paths), samples

    def largest(self, rounds) -> set[str]:
        return {paths[-1].stem for paths in rounds}

    def check(self, paths, out: Path) -> set[str]:
        digests = {
            p.stem: {name: file_digest(out / p.stem / name) for name in ARTIFACTS}
            for p in paths if all((out / p.stem / name).is_file() for name in ARTIFACTS)
        }
        bad = {p.stem for p in paths if p.stem not in digests}
        if self.reference is not None:
            return bad | {m for m, d in digests.items() if d != self.reference.get(m)}
        # A seed without references: invariants plus a sampled validation,
        # the first time a model is seen; its digests after that.
        for path in paths:
            if path.stem in bad:
                continue
            if path.stem in self.verified:
                if digests[path.stem] != self.verified[path.stem]:
                    bad.add(path.stem)
                continue
            model_dir = out / path.stem
            graphs = fmnet.graphs_from_json((model_dir / "graphs.json").read_text("utf-8"))
            summary = json.loads((model_dir / "summary.json").read_text("utf-8"))
            rows = len((model_dir / "nodes.csv").read_text("utf-8").splitlines()) - 1
            formula = fmnet.corpus.load_formula(path, "fm")
            report = fmnet.validate_model(formula, graphs, sample_size=VALIDATE_SAMPLE,
                                          seed=self.seed, model_id=path.stem)
            if structural_problems(graphs, summary, rows) or not report.passed:
                bad.add(path.stem)
            else:
                self.verified[path.stem] = digests[path.stem]
        return bad


class ValidateKconfig:
    name = "validate-kconfig"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference.get(self.name, {}).get(str(seed), {})
        self.reports: dict = {}

    def set_up(self, work: Path):
        pool = []
        for path in gen.kconfig_pool(self.seed, work / "models", VALIDATE_POOL, copies="a")[0]:
            formula = fmnet.corpus.load_formula(path, "fm")
            pool.append((path.stem, formula, fmnet.compute_strong_graphs(formula)))
        return pool

    def warm_up(self, pool, out: Path) -> None:
        pass  # set-up has already run every layer that validation uses

    def passes(self, pool):
        return [pool]

    def run(self, pool, out: Path):
        samples = []
        for model_id, formula, graphs in pool:
            start = time.perf_counter()
            self.reports[model_id] = fmnet.validate_model(formula, graphs)
            samples.append((model_id, time.perf_counter() - start))
        return len(pool), samples

    def largest(self, pool) -> set[str]:
        return {pool[-1][0]}

    def check(self, pool, out: Path) -> set[str]:
        bad = set()
        for model_id, _, graphs in pool:
            report = self.reports.pop(model_id, None)
            if report is None or not report.passed:
                bad.add(model_id)
                continue
            counts = validation_counts(report)
            expected = expected_validation_counts(graphs)
            if counts != expected or counts != self.reference.get(model_id, expected):
                bad.add(model_id)
        return bad


class CorpusTiny:
    name = "corpus-tiny"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.first: str | None = None
        self.failures: dict[str, str] = {}

    def set_up(self, work: Path):
        return gen.tiny_corpus(self.seed, work / "corpus")

    def warm_up(self, corpus, out: Path) -> None:
        self.run(corpus, out)

    def passes(self, corpus):
        return [corpus]

    def run(self, corpus, out: Path):
        result = fmnet.corpus.analyze_corpus(
            fmnet.corpus.load_manifest(corpus.manifest), jobs=JOBS, out_dir=out)
        self.failures = {f.model_id: f.error for f in result.failures}
        # Pool workers report no per-model times; serial_pass measures those.
        return len(result.records) + len(result.failures), []

    def serial_pass(self, corpus, out: Path):
        """Per-entry wall times of ``analyze_model``, the call each pool
        worker makes per entry, one entry after another in this process."""
        samples = []
        for entry in fmnet.corpus.load_manifest(corpus.manifest).entries:
            start = time.perf_counter()
            try:
                fmnet.corpus.analyze_model(entry.path, entry.fmt, out_dir=out,
                                           model_id=entry.model_id)
            except fmnet.FmnetError:
                pass  # the planted failures; check() verifies them on pool passes
            samples.append((entry.model_id, time.perf_counter() - start))
        return samples

    def largest(self, corpus) -> set[str]:
        return set(corpus.largest)

    def check(self, corpus, out: Path) -> set[str]:
        entries = fmnet.corpus.load_manifest(corpus.manifest).entries
        bad = {m for m in self.failures if m not in corpus.planted}
        for model_id, kind in corpus.planted.items():
            error = self.failures.get(model_id)
            if error is None or (kind == "void") != ("unsatisfiable" in error):
                bad.add(model_id)
        digest = _tree_digest(out)
        if self.first is not None:
            return bad if digest == self.first else {e.model_id for e in entries}
        for entry in entries:
            if entry.model_id in corpus.planted:
                continue
            graphs_path = out / entry.model_id / "graphs.json"
            if not graphs_path.is_file():
                bad.add(entry.model_id)
                continue
            formula = fmnet.corpus.load_formula(entry.path, entry.fmt)
            classification, relations = fmnet.oracle_strong_relations(formula)
            oracle = fmnet.build_strong_graphs(classification, relations)
            graphs = fmnet.graphs_from_json(graphs_path.read_text("utf-8"))
            if _graph_key(graphs) != _graph_key(oracle):
                bad.add(entry.model_id)
        rows = len((out / "corpus.csv").read_text("utf-8").splitlines()) - 1
        if rows != len(entries) - len(corpus.planted):
            bad |= {e.model_id for e in entries}
        if not bad:
            self.first = digest
        return bad


WORKLOADS = {w.name: w for w in (AnalyzeKconfig, ValidateKconfig, CorpusTiny)}


# ---- the measurement loop ----


class Session:
    """Fresh directories under one work directory, and the pass tally."""

    def __init__(self, work: Path, workload):
        self.work = work
        self.workload = workload
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def fresh(self, label: str) -> Path:
        self.count += 1
        path = self.work / f"{label}-{self.count}"
        path.mkdir(parents=True)
        return path

    def set_up(self):
        """Set up once, with the warm-up pass, which is where first-call
        work lands. Return the state, its directory and the time taken."""
        work, out = self.fresh("setup"), self.fresh("warm")
        start = time.perf_counter()
        state = self.workload.set_up(work)
        self.workload.warm_up(state, out)
        elapsed = time.perf_counter() - start
        shutil.rmtree(out)
        return state, work, elapsed

    def timed_pass(self, state, tracer=None, targets=()):
        """One pass, traced if a tracer is given; checked outside the timing."""
        out = self.fresh("pass")
        with tracer.installed(targets) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            attempted, samples = self.workload.run(state, out)
            wall = time.perf_counter() - start
        self.attempted += attempted
        self.failed += len(self.workload.check(state, out))
        shutil.rmtree(out)
        return wall, samples

    def serial_pass(self, state, tracer=None):
        out = self.fresh("serial")
        with tracer.installed(tracing.PER_MODEL) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            samples = self.workload.serial_pass(state, out)
            wall = time.perf_counter() - start
        shutil.rmtree(out)
        return wall, samples


def _peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        # RUSAGE_CHILDREN reports the largest single worker, once joined.
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(session: Session, seconds: float) -> tuple[dict, list[str]]:
    workload = session.workload
    state, _, setup_time = session.set_up()
    setup_times = [setup_time]
    setups = SETUP_REPEATS[workload.name]
    walls, samples = [], defaultdict(list)
    serial = isinstance(workload, CorpusTiny)
    serial_passes = 0
    inputs = workload.passes(state)
    # At least one pass over each input, so that every model gets a sample.
    while len(walls) < max(MIN_PASSES, len(inputs)) or sum(walls) < seconds:
        wall, pass_samples = session.timed_pass(inputs[len(walls) % len(inputs)])
        walls.append(wall)
        # The other set-ups are spread over the run like the passes, so that
        # setup_s sees the same phases of the host's speed as the timed work.
        while len(setup_times) < setups and sum(walls) >= len(setup_times) * seconds / setups:
            _, work, setup_time = session.set_up()
            setup_times.append(setup_time)
            shutil.rmtree(work)
        # Pool workers report no per-model times, so corpus-tiny takes them
        # from serial passes, spread over the run like the pool passes are.
        due = serial_passes * seconds / SERIAL_PASSES
        if serial and serial_passes < SERIAL_PASSES and sum(walls) >= due:
            serial_passes += 1
            pass_samples = session.serial_pass(state)[1]
        for model_id, t in pass_samples:
            samples[model_id].append(t)
    notes = [f"{len(walls)} timed passes, {sum(walls):.2f} s timed"]
    if serial:
        notes.append("per-model times from serial passes of analyze_model over the "
                     "manifest, each after a pool pass")
    # Medians, not totals: the host's speed changes in phases of seconds to
    # about a minute, and a median ignores a minority of slow samples.
    per_model = {model_id: statistics.median(ts) for model_id, ts in samples.items()}
    largest_ids = workload.largest(state)
    largest = [t for model_id, t in per_model.items() if model_id in largest_ids]
    if serial:
        pass_models, pass_wall = session.attempted / len(walls), statistics.median(walls)
        notes.append("models_per_s: models per pool pass over the median pass's wall time")
    else:
        # The passes cover different models, so the pass that counts is one
        # over the whole pool, each model at its median time.
        pass_models, pass_wall = len(per_model), sum(per_model.values())
        notes.append("models_per_s: pool size over the sum of the models' median times")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "models_per_s": (1 - session.failed / session.attempted) * pass_models / pass_wall,
        "model_p50_s": statistics.median(per_model.values()),
        "largest_model_s": statistics.median(largest),
        "peak_rss_mb": _peak_rss_mb(isinstance(workload, CorpusTiny)),
    }
    notes += [
        f"setup_s: median of {len(setup_times)} set-ups spread over the run, each with its warm-up",
        f"model_p50_s: median over {len(per_model)} models of each one's median "
        f"of {min(map(len, samples.values()))}+ samples",
        f"largest_model_s: median over {len(largest)} largest models ({sorted(largest_ids)[0]}, ...)",
        f"failed_frac: {session.failed}/{session.attempted} = "
        f"{session.failed / session.attempted:g} fraction",
    ]
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, notes


def per_layer(session: Session, seconds: float, seed: int) -> tuple[dict, list[str]]:
    """Alternate untraced passes and traced cycles; report traced figures per cycle."""
    workload = session.workload
    corpus = isinstance(workload, CorpusTiny)
    state = session.set_up()[0]
    tracer = tracing.Tracer()
    inputs = workload.passes(state)
    targets = tracing.PARENT if corpus else tracing.PER_MODEL
    plain, traced, traced_first = [], [], []
    # A traced cycle is one pass over each pass input, so per-cycle counts
    # repeat exactly. The overhead compares passes over the first input.
    while not traced or sum(plain) + sum(traced) < seconds:
        plain.append(session.timed_pass(inputs[0])[0])
        walls = [session.timed_pass(i, tracer, targets)[0] for i in inputs]
        traced_first.append(walls[0])
        traced.append(sum(walls))
    metrics = {name: value / len(traced)
               for name, value in tracing.layer_metrics(tracer.spans).items()}
    overhead = statistics.median(traced_first) / statistics.median(plain)
    pool_efficiency = 0.0
    tracers = {"": tracer}
    traced_wall = statistics.mean(traced)
    notes = [f"{len(traced)} traced cycles of {len(inputs)} passes, and {len(plain)} "
             "untraced passes over the first input"]
    if corpus:
        # Wrappers in this process cannot see into pool workers, so the
        # per-model layers come from a traced serial pass over the manifest.
        serial_wall, serial_samples = session.serial_pass(state)
        tracers["-serial"] = serial_tracer = tracing.Tracer()
        traced_serial_wall, _ = session.serial_pass(state, serial_tracer)
        parent = metrics
        metrics = tracing.layer_metrics(serial_tracer.spans)
        for name in ("corpus.tables_s", "corpus.failures",
                     "stats.summarize_s", "stats.wilcoxon_s"):
            metrics[name] = parent[name]
        overhead = traced_serial_wall / serial_wall
        traced_wall = traced_serial_wall
        pool_efficiency = (sum(t for _, t in serial_samples)
                           / (JOBS * statistics.median(plain)))
        notes.append("per-model layers from one traced serial pass; corpus tables "
                     "and stats from the pool passes; overhead measured on the serial pass")
    notes.append(f"strong_graphs.extract_s is {metrics['strong_graphs.extract_s'] / traced_wall:.1%}"
                 " of the traced wall time per cycle")
    if isinstance(workload, AnalyzeKconfig):
        # validate-kconfig is not a benchmark workload, so the oracle layer
        # is measured here: one traced pass of its operation on the same seed.
        validation = Session(session.work / "validate", ValidateKconfig(seed, _load_reference()))
        tracers["-validate"] = validation_tracer = tracing.Tracer()
        validation.timed_pass(validation.set_up()[0], validation_tracer, tracing.PER_MODEL)
        session.attempted += validation.attempted
        session.failed += validation.failed
        oracle = tracing.layer_metrics(validation_tracer.spans)
        metrics.update((name, value) for name, value in oracle.items() if name.startswith("oracle."))
        notes.append("oracle.* from one traced validate-kconfig pass over the same seed")
    metrics["corpus.pool_efficiency"] = pool_efficiency
    metrics["trace.overhead_ratio"] = overhead
    for suffix, t in tracers.items():
        path = OUT / f"trace-{workload.name}-seed{seed}{suffix}.jsonl"
        t.write(path)
        notes.append(f"{len(t.spans)} spans written to {path.relative_to(ROOT)}")
        notes.append(f"self time by span{suffix or ''} (calls, total s, self s):")
        notes += [f"  {name:40s} {calls:8d} {tot:10.4f} {own:10.4f}"
                  for name, (calls, tot, own) in t.self_times().items()]
    return {name: (value, _unit(name)) for name, value in metrics.items()}, notes


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_efficiency")):
        return "fraction"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_per_feature"):
        return "solves/feature"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, _load_reference())
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(work, workload)
    try:
        if args.trace:
            metrics, notes = per_layer(session, args.seconds, args.seed)
        else:
            metrics, notes = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
