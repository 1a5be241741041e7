"""Release gate: one end-to-end check per acceptance criterion.

Each test runs a substantial workload, records a single verdict line
through the ``criterion`` fixture (printed in the terminal summary) and
then asserts. Workloads are seeded, so reruns are reproducible.
"""

from __future__ import annotations

import csv
import math
import random
import time
from collections import Counter

import pytest

from conftest import (
    EXPECTED_DISCREPANCY_KIND,
    MUTATION_KINDS,
    apply_mutation,
    average_ranks_reference,
    exact_wilcoxon_p,
    random_cnf,
    truth_table_mask,
    tt_backbone_literals,
    tt_models,
    tt_strong_relations,
)
from fmnet import cli
from fmnet.cnf import emit_dimacs
from fmnet.fixtures import coreboot_graphics_formula
from fmnet.metrics import compute_model_metrics, compute_node_metrics
from fmnet.oracle import oracle_strong_relations, validate_model
from fmnet.sat import SatEngine
from fmnet.stats import effect_label, spearman_rho, wilcoxon_signed_rank
from fmnet.strong_graphs import (
    compute_backbone,
    compute_strong_graphs,
    extract_strong_relations,
)


def test_criterion_1_reference_model_graph_facts(criterion):
    start = time.perf_counter()
    formula = coreboot_graphics_formula()
    graphs = compute_strong_graphs(formula)
    elapsed = time.perf_counter() - start

    index = {name: var for var, name in formula.names.items()}
    arcs = set(graphs.dep_arcs)
    in_deg = Counter(b for _, b in arcs)
    out_deg = Counter(a for a, _ in arcs)
    problems = []

    def expect(condition, label):
        if not condition:
            problems.append(label)

    expect(
        (index["NO_GFX_INIT"], index["HAVE_VBE_LINEAR_FRAMEBUFFER"]) in arcs,
        "NO_GFX_INIT must strongly require HAVE_VBE_LINEAR_FRAMEBUFFER",
    )
    expect(
        (index["VBE_LINEAR_FRAMEBUFFER"], index["HAVE_VBE_LINEAR_FRAMEBUFFER"])
        in arcs,
        "VBE_LINEAR_FRAMEBUFFER must strongly require HAVE_VBE_LINEAR_FRAMEBUFFER",
    )
    max_in = max(in_deg[v] for v in graphs.nodes)
    top_in = [formula.name_of(v) for v in graphs.nodes if in_deg[v] == max_in]
    expect(
        top_in == ["HAVE_VBE_LINEAR_FRAMEBUFFER"],
        f"unique most-required node, saw {top_in}",
    )
    max_out = max(out_deg[v] for v in graphs.nodes)
    top_out = [formula.name_of(v) for v in graphs.nodes if out_deg[v] == max_out]
    expect(top_out == ["NO_GFX_INIT"], f"unique most-requiring node, saw {top_out}")
    expect(elapsed < 1.0, f"runtime {elapsed:.3f}s, budget 1s")

    criterion(
        1,
        "boot-graphics reference model graph facts",
        not problems,
        "; ".join(problems) if problems else f"{len(arcs)} arcs, {elapsed * 1e3:.0f} ms",
    )
    assert problems == []


def _model_intersection(formula):
    """Backbone by brute force: literals shared by every full assignment."""
    models = tt_models(formula)
    shared = {v if models[0][v] else -v for v in formula.variables()}
    for model in models[1:]:
        shared &= {v if model[v] else -v for v in formula.variables()}
    return frozenset(shared)


def test_criterion_2_extraction_matches_independent_oracles(criterion):
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    checked = 0
    mismatches = []
    while checked < 200:
        num_vars = rng.randint(10, 20)
        formula = random_cnf(rng, num_vars, rng.uniform(2.5, 4.0))
        if not truth_table_mask(formula):
            continue
        checked += 1
        extracted = extract_strong_relations(formula)
        if extracted != oracle_strong_relations(formula):
            mismatches.append(f"relations vs enumeration, instance {checked}")
        if extracted != tt_strong_relations(formula):
            mismatches.append(f"relations vs truth table, instance {checked}")
        backbone = compute_backbone(SatEngine(formula))
        if backbone.literals != tt_backbone_literals(formula):
            mismatches.append(f"backbone vs truth table, instance {checked}")
        if num_vars <= 14 and backbone.literals != _model_intersection(formula):
            mismatches.append(f"backbone vs model intersection, instance {checked}")
        if backbone.sat_calls > 2 * num_vars + 1:
            mismatches.append(f"solve budget blown, instance {checked}")
    elapsed = time.perf_counter() - start

    ok = not mismatches and elapsed < 60.0
    criterion(
        2,
        "extraction and backbone agree with enumeration oracles",
        ok,
        "; ".join(mismatches[:4]) if mismatches else f"200 instances, {elapsed:.1f}s",
    )
    assert mismatches == []
    assert elapsed < 60.0


def test_criterion_3_fault_injection_detection(criterion):
    rng = random.Random(20240815)
    produced = 0
    attempts = 0
    kind_counts = Counter()
    problems = []
    while produced < 50:
        attempts += 1
        assert attempts < 5000, "mutation material should be easy to find"
        num_vars = rng.randint(6, 10)
        formula = random_cnf(rng, num_vars, rng.uniform(1.8, 3.2))
        if not truth_table_mask(formula):
            continue
        graphs = compute_strong_graphs(formula)
        # cycle the kinds so every fault class appears several times
        kind = MUTATION_KINDS[produced % len(MUTATION_KINDS)]
        mutated = apply_mutation(graphs, kind, rng)
        if mutated is None:
            continue
        produced += 1
        kind_counts[kind] += 1
        report = validate_model(
            formula, mutated, sample_size=formula.num_vars + 1, seed=produced
        )
        if len(report.discrepancies) != 1:
            problems.append(
                f"{kind}: {len(report.discrepancies)} discrepancies, wanted 1"
            )
        elif report.discrepancies[0].kind != EXPECTED_DISCREPANCY_KIND[kind]:
            problems.append(
                f"{kind}: flagged as {report.discrepancies[0].kind!r}, "
                f"wanted {EXPECTED_DISCREPANCY_KIND[kind]!r}"
            )

    ok = not problems and set(kind_counts) == set(MUTATION_KINDS)
    criterion(
        3,
        "every injected artifact fault caught exactly once",
        ok,
        "; ".join(problems[:4])
        if problems
        else f"50/50 detected across {len(kind_counts)} fault kinds",
    )
    assert problems == []
    assert set(kind_counts) == set(MUTATION_KINDS)


# Curated signed-rank cases: small n, ties in every pair list, some zero
# differences. Small enough to enumerate exactly.
_WILCOXON_CASES = (
    ([-4, 12, 8, 10, 0], [0, 8, 4, 8, 4]),
    ([4, 13, 7, 3, 4], [0, 9, 9, 6, 8]),
    ([6, 8, 6, 5, 0], [3, 11, 4, 9, -4]),
    ([3, 6, 9, 1, 5], [7, 9, 10, -3, 1]),
    ([2, 12, 7, 9, 3, 2], [3, 8, 4, 5, 7, 6]),
    ([3, 1, 6, 3, 7, 3], [6, -1, 8, 0, 7, 2]),
    ([10, 2, 5, 5, 13, 0, 8], [7, 5, 8, 6, 9, 2, 6]),
    ([2, 6, 6, 5, 3, 4, 7], [5, 6, 9, 1, 4, 6, 3]),
    ([5, 3, 9, 3, 4, 3, 0], [3, 6, 9, 0, 0, 3, 4]),
    ([2, 7, 5, 7, 0, 5, 9], [-1, 4, 6, 7, 0, 8, 11]),
    ([0, 7, 0, 5, 0, 4, 6, 5], [4, 3, 2, 2, 2, 5, 9, 1]),
    ([5, 12, 4, -1, -2, 12, 11, 4], [3, 8, 4, 3, 0, 9, 8, 8]),
    ([8, 8, 7, 3, 4, 8, 1, 0], [9, 9, 3, 3, 0, 8, 3, 3]),
    ([0, 4, 8, 1, 7, 5, 4, 9], [-3, 2, 7, 3, 11, 6, 1, 11]),
    ([9, 3, 5, 11, 6, 4, 8, 5], [6, 1, 7, 9, 3, 2, 7, 1]),
    ([9, 2, 3, 7, 4, 7], [7, 0, 0, 9, 3, 10]),
    ([0, 5, 8, 3, 0, 0, 3, 3], [2, 8, 10, -1, -4, 4, 2, 4]),
    ([6, 3, 9, 8, 2, 1, 4], [8, 6, 12, 7, 5, 5, 2]),
    ([4, 1, 6, 1, 6, 9, 2, 8], [7, 3, 7, -1, 9, 12, 3, 12]),
    ([1, 9, 2, 8, 5, 6, 5], [3, 5, 0, 11, 6, 7, 8]),
)


def _rank_pearson(xs, ys):
    """Rank correlation straight from the definition, plain python."""
    rx = average_ranks_reference(xs)
    ry = average_ranks_reference(ys)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def test_criterion_4_statistics_match_reference_formulas(criterion):
    problems = []
    worst_p_gap = 0.0
    for a, b in _WILCOXON_CASES:
        a = [float(x) for x in a]
        b = [float(x) for x in b]
        exact = exact_wilcoxon_p(a, b)
        approx = wilcoxon_signed_rank(a, b).p_value
        gap = abs(exact - approx)
        worst_p_gap = max(worst_p_gap, gap)
        if gap > 0.01:
            problems.append(f"signed-rank gap {gap:.4f} on {a} vs {b}")

    rng = random.Random(77010)
    checked = 0
    worst_rho_gap = 0.0
    while checked < 100:
        n = rng.randint(6, 24)
        xs = [float(rng.randint(0, 8)) for _ in range(n)]
        ys = [float(rng.randint(0, 8)) for _ in range(n)]
        # force at least one tie in each sample
        xs[1] = xs[0]
        ys[-1] = ys[0]
        rho = spearman_rho(xs, ys)
        if rho is None:
            continue
        checked += 1
        gap = abs(rho - _rank_pearson(xs, ys))
        worst_rho_gap = max(worst_rho_gap, gap)
        if gap > 1e-12:
            problems.append(f"rank correlation gap {gap:.2e} on sample {checked}")

    for r, wanted in ((0.38, "moderate"), (0.04, "negligible"),
                      (-0.67, "large"), (0.87, "large")):
        got = effect_label(r)
        if got != wanted:
            problems.append(f"effect_label({r}) is {got!r}, wanted {wanted!r}")

    ok = not problems
    criterion(
        4,
        "statistics agree with first-principles references",
        ok,
        "; ".join(problems[:4])
        if problems
        else f"p gap {worst_p_gap:.4f} over 20 cases, "
        f"rho gap {worst_rho_gap:.1e} over 100 samples",
    )
    assert problems == []


def _transitive_closure(arcs):
    closed = set(arcs)
    changed = True
    while changed:
        changed = False
        for a, b in tuple(closed):
            for c, d in tuple(closed):
                if b == c and a != d and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return closed


def test_criterion_5_degree_identities_hold(criterion):
    rng = random.Random(31337)
    checked = 0
    problems = []
    while checked < 1000:
        num_vars = rng.randint(6, 12)
        formula = random_cnf(rng, num_vars, rng.uniform(1.5, 3.5))
        if not truth_table_mask(formula):
            continue
        checked += 1
        graphs = compute_strong_graphs(formula)
        nodes = compute_node_metrics(graphs)
        metrics = compute_model_metrics(graphs)
        sum_in = sum(node.in_degree for node in nodes)
        sum_out = sum(node.out_degree for node in nodes)
        sum_conflict = sum(node.conflict_degree for node in nodes)
        if not (sum_in == sum_out == metrics.num_arcs == len(graphs.dep_arcs)):
            problems.append(f"arc degree sums broken at model {checked}")
        if sum_conflict != 2 * metrics.num_conflict_edges:
            problems.append(f"conflict degree sum broken at model {checked}")
        if set(graphs.dep_arcs) != _transitive_closure(graphs.dep_arcs):
            problems.append(f"arcs not transitively closed at model {checked}")

    ok = not problems
    criterion(
        5,
        "degree identities over 1000 random models",
        ok,
        "; ".join(problems[:4]) if problems else "sums and closure exact",
    )
    assert problems == []


def _synthetic_fm(rng, tag):
    lines = [f"feature {tag}_ROOT"]
    optionals = []
    for j in range(rng.randint(3, 6)):
        child = f"{tag}_C{j}"
        if rng.random() < 0.6:
            lines.append(f"    optional {child}")
            optionals.append(child)
        else:
            lines.append(f"    mandatory {child}")
        for g in range(rng.randint(0, 2)):
            sub = f"{child}_S{g}"
            if rng.random() < 0.5:
                lines.append(f"        optional {sub}")
                optionals.append(sub)
            else:
                lines.append(f"        mandatory {sub}")
    if rng.random() < 0.5:
        members = " ".join(f"{tag}_G{j}" for j in range(rng.randint(2, 3)))
        group = "alternative" if rng.random() < 0.5 else "or"
        lines.append(f"    {group} {{ {members} }}")
    for _ in range(rng.randint(1, 3)):
        if len(optionals) < 2:
            break
        a, b = rng.sample(optionals, 2)
        body = rng.choice((f"{a} => {b}", f"{a} => !{b}", f"!{a} | {b}"))
        lines.append(f"    constraint {body}")
    return "\n".join(lines) + "\n"


def _write_synthetic_corpus(root, count=50):
    """A mixed manifest: mostly healthy models plus void and broken ones."""
    rng = random.Random(0xFEED)
    models_dir = root / "models"
    models_dir.mkdir()
    dimacs_ids = {3, 11, 19, 27, 35, 43}
    void_ids = {17, 31}
    broken_ids = {23, 41}
    domains = ("kernel", "boot", "multimedia")
    rows = []
    for idx in range(count):
        tag = f"M{idx:02d}"
        if idx in dimacs_ids:
            while True:
                num_vars = rng.randint(6, 9)
                formula = random_cnf(rng, num_vars, 2.0)
                if truth_table_mask(formula):
                    break
            names = {v: f"{tag}_V{v}" for v in formula.variables()}
            formula = type(formula)(
                num_vars=formula.num_vars, clauses=formula.clauses, names=names
            )
            name = f"{tag.lower()}.cnf"
            (models_dir / name).write_text(emit_dimacs(formula), "utf-8")
            fmt = "dimacs"
        else:
            if idx in void_ids:
                text = (
                    f"feature {tag}_ROOT\n"
                    f"    mandatory {tag}_A\n"
                    f"    constraint {tag}_A => !{tag}_ROOT\n"
                )
            elif idx in broken_ids:
                text = f"feature {tag}_ROOT\n\tmandatory {tag}_A\n"
            else:
                text = _synthetic_fm(rng, tag)
            name = f"{tag.lower()}.fm"
            (models_dir / name).write_text(text, "utf-8")
            fmt = "fm"
        rows.append((tag.lower(), f"models/{name}", fmt, domains[idx % 3]))

    manifest = root / "manifest.csv"
    with manifest.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "path", "format", "domain"])
        writer.writerows(rows)
    return manifest


def _tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_6_corpus_run_is_deterministic(criterion, tmp_path):
    manifest = _write_synthetic_corpus(tmp_path)
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    code_serial = cli.main(
        ["corpus", str(manifest), "--out", str(out_serial), "--jobs", "1"]
    )
    code_parallel = cli.main(
        ["corpus", str(manifest), "--out", str(out_parallel), "--jobs", "8"]
    )
    serial = _tree_bytes(out_serial)
    parallel = _tree_bytes(out_parallel)

    same = serial == parallel
    differing = sorted(
        set(serial) ^ set(parallel)
        | {name for name in set(serial) & set(parallel)
           if serial[name] != parallel[name]}
    )
    ok = (
        code_serial == cli.EXIT_OK
        and code_parallel == cli.EXIT_OK
        and same
        and len(serial) > 50
    )
    criterion(
        6,
        "corpus outputs identical for 1 and 8 workers",
        ok,
        f"first diffs {differing[:3]}" if differing
        else f"{len(serial)} files byte-identical",
    )
    assert code_serial == cli.EXIT_OK
    assert code_parallel == cli.EXIT_OK
    assert differing == []
    assert len(serial) > 50


def test_criterion_7_kernel_scale_corpus(request):
    lines = request.config.__dict__.setdefault("_acceptance_lines", [])
    lines.append(
        "criterion 7 SKIP: kernel-scale corpus check "
        "(source dataset not bundled; no network in this environment)"
    )
    pytest.skip("kernel-scale source dataset is not available offline")
