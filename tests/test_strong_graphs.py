import random

import pytest

from conftest import random_cnf, random_satisfiable_cnf, tt_strong_relations, truth_table_mask
import fmnet.strong_graphs as strong_graphs
from fmnet.cnf import CnfFormula
from fmnet.errors import VoidModelError
from fmnet.sat import SatEngine, Status
from fmnet.strong_graphs import (
    FeatureClassification,
    StrongRelations,
    build_strong_graphs,
    compute_backbone,
    compute_strong_graphs,
    extract_strong_relations,
)


class TestFeatureClassification:
    def test_check_partition_accepts_partition(self):
        FeatureClassification(
            num_vars=3, core=frozenset({1}), dead=frozenset(), configurable=frozenset({2, 3})
        ).check_partition()

    def test_check_partition_rejects_gap(self):
        bad = FeatureClassification(
            num_vars=3, core=frozenset({1}), dead=frozenset(), configurable=frozenset({2})
        )
        with pytest.raises(ValueError, match="partition"):
            bad.check_partition()

    def test_check_partition_rejects_overlap(self):
        bad = FeatureClassification(
            num_vars=2, core=frozenset({1, 2}), dead=frozenset(), configurable=frozenset({2})
        )
        with pytest.raises(ValueError, match="partition"):
            bad.check_partition()


class TestExtraction:
    def test_void_model_raises(self):
        formula = CnfFormula(num_vars=1, clauses=((1,), (-1,)))
        with pytest.raises(VoidModelError):
            extract_strong_relations(formula)

    def test_empty_clause_raises(self):
        formula = CnfFormula(num_vars=1, clauses=((),))
        with pytest.raises(VoidModelError, match="empty clause"):
            extract_strong_relations(formula)

    def test_known_chain(self):
        # 1 core; selecting 3 forces 2; 4 excludes 2 and therefore 3.
        formula = CnfFormula(
            num_vars=4, clauses=((1,), (-3, 2), (-4, -2), (2, 4))
        )
        classification, relations = extract_strong_relations(formula)
        assert classification.core == frozenset({1})
        assert classification.dead == frozenset()
        assert relations[3].depends_on == frozenset({2})
        assert relations[3].conflicts_with == frozenset({4})
        assert relations[4].conflicts_with == frozenset({2, 3})
        # Dependency on a core feature is not recorded: it is trivial.
        assert all(1 not in r.depends_on for r in relations.values())

    def test_matches_truth_table_relations(self):
        rng = random.Random(404)
        for _ in range(120):
            formula = random_satisfiable_cnf(rng, rng.randint(2, 12), rng.uniform(1.5, 3.5))
            classification, relations = extract_strong_relations(formula)
            classification.check_partition()
            tt_classification, tt_relations = tt_strong_relations(formula)
            assert classification == tt_classification
            assert relations == tt_relations


def pair_queries(solve_log):
    """The two-literal queries in ``solve_log``, with their answers."""
    return [(assumptions, outcome.status) for assumptions, _, outcome in solve_log
            if len(assumptions) == 2]


class TestExtractionRoutes:
    def test_arc_settled_by_a_query(self, solve_log):
        # v => a | b, a => g, b => g: v forces g, but only through a case
        # split that unit propagation from v alone does not make.
        v, a, b, g = 1, 2, 3, 4
        formula = CnfFormula(num_vars=4, clauses=((-v, a, b), (-a, g), (-b, g)))
        implied_true, _ = SatEngine(formula).implied_literals((v,))
        assert not implied_true >> g & 1
        _, relations = extract_strong_relations(formula)
        assert relations[v].depends_on == frozenset({g})
        assert ((v, -g), Status.UNSAT) in pair_queries(solve_log)

    def test_conflict_settled_by_a_query(self, solve_log):
        # v => a | b, a => !g, b => !g: v excludes g through a case split.
        v, a, b, g = 1, 2, 3, 4
        formula = CnfFormula(num_vars=4, clauses=((-v, a, b), (-a, -g), (-b, -g)))
        _, implied_false = SatEngine(formula).implied_literals((v,))
        assert not implied_false >> g & 1
        _, relations = extract_strong_relations(formula)
        assert relations[v].conflicts_with == frozenset({g})
        assert relations[g].conflicts_with == frozenset({v, a, b})
        assert ((v, g), Status.UNSAT) in pair_queries(solve_log)

    def test_propagated_relations_need_no_query(self, solve_log):
        # 3 => 2 => 1 and 3 => !4: binary clauses, so every relation that
        # holds follows from unit propagation and every query is a refutation.
        formula = CnfFormula(num_vars=4, clauses=((-2, 1), (-3, 2), (-3, -4)))
        graphs = compute_strong_graphs(formula)
        assert graphs.dep_arcs == frozenset({(2, 1), (3, 1), (3, 2)})
        assert graphs.conflict_edges == frozenset({(3, 4)})
        pairs = pair_queries(solve_log)
        assert pairs
        assert all(status is Status.SAT for _, status in pairs)

    def test_witnesses_prune_across_features(self, solve_log):
        # n free features: all 2n(n-1) candidate relations are refuted, by
        # a number of queries that grows linearly, not with the pairs.
        n = 20
        _, relations = extract_strong_relations(CnfFormula(num_vars=n, clauses=()))
        assert all(rel == StrongRelations(frozenset(), frozenset()) for rel in relations.values())
        assert len(pair_queries(solve_log)) <= 2 * n

    def test_backbone_models_refute_without_a_query(self, monkeypatch, solve_log):
        # The backbone's models are witnesses too: no pair query asks about
        # a candidate one of them refutes, and some candidate is refuted
        # by them alone.
        found = []

        def recording(engine):
            backbone = compute_backbone(engine)
            found.extend(backbone.models)
            return backbone

        monkeypatch.setattr(strong_graphs, "compute_backbone", recording)
        n = 8
        _, relations = extract_strong_relations(CnfFormula(num_vars=n, clauses=()))
        assert all(rel == StrongRelations(frozenset(), frozenset()) for rel in relations.values())

        def refuted(v, g, conflict):
            return any(mask >> v & 1 and (mask >> g & 1) == conflict for mask in found)

        queried = {(v, abs(g), g > 0) for (v, g), _ in pair_queries(solve_log)}
        assert all(not refuted(*query) for query in queried)
        assert any(
            refuted(v, g, conflict)
            for v in range(1, n + 1)
            for g in range(1, n + 1)
            for conflict in (False, True)
            if v != g
        )

    def test_soft_literals_keep_what_a_walk_can_add(self, solve_log):
        # 6 is core, so propagation settles it without a query. The first
        # model sets every other variable false, and the next query assumes
        # the highest candidate for false, 7, with 1, 2, 3, 4, 5 and 7 as
        # the mask of soft literals wanted true. The walk keeps 1 and 2; 3
        # would make one of the four clauses over 4 and 5 false with every
        # literal fixed, so it is dropped; 4 and 5 are kept. The answer is
        # SAT, refutes all but 3, and a last query settles 3.
        excluded = tuple((-1, -2, -3, y, z) for y in (4, -4) for z in (5, -5))
        formula = CnfFormula(num_vars=7, clauses=excluded + ((6,), (-7, 1)))
        backbone = compute_backbone(SatEngine(formula))
        made = [(assumptions, soft, outcome.status, outcome.model)
                for assumptions, soft, outcome in solve_log]
        kept = sum(1 << v for v in (1, 2, 4, 5, 6, 7))
        assert made[0] == ((), (0, 0), Status.SAT, 1 << 6)
        wanted = sum(1 << v for v in (1, 2, 3, 4, 5, 7))
        assert made[1] == ((7,), (wanted, 0), Status.SAT, kept)
        assert [(query, soft) for query, soft, _, _ in made[2:]] == [((3,), (1 << 3, 0))]
        assert backbone.literals == frozenset({6})
        classification, relations = extract_strong_relations(formula)
        assert (classification, relations) == tt_strong_relations(formula)
        assert relations[7].depends_on == frozenset({1})

    def test_a_query_refutes_both_kinds_at_once(self, monkeypatch, solve_log):
        # 1 is core and 2 | 3 holds; 4..11 are free. The first model sets
        # one of 2 and 3 true, so the backbone has candidates for true and
        # for false beyond 1, and one query carries both kinds as soft
        # literals. No call of _forced makes more solves than it has
        # candidates.
        calls = []
        forced = strong_graphs._forced

        def counting(engine, assumptions, true_open, false_open, witness):
            before = len(solve_log)
            result = forced(engine, assumptions, true_open, false_open, witness)
            calls.append(((true_open | false_open).bit_count(), len(solve_log) - before))
            return result

        monkeypatch.setattr(strong_graphs, "_forced", counting)
        formula = CnfFormula(num_vars=11, clauses=((1,), (2, 3)))
        classification, relations = extract_strong_relations(formula)
        assert any(true_mask and false_mask for _, (true_mask, false_mask), _ in solve_log)
        assert (classification, relations) == tt_strong_relations(formula)
        assert calls and all(solves <= candidates for candidates, solves in calls)

    @pytest.mark.parametrize("num_vars", [1, 6, 30])
    def test_one_engine_whatever_the_feature_count(self, monkeypatch, num_vars):
        # The base backbone and every pair of the model share one engine.
        built = []
        init = SatEngine.__init__

        def counting(self, formula):
            built.append(formula)
            init(self, formula)

        monkeypatch.setattr(SatEngine, "__init__", counting)
        # Every feature requires 1, and features 2k and 2k+1 exclude each
        # other: every feature is configurable.
        requires = tuple((-v, 1) for v in range(2, num_vars + 1))
        excludes = tuple((-v, -(v + 1)) for v in range(2, num_vars, 2))
        formula = CnfFormula(num_vars=num_vars, clauses=requires + excludes)
        classification, _ = extract_strong_relations(formula)
        assert len(classification.configurable) == num_vars
        assert len(built) == 1


class TestBuildStrongGraphs:
    def test_nodes_are_configurable(self):
        classification = FeatureClassification(
            num_vars=3, core=frozenset({1}), dead=frozenset(), configurable=frozenset({2, 3})
        )
        relations = {
            2: StrongRelations(frozenset(), frozenset({3})),
            3: StrongRelations(frozenset(), frozenset({2})),
        }
        graphs = build_strong_graphs(classification, relations)
        assert graphs.nodes == frozenset({2, 3})
        assert graphs.dep_arcs == frozenset()
        assert graphs.conflict_edges == frozenset({(2, 3)})

    def test_conflict_edges_canonical_and_deduplicated(self):
        rng = random.Random(606)
        for _ in range(60):
            formula = random_satisfiable_cnf(rng, rng.randint(2, 10), rng.uniform(1.5, 3.5))
            graphs = compute_strong_graphs(formula)
            for a, b in graphs.conflict_edges:
                assert a < b
                assert (b, a) not in graphs.conflict_edges
                assert a in graphs.nodes and b in graphs.nodes
            for source, target in graphs.dep_arcs:
                assert source != target
                assert source in graphs.nodes and target in graphs.nodes

    def test_arcs_transitively_closed(self):
        rng = random.Random(909)
        for _ in range(60):
            formula = random_satisfiable_cnf(rng, rng.randint(2, 10), rng.uniform(1.5, 3.5))
            graphs = compute_strong_graphs(formula)
            arcs = set(graphs.dep_arcs)
            for a, b in list(arcs):
                for c, d in list(arcs):
                    if b == c and a != d:
                        assert (a, d) in arcs

    def test_name_of_falls_back(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2),), names={1: "LEFT"})
        graphs = compute_strong_graphs(formula)
        assert graphs.name_of(1) == "LEFT"
        assert graphs.name_of(2) == "v2"


class TestComputeStrongGraphs:
    def test_fixture_pipeline(self, coreboot_formula, coreboot_index):
        graphs = compute_strong_graphs(coreboot_formula)
        name = {v: k for k, v in coreboot_index.items()}
        core_names = {name[v] for v in graphs.classification.core}
        assert core_names == {"GRAPHICS", "GFX_INITIALIZATION", "FRAMEBUFFER_MODE"}
        assert graphs.classification.dead == frozenset()
        arcs = {(name[a], name[b]) for a, b in graphs.dep_arcs}
        assert arcs == {
            ("MAINBOARD_DO_NATIVE_VGA_INIT", "MAINBOARD_HAS_NATIVE_VGA_INIT"),
            ("MAINBOARD_USE_LIBGFXINIT", "MAINBOARD_HAS_LIBGFXINIT"),
            ("VGA_ROM_RUN", "PCI"),
            ("NO_GFX_INIT", "HAVE_VBE_LINEAR_FRAMEBUFFER"),
            ("NO_GFX_INIT", "VBE_LINEAR_FRAMEBUFFER"),
            ("VGA_TEXT_FRAMEBUFFER", "HAVE_VGA_TEXT_FRAMEBUFFER"),
            ("VBE_LINEAR_FRAMEBUFFER", "HAVE_VBE_LINEAR_FRAMEBUFFER"),
        }
        assert len(graphs.conflict_edges) == 11

    def test_dead_feature_has_no_relations(self):
        # 3 is dead; it must be classified, not given conflict edges.
        formula = CnfFormula(num_vars=3, clauses=((1, 2), (-3,)))
        graphs = compute_strong_graphs(formula)
        assert 3 in graphs.classification.dead
        assert 3 not in graphs.nodes
        assert all(3 not in pair for pair in graphs.dep_arcs | graphs.conflict_edges)
