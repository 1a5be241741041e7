import io
import json
import random
import xml.etree.ElementTree as ElementTree
from xml.sax import saxutils

import networkx
import pytest

from conftest import random_satisfiable_cnf
from fmnet.cnf import CnfFormula, parse_dimacs
from fmnet.export import _escape, export_graph, graphs_from_json
from fmnet.strong_graphs import FeatureClassification, StrongGraphs, compute_strong_graphs

GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"

# 1 core; 3 requires 2; 4 excludes 2 and 3.
DEMO = CnfFormula(
    num_vars=4,
    clauses=((1,), (-3, 2), (-4, -2), (2, 4)),
    names={1: "ROOT", 2: "BASE", 3: "EXTRA", 4: "SOLO"},
)


@pytest.fixture(scope="module")
def demo_graphs():
    return compute_strong_graphs(DEMO)


def reference_json(graphs):
    """The JSON export built as a payload and encoded by ``json.dumps``."""

    def feature_list(values):
        return [{"index": v, "name": graphs.name_of(v)} for v in sorted(values)]

    payload = {
        "num_vars": graphs.classification.num_vars,
        "nodes": feature_list(graphs.nodes),
        "core": feature_list(graphs.classification.core),
        "dead": feature_list(graphs.classification.dead),
        "arcs": [list(arc) for arc in sorted(graphs.dep_arcs)],
        "conflict_edges": [list(edge) for edge in sorted(graphs.conflict_edges)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_dot(graphs):
    """The DOT export with every name quoted where it is written."""

    def quoted(v):
        return '"' + graphs.name_of(v).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph strong_graphs {"]
    lines += [f"    {quoted(v)} [index={v}];" for v in sorted(graphs.nodes)]
    lines += [f"    {quoted(a)} -> {quoted(b)} [relation=requires];"
              for a, b in sorted(graphs.dep_arcs)]
    lines += [f"    {quoted(a)} -> {quoted(b)} [dir=none, relation=excludes];"
              for a, b in sorted(graphs.conflict_edges)]
    return "\n".join(lines) + "\n}\n"


# 7 is core and 6 dead; 1 requires 2 and 3 excludes 4. The names hold a
# quote, a backslash and characters outside ASCII; 5 has none.
ODD_NAMES = """\
c 1 Q"uote
c 2 back\\slash
c 3 café
c 4 名前
c 6 "\\"
c 7 Ω\\n
p cnf 7 4
7 0
-6 0
-1 2 0
-3 -4 0
"""

EDGE_CASES = {
    "odd names": ODD_NAMES,
    "no variables": "p cnf 0 0\n",
    "no core, dead, arc or edge": "c 1 A\nc 2 B\np cnf 2 1\n1 2 0\n",
    "only core and dead": "c 1 A\np cnf 2 2\n1 0\n-2 0\n",
    "core but no dead": "p cnf 3 2\n1 0\n-2 3 0\n",
    "arcs but no edge": "p cnf 3 2\n-1 2 0\n-2 3 0\n",
    "edges but no arc": "p cnf 3 2\n-1 -2 0\n-2 -3 0\n",
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_exports_match_the_reference_encoders(case):
    graphs = compute_strong_graphs(parse_dimacs(EDGE_CASES[case]))
    text = export_graph(graphs, "json")
    assert text == reference_json(graphs)
    assert export_graph(graphs, "dot") == reference_dot(graphs)
    assert export_graph(graphs_from_json(text), "json") == text


def test_dot_names_endpoints_outside_the_nodes():
    # Graphs built in code may have an arc whose ends are no nodes; the
    # DOT export still names them as the reference does.
    classification = FeatureClassification(
        num_vars=3, core=frozenset({3}), dead=frozenset(), configurable=frozenset({1, 2})
    )
    graphs = StrongGraphs(
        dep_arcs=frozenset({(1, 3), (4, 2)}),
        conflict_edges=frozenset({(2, 5)}),
        classification=classification,
        names={1: 'A"', 3: "C\\"},
    )
    assert export_graph(graphs, "dot") == reference_dot(graphs)
    assert export_graph(graphs, "json") == reference_json(graphs)


class TestDot:
    def test_structure(self, demo_graphs):
        text = export_graph(demo_graphs, "dot")
        assert text.startswith("digraph strong_graphs {")
        assert '"EXTRA" -> "BASE" [relation=requires];' in text
        assert '"BASE" -> "SOLO" [dir=none, relation=excludes];' in text
        assert '"ROOT"' not in text  # core features stay out of the graphs
        assert text.endswith("}\n")

    def test_quoting(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2),), names={1: 'A"B'})
        text = export_graph(compute_strong_graphs(formula), "dot")
        assert '"A\\"B" [index=1];' in text


class TestGraphml:
    def test_well_formed_xml(self, demo_graphs):
        root = ElementTree.fromstring(export_graph(demo_graphs, "graphml"))
        assert root.tag.endswith("graphml")

    def test_networkx_reads_it_back(self, demo_graphs):
        text = export_graph(demo_graphs, "graphml")
        parsed = networkx.read_graphml(io.BytesIO(text.encode()))
        assert isinstance(parsed, networkx.DiGraph)
        labels = {node: data["label"] for node, data in parsed.nodes(data=True)}
        assert set(labels.values()) == {"BASE", "EXTRA", "SOLO"}
        relations = {
            (labels[a], labels[b]): data["relation"]
            for a, b, data in parsed.edges(data=True)
        }
        assert relations[("EXTRA", "BASE")] == "requires"
        assert relations[("BASE", "SOLO")] == "excludes"
        # One element per conflict pair, smaller index as the source.
        assert ("SOLO", "BASE") not in relations

    def test_name_escaping(self):
        formula = CnfFormula(num_vars=2, clauses=((1, 2),), names={1: "A<B&C"})
        text = export_graph(compute_strong_graphs(formula), "graphml")
        assert "A&lt;B&amp;C" in text
        ElementTree.fromstring(text)

    def test_escape_matches_saxutils(self):
        # The package escapes on its own: saxutils imports urllib.request.
        rng = random.Random(2471)
        alphabet = "&<>\"';#abcXYZ é漢€\U0001f600"
        texts = ["", "&amp;", "&&<<>>"] + [
            "".join(rng.choices(alphabet, k=rng.randint(0, 24))) for _ in range(2000)
        ]
        assert [_escape(text) for text in texts] == [saxutils.escape(text) for text in texts]

    def test_every_accepted_name_gives_well_formed_xml(self):
        chars = [chr(i) for i in range(0x20)] + [
            "\x7f", "\x85", "\ud800", "\udfff", "\ufffd", "\ufffe", "\uffff",
            "\U00010000", "\U0010ffff", "é", "&", "<", ">", '"', "'",
        ]
        written = 0
        for char in chars:
            try:
                formula = CnfFormula(num_vars=2, clauses=((1, 2),), names={1: f"A{char}B"})
            except ValueError:
                continue
            root = ElementTree.fromstring(export_graph(compute_strong_graphs(formula), "graphml"))
            labels = [d.text for d in root.iter(GRAPHML + "data") if d.get("key") == "label"]
            assert labels == [f"A{char}B", "v2"]
            written += 1
        assert written == 10


class TestJson:
    def test_payload_shape(self, demo_graphs):
        payload = json.loads(export_graph(demo_graphs, "json"))
        assert payload["num_vars"] == 4
        assert payload["core"] == [{"index": 1, "name": "ROOT"}]
        assert payload["dead"] == []
        assert [n["name"] for n in payload["nodes"]] == ["BASE", "EXTRA", "SOLO"]
        assert [3, 2] in payload["arcs"]
        assert [2, 4] in payload["conflict_edges"]

    def test_roundtrip(self, demo_graphs):
        again = graphs_from_json(export_graph(demo_graphs, "json"))
        assert again == demo_graphs

    def test_roundtrip_random(self):
        rng = random.Random(3210)
        for _ in range(40):
            formula = random_satisfiable_cnf(rng, rng.randint(2, 10), rng.uniform(1.5, 3.5))
            named = CnfFormula(
                num_vars=formula.num_vars,
                clauses=formula.clauses,
                names={v: f"F{v}" for v in formula.variables()},
            )
            graphs = compute_strong_graphs(named)
            text = export_graph(graphs, "json")
            assert text == reference_json(graphs)
            assert export_graph(graphs, "dot") == reference_dot(graphs)
            again = graphs_from_json(text)
            assert again.nodes == graphs.nodes
            assert again.dep_arcs == graphs.dep_arcs
            assert again.conflict_edges == graphs.conflict_edges
            assert again.classification == graphs.classification


class TestFormatDispatch:
    def test_unknown_format(self, demo_graphs):
        with pytest.raises(ValueError, match="unknown export format"):
            export_graph(demo_graphs, "gexf")

    def test_deterministic(self, demo_graphs):
        for fmt in ("dot", "graphml", "json"):
            assert export_graph(demo_graphs, fmt) == export_graph(demo_graphs, fmt)
