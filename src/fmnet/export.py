"""Serialization of strong graphs to DOT, GraphML and JSON.

All three forms carry the same information: nodes labeled with feature
names, directed dependency arcs tagged ``requires``, and one element per
conflict pair tagged ``excludes``. Element order is deterministic (sorted
by feature index) so exports diff cleanly. The JSON form also includes the
core/dead classification and round-trips through ``graphs_from_json``,
which holds its names to the DIMACS name rule of ``fmnet.cnf``.

DOT renders conflict pairs with ``dir=none`` so they draw as undirected;
GraphML keeps everything in one directed graph and relies on the
``relation`` attribute, because common readers refuse mixed graphs.
"""

from __future__ import annotations

import functools
import json

from .cnf import name_fault
from .errors import InputSyntaxError
from .strong_graphs import FeatureClassification, StrongGraphs


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its import of the network stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quote_dot(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(graphs: StrongGraphs) -> str:
    quoted = functools.cache(lambda v: _quote_dot(graphs.name_of(v)))
    lines = ["digraph strong_graphs {"]
    for v in sorted(graphs.nodes):
        lines.append(f"    {quoted(v)} [index={v}];")
    for source, target in sorted(graphs.dep_arcs):
        lines.append(f"    {quoted(source)} -> {quoted(target)} [relation=requires];")
    for a, b in sorted(graphs.conflict_edges):
        lines.append(f"    {quoted(a)} -> {quoted(b)} [dir=none, relation=excludes];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_graphml(graphs: StrongGraphs) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"',
        '         xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"',
        '         xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
        ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
        '  <key id="relation" for="edge" attr.name="relation" attr.type="string"/>',
        '  <graph id="strong_graphs" edgedefault="directed">',
    ]
    for v in sorted(graphs.nodes):
        lines.append(
            f'    <node id="n{v}"><data key="label">'
            f"{_escape(graphs.name_of(v))}</data></node>"
        )
    for source, target in sorted(graphs.dep_arcs):
        lines.append(
            f'    <edge source="n{source}" target="n{target}">'
            '<data key="relation">requires</data></edge>'
        )
    for a, b in sorted(graphs.conflict_edges):
        lines.append(
            f'    <edge source="n{a}" target="n{b}">'
            '<data key="relation">excludes</data></edge>'
        )
    lines.extend(["  </graph>", "</graphml>"])
    return "\n".join(lines) + "\n"


def _to_json(graphs: StrongGraphs) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``, written
    out entry by entry: the encoder that indents is pure Python."""

    def array(entries: list[str]) -> str:
        return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"

    def features(values) -> str:
        return array([
            f'    {{\n      "index": {v},\n      "name": {json.dumps(graphs.name_of(v))}\n    }}'
            for v in sorted(values)
        ])

    def pairs(values) -> str:
        return array([f"    [\n      {a},\n      {b}\n    ]" for a, b in sorted(values)])

    classification = graphs.classification
    return (
        "{\n"
        f'  "arcs": {pairs(graphs.dep_arcs)},\n'
        f'  "conflict_edges": {pairs(graphs.conflict_edges)},\n'
        f'  "core": {features(classification.core)},\n'
        f'  "dead": {features(classification.dead)},\n'
        f'  "nodes": {features(graphs.nodes)},\n'
        f'  "num_vars": {classification.num_vars}\n'
        "}\n"
    )


_RENDERERS = {"dot": _to_dot, "graphml": _to_graphml, "json": _to_json}
FORMATS = tuple(_RENDERERS)


def export_graph(graphs: StrongGraphs, fmt: str) -> str:
    """Render the graphs in one of FORMATS."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {FORMATS}")
    return _RENDERERS[fmt](graphs)


def graphs_from_json(text: str) -> StrongGraphs:
    """Rebuild a StrongGraphs artifact from its JSON export.

    Raises InputSyntaxError for text that is not such an export, including
    one whose names break the DIMACS name rule (``cnf.name_fault``).
    """
    try:
        payload = json.loads(text)
        num_vars = payload["num_vars"]
        if type(num_vars) is not int:
            raise ValueError(f"num_vars {num_vars!r} is not an int")
        names = {}
        groups = {}
        for key in ("nodes", "core", "dead"):
            indices = set()
            for entry in payload[key]:
                index, name = entry["index"], entry["name"]
                # type(), not isinstance(): JSON's true is no index.
                if type(index) is not int or not 1 <= index <= num_vars or type(name) is not str:
                    raise ValueError(f"bad {key} entry {entry!r}")
                indices.add(index)
                names[index] = name
            groups[key] = frozenset(indices)
        if not sum(len(payload[key]) for key in groups) == len(names) == num_vars:
            raise ValueError(f"nodes, core and dead do not partition 1..{num_vars}")
        if fault := name_fault(names, num_vars):
            raise ValueError(fault[1])
        arcs, edges = (
            frozenset((a, b) for a, b in payload[key]) for key in ("arcs", "conflict_edges")
        )
        # type(), not isinstance(): True is in {1}.
        if any(type(end) is not int or end not in groups["nodes"]
               for pair in (*arcs, *edges) for end in pair):
            raise ValueError("an arc or conflict edge has an endpoint that is not a node")
        if any(a == b for a, b in arcs) or any(a >= b for a, b in edges):
            raise ValueError("a self-loop arc, or a conflict edge not written as [low, high]")
        classification = FeatureClassification(
            num_vars=num_vars,
            core=groups["core"],
            dead=groups["dead"],
            configurable=groups["nodes"],
        )
        return StrongGraphs(
            dep_arcs=arcs,
            conflict_edges=edges,
            classification=classification,
            names=names,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise InputSyntaxError(f"not a graphs artifact: {error!r}") from error
