"""The benchmark still finds every fmnet call it makes or wraps.

``perfbench/tracing.py`` records spans by replacing functions where fmnet
looks them up. A rename or a moved function would make it fail at set-up
or, worse, silently record nothing; these tests load it as it stands and
check both. ``perfbench/run.py`` checks each corpus model's graphs
against the enumeration oracle through the public API; the last test
evaluates that expression.
"""

import importlib.util
import pathlib
import random

import pytest

import fmnet
import fmnet.corpus
from conftest import random_satisfiable_cnf
from fmnet.fixtures import coreboot_graphics_text

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists(tracing):
    for owner, attr, name, _ in tracing.PER_MODEL + tracing.PARENT:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_traced_analyze_model(tracing, tmp_path):
    path = tmp_path / "coreboot_graphics.fm"
    path.write_text(coreboot_graphics_text(), "utf-8")
    tracer = tracing.Tracer()
    with tracer.installed(tracing.PER_MODEL):
        fmnet.corpus.analyze_model(path, out_dir=tmp_path / "out")

    def spans(name):
        return [span for span in tracer.spans if span[0] == name]

    assert len(spans("corpus.analyze_model")) == 1
    assert len(spans("sat.SatEngine.__init__")) == 1
    (backbone,) = spans("backbone.compute_backbone")
    assert backbone[4]["sat_calls"] > 0
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["sat.engines_built"] == 1
    assert 0 < metrics["backbone.base_sat_calls"] <= metrics["sat.solves"]
    # Restored afterwards: an untraced call records nothing.
    fmnet.corpus.analyze_model(path)
    assert len(spans("corpus.analyze_model")) == 1


def test_traced_validate_model(tracing, coreboot_formula):
    graphs = fmnet.compute_strong_graphs(coreboot_formula)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.PER_MODEL):
        assert fmnet.validate_model(coreboot_formula, graphs).passed
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["oracle.checked_arcs"] == 132
    assert metrics["oracle.checked_edges"] == 66
    # One solve per check: 3 core + 2 x 12 nodes + 132 arcs + 66 edges.
    assert metrics["oracle.solves"] == 225


def test_oracle_graphs_match_extraction(coreboot_formula):
    # CorpusTiny.check's route to the expected graphs.
    def key(graphs):
        return graphs.classification, graphs.dep_arcs, graphs.conflict_edges

    rng = random.Random(28)
    formulas = [coreboot_formula] + [
        random_satisfiable_cnf(rng, rng.randint(2, 12), rng.uniform(1.5, 3.5)) for _ in range(40)
    ]
    for formula in formulas:
        oracle = fmnet.build_strong_graphs(*fmnet.oracle_strong_relations(formula))
        assert key(oracle) == key(fmnet.compute_strong_graphs(formula))
