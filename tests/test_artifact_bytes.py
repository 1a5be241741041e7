"""The artifact tree's bytes are pinned.

``analyze_model`` writes six files for the bundled fixture and a corpus run
writes three tables for a small fixed manifest; each must hash to the
digest recorded here. The writers may change how they produce these bytes,
never the bytes. A digest changes only with a deliberate format change,
and then every downstream reader has to be told.
"""

import csv
import hashlib
import json

from fmnet.corpus import analyze_corpus, analyze_model, load_manifest
from fmnet.fixtures import coreboot_graphics_text

FIXTURE_DIGESTS = {
    "graphs.dot": "fafdd0cdb12cbfaa2d8b0e21e32cf4c496b5d3a0531190b1419e2c252329e415",
    "graphs.graphml": "821320790504d434aa79df9e109dd51c7b32fdb8a0e1adbbfbfc66de50fb40cb",
    "graphs.json": "e29996c5e0f80e411da4d91ab3869115f7c566423859374d6bba5099b6ac6e1a",
    "histograms.csv": "c4fe85bcba6cbc409fe4c97b94bbc5aba6cbed7926d7f222bfe651b17b4b0ee6",
    "nodes.csv": "4c6713cafb578c6feb48335c087b1804c7893ead48370bc48548d2cda59e22ec",
    "summary.json": "60ccc2f9cf558c5a5c0c2e607b344d5dd9821958df8d4f4260fc33ae07e2bae3",
}

# No configurable feature is forced by another, so no node is high-in and
# both hub overlaps are undefined.
NO_HUB_FM = "feature R\n    optional A\n    optional B\n"

# (id, file name, format, domain, text); the last two fail and stay out of
# the tables.
CORPUS_MODELS = (
    ("left_right", "left_right.fm", "fm", "systems",
     "feature ROOT\n    optional LEFT\n        mandatory CORE_CHILD\n"
     "    optional RIGHT\n    constraint LEFT => !RIGHT\n"),
    ("pair", "pair.cnf", "dimacs", "systems", "c 1 ONE\nc 2 TWO\np cnf 3 2\n1 2 0\n-1 -2 0\n"),
    ("coreboot", "coreboot.fm", "fm", "systems", coreboot_graphics_text()),
    ("ladder", "ladder.cnf", "dimacs", "systems", "p cnf 4 3\n1 2 0\n-2 3 0\n-3 -4 0\n"),
    ("no_hub", "no_hub.fm", "fm", "automotive", NO_HUB_FM),
    ("chain", "chain.fm", "fm", "automotive",
     "feature R\n    optional A\n    optional B\n    optional C\n"
     "    constraint A => B\n    constraint B => C\n"),
    ("void", "void.fm", "fm", "automotive", "feature R\n    constraint !R\n"),
    ("broken", "broken.fm", "fm", "automotive", "optional A\n"),
)

CORPUS_DIGESTS = {
    "corpus.csv": "aae1127573ca3f60fb3fe0a74c2647c9d24ef398ffb0bc74da71fb3d0dfea0c0",
    "domain_stats.csv": "18beb883f8688994fad9b7a1b7f0dbf58d6787169e7cd146e6c1acd80a646bd0",
    "tests.csv": "8a2534962200fa813a2d3619ba9fc28e131378863d571cd7679b887482e5eead",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_corpus(tmp_path):
    rows = ["id,path,format,domain"]
    for model_id, name, fmt, domain, text in CORPUS_MODELS:
        (tmp_path / name).write_text(text, "utf-8")
        rows.append(f"{model_id},{name},{fmt},{domain}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", "utf-8")
    out = tmp_path / "out"
    result = analyze_corpus(load_manifest(manifest), out_dir=out)
    return out, result


def test_fixture_artifacts(tmp_path):
    path = tmp_path / "coreboot_graphics.fm"
    path.write_text(coreboot_graphics_text(), "utf-8")
    analyze_model(path, out_dir=tmp_path / "out")
    model_dir = tmp_path / "out" / "coreboot_graphics"
    assert {p.name: sha256(p) for p in model_dir.iterdir()} == FIXTURE_DIGESTS


def test_corpus_tables(tmp_path):
    out, result = run_corpus(tmp_path)
    assert [f.model_id for f in result.failures] == ["void", "broken"]
    assert {name: sha256(out / name) for name in CORPUS_DIGESTS} == CORPUS_DIGESTS


class TestOverlapRendering:
    def test_zero_share_stays_zero(self, tmp_path):
        # The fixture has high-in nodes, none of them high-out or
        # high-conflict: a defined share of 0.0, not an undefined one.
        path = tmp_path / "coreboot_graphics.fm"
        path.write_text(coreboot_graphics_text(), "utf-8")
        metrics, _ = analyze_model(path, out_dir=tmp_path / "out")
        assert any(node.high_in for node in metrics.nodes)
        summary = json.loads((tmp_path / "out" / "coreboot_graphics" / "summary.json")
                             .read_text("utf-8"))
        assert summary["overlap"] == {
            "high_in_and_high_out_pct": 0.0,
            "high_in_and_high_conflict_pct": 0.0,
        }

    def test_no_high_in_node_is_null_and_empty(self, tmp_path):
        out, _ = run_corpus(tmp_path)
        summary = json.loads((out / "no_hub" / "summary.json").read_text("utf-8"))
        assert summary["overlap"] == {
            "high_in_and_high_out_pct": None,
            "high_in_and_high_conflict_pct": None,
        }
        with (out / "corpus.csv").open(newline="", encoding="utf-8") as handle:
            rows = {row["id"]: row for row in csv.DictReader(handle)}
        assert rows["no_hub"]["overlap_in_out_pct"] == ""
        assert rows["no_hub"]["overlap_in_conflict_pct"] == ""
        assert rows["coreboot"]["overlap_in_out_pct"] == "0.0"
        assert rows["coreboot"]["overlap_in_conflict_pct"] == "0.0"
