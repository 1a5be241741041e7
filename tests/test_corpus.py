import csv
import json
import re

import pytest

import fmnet.corpus
from fmnet.corpus import (
    analyze_corpus,
    analyze_model,
    detect_format,
    load_formula,
    load_manifest,
    summary_json,
)
from fmnet.errors import InputSyntaxError, VoidModelError
from fmnet.fixtures import coreboot_graphics_text

SMALL_FM = (
    "feature ROOT\n"
    "    optional LEFT\n"
    "        mandatory CORE_CHILD\n"
    "    optional RIGHT\n"
    "    constraint LEFT => !RIGHT\n"
)

SMALL_DIMACS = "c 1 ONE\nc 2 TWO\np cnf 3 2\n1 2 0\n-1 -2 0\n"

VOID_FM = "feature R\n    constraint !R\n"

# A flat 997-operand disjunction: the parser loops, but the tree it builds
# is 996 levels deep.
DEEP_FM = "feature R\n    optional A\n    constraint " + " | ".join(["A"] * 997) + "\n"


def write_corpus(tmp_path, rows):
    lines = ["id,path,format,domain"]
    lines += [",".join(row) for row in rows]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", "utf-8")
    return manifest


class TestDetectFormat:
    def test_fm_suffix(self):
        assert detect_format("models/a.fm") == "fm"

    def test_everything_else_is_dimacs(self):
        assert detect_format("models/a.cnf") == "dimacs"
        assert detect_format("models/a.dimacs") == "dimacs"
        assert detect_format("bare") == "dimacs"


class TestLoadFormula:
    def test_fm(self, tmp_path):
        path = tmp_path / "m.fm"
        path.write_text(SMALL_FM, "utf-8")
        formula = load_formula(path, "fm")
        assert formula.names[1] == "ROOT"

    def test_dimacs(self, tmp_path):
        path = tmp_path / "m.cnf"
        path.write_text(SMALL_DIMACS, "utf-8")
        assert load_formula(path, "dimacs").num_vars == 3

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "m.cnf"
        path.write_text(SMALL_DIMACS, "utf-8")
        with pytest.raises(ValueError, match="unknown input format"):
            load_formula(path, "xml")

    def test_fm_with_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "plain.fm", tmp_path / "marked.fm"
        plain.write_text(SMALL_FM, "utf-8")
        marked.write_text(SMALL_FM, "utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_formula(marked) == load_formula(plain)

    def test_dimacs_with_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "plain.cnf", tmp_path / "marked.cnf"
        plain.write_text(SMALL_DIMACS, "utf-8")
        marked.write_text(SMALL_DIMACS, "utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_formula(marked) == load_formula(plain)


class TestLoadManifest:
    def test_good_manifest(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        (tmp_path / "b.cnf").write_text(SMALL_DIMACS, "utf-8")
        manifest = load_manifest(write_corpus(tmp_path, [
            ("a", "a.fm", "fm", "systems"),
            ("b", "b.cnf", "dimacs", "automotive"),
        ]))
        assert [e.model_id for e in manifest.entries] == ["a", "b"]
        assert manifest.entries[0].path == (tmp_path / "a.fm").resolve()
        assert manifest.entries[1].domain == "automotive"

    def test_byte_order_mark(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        path = tmp_path / "manifest.csv"
        path.write_text("id,path,format,domain\na,a.fm,fm,systems\n", "utf-8-sig")
        (entry,) = load_manifest(path).entries
        assert (entry.model_id, entry.fmt, entry.domain) == ("a", "fm", "systems")

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,path\nx,y\n", "utf-8")
        with pytest.raises(InputSyntaxError, match="columns"):
            load_manifest(path)

    def test_short_row_rejected(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        path = tmp_path / "manifest.csv"
        path.write_text("id,path,format,domain\nm1,a.fm\n", "utf-8")
        with pytest.raises(InputSyntaxError, match="line 2: row has fewer columns"):
            load_manifest(path)

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        manifest = write_corpus(tmp_path, [
            ("a", "a.fm", "fm", "x"),
            ("a", "a.fm", "fm", "x"),
        ])
        with pytest.raises(InputSyntaxError, match="line 3: duplicate model id"):
            load_manifest(manifest)

    def test_error_line_is_the_file_line(self, tmp_path):
        # The first row's quoted domain spans lines 2-3; the duplicate is on 4.
        (tmp_path / "m.fm").write_text(SMALL_FM, "utf-8")
        path = tmp_path / "manifest.csv"
        path.write_text('id,path,format,domain\nm1,m.fm,fm,"two\nlines"\nm1,m.fm,fm,x\n',
                        "utf-8")
        with pytest.raises(InputSyntaxError, match="line 4: duplicate model id 'm1'"):
            load_manifest(path)

    @pytest.mark.parametrize("model_id", ["../escaped", ".", "..", "sub/dir", "a\\b", " "])
    def test_id_must_be_a_plain_directory_name(self, tmp_path, model_id):
        # The id names the model's directory under --out, so it must not
        # leave it, share it with the corpus tables or nest.
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        manifest = write_corpus(tmp_path, [
            ("ok", "a.fm", "fm", "x"),
            (model_id, "a.fm", "fm", "x"),
        ])
        with pytest.raises(InputSyntaxError, match="line 3: model id .* is not a plain directory"):
            load_manifest(manifest)

    def test_id_must_not_hold_nul(self, tmp_path):
        # Python 3.10's csv reader refuses the NUL itself; later ones leave it to the id rule.
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        manifest = write_corpus(tmp_path, [
            ("ok", "a.fm", "fm", "x"),
            ("b\0", "a.fm", "fm", "x"),
        ])
        with pytest.raises(InputSyntaxError, match=(
            r"line 3: (model id 'b\\x00' is not a plain directory name"
            r"|not a CSV manifest: line contains NUL)$"
        )):
            load_manifest(manifest)

    def test_field_over_the_csv_limit(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        manifest = write_corpus(tmp_path, [
            ("ok", "a.fm", "fm", "x"),
            ("big", "a.fm", "fm", "x" * 200_000),
        ])
        with pytest.raises(InputSyntaxError, match="line 3: not a CSV manifest: field larger"):
            load_manifest(manifest)

    @pytest.mark.parametrize("model_id", ["corpus.csv", "domain_stats.csv", "tests.csv"])
    def test_id_must_not_name_a_corpus_table(self, tmp_path, model_id):
        # The corpus tables sit next to the model directories under --out.
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        manifest = write_corpus(tmp_path, [
            ("ok", "a.fm", "fm", "x"),
            (model_id, "a.fm", "fm", "x"),
        ])
        with pytest.raises(InputSyntaxError, match=f"line 3: model id '{model_id}' names a corpus"):
            load_manifest(manifest)

    def test_unknown_format_rejected(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        manifest = write_corpus(tmp_path, [("a", "a.fm", "xml", "x")])
        with pytest.raises(InputSyntaxError, match="unknown format"):
            load_manifest(manifest)

    def test_missing_file_rejected(self, tmp_path):
        manifest = write_corpus(tmp_path, [("a", "ghost.fm", "fm", "x")])
        with pytest.raises(InputSyntaxError, match="not found"):
            load_manifest(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = write_corpus(tmp_path, [])
        with pytest.raises(InputSyntaxError, match="no models"):
            load_manifest(manifest)


class TestAnalyzeModel:
    def test_metrics_and_artifacts(self, tmp_path):
        model_path = tmp_path / "coreboot_graphics.fm"
        model_path.write_text(coreboot_graphics_text(), "utf-8")
        out = tmp_path / "out"
        metrics, graphs = analyze_model(model_path, out_dir=out)
        assert metrics.model_id == "coreboot_graphics"
        assert metrics.num_vars == 15
        assert metrics.num_configurable == 12
        model_dir = out / "coreboot_graphics"
        expected = {
            "graphs.dot", "graphs.graphml", "graphs.json",
            "nodes.csv", "histograms.csv", "summary.json",
        }
        assert {p.name for p in model_dir.iterdir()} == expected

    @pytest.mark.parametrize("model_id", ["..", "a/b", "corpus.csv", "b\0"])
    def test_id_checked_before_the_model_is_read(self, tmp_path, model_id):
        # The model file does not exist: a read would raise OSError.
        out = tmp_path / "out"
        with pytest.raises(InputSyntaxError, match=f"^model id {re.escape(repr(model_id))} "):
            analyze_model(tmp_path / "ghost.fm", out_dir=out, model_id=model_id)
        assert not out.exists()

    def test_void_model_raises(self, tmp_path):
        path = tmp_path / "void.fm"
        path.write_text(VOID_FM, "utf-8")
        with pytest.raises(VoidModelError):
            analyze_model(path)

    def test_summary_json_content(self, tmp_path):
        model_path = tmp_path / "demo.fm"
        model_path.write_text(coreboot_graphics_text(), "utf-8")
        metrics, _ = analyze_model(model_path)
        payload = json.loads(summary_json(metrics))
        assert payload["model_id"] == "demo"
        assert payload["num_core"] == 3
        assert payload["num_dead"] == 0
        assert payload["max_in_degree"]["degree"] == 2
        assert payload["max_in_degree"]["features"] == [
            {"index": 3, "name": "HAVE_VBE_LINEAR_FRAMEBUFFER"}
        ]
        assert payload["max_out_degree"]["features"] == [
            {"index": 12, "name": "NO_GFX_INIT"}
        ]

    def test_nodes_csv_readable(self, tmp_path):
        model_path = tmp_path / "m.fm"
        model_path.write_text(SMALL_FM, "utf-8")
        metrics, _ = analyze_model(model_path, out_dir=tmp_path / "out")
        with (tmp_path / "out" / "m" / "nodes.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == metrics.num_configurable
        assert {row["name"] for row in rows} <= {"LEFT", "CORE_CHILD", "RIGHT"}
        for row in rows:
            float(row["in_pct"])  # float cells parse back


class TestAnalyzeCorpus:
    def build(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        (tmp_path / "b.cnf").write_text(SMALL_DIMACS, "utf-8")
        (tmp_path / "c.fm").write_text(coreboot_graphics_text(), "utf-8")
        (tmp_path / "void.fm").write_text(VOID_FM, "utf-8")
        (tmp_path / "broken.fm").write_text("optional A\n", "utf-8")
        return write_corpus(tmp_path, [
            ("a", "a.fm", "fm", "systems"),
            ("b", "b.cnf", "dimacs", "systems"),
            ("c", "c.fm", "fm", "systems"),
            ("void", "void.fm", "fm", "systems"),
            ("broken", "broken.fm", "fm", "systems"),
        ])

    def test_failures_are_tallied_not_fatal(self, tmp_path):
        result = analyze_corpus(load_manifest(self.build(tmp_path)))
        assert {r.model_id for r in result.records} == {"a", "b", "c"}
        assert {f.model_id for f in result.failures} == {"void", "broken"}
        for failure in result.failures:
            assert failure.error

    def test_deep_constraint_is_one_failure(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        (tmp_path / "deep.fm").write_text(DEEP_FM, "utf-8")
        (tmp_path / "b.cnf").write_text(SMALL_DIMACS, "utf-8")
        manifest = write_corpus(tmp_path, [
            ("a", "a.fm", "fm", "systems"),
            ("deep", "deep.fm", "fm", "systems"),
            ("b", "b.cnf", "dimacs", "systems"),
        ])
        result = analyze_corpus(load_manifest(manifest))
        assert [r.model_id for r in result.records] == ["a", "b"]
        assert [f.model_id for f in result.failures] == ["deep"]
        assert "line 3: constraint nests deeper than" in result.failures[0].error

    def test_unexpected_exception_is_one_failure(self, tmp_path, monkeypatch):
        real = fmnet.corpus.analyze_model

        def faulty(path, *args, **kwargs):
            if path.name == "c.fm":
                raise RuntimeError("solver fault")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(fmnet.corpus, "analyze_model", faulty)
        result = analyze_corpus(load_manifest(self.build(tmp_path)), jobs=1)
        assert [r.model_id for r in result.records] == ["a", "b"]
        assert [f.model_id for f in result.failures] == ["c", "void", "broken"]
        fault = result.failures[0].error
        assert fault.startswith("RuntimeError at test_corpus.py:")
        assert fault.endswith(": solver fault")
        # Types caught before keep their plain message.
        assert "unsatisfiable" in result.failures[1].error

    def test_domain_stats_and_tests(self, tmp_path):
        result = analyze_corpus(load_manifest(self.build(tmp_path)))
        stats = result.domain_stats["systems"]
        assert set(stats) == {
            "core_pct", "dead_pct", "require_density", "exclude_density"
        }
        assert stats["core_pct"].n == 3
        assert set(result.tests) == {"systems"}
        assert set(result.tests["systems"]) == {"dead_gt_core", "excludes_gt_requires"}
        assert result.tests["systems"]["dead_gt_core"].n_pairs == 3

    def test_tables_written(self, tmp_path):
        out = tmp_path / "tables"
        analyze_corpus(load_manifest(self.build(tmp_path)), out_dir=out)
        with (out / "corpus.csv").open(newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        # frozen header: downstream tooling joins on these column names
        assert reader.fieldnames == [
            "id", "domain", "num_vars", "num_configurable",
            "core_pct", "dead_pct", "require_density", "exclude_density",
            "num_arcs", "num_conflict_edges",
            "overlap_in_out_pct", "overlap_in_conflict_pct",
        ]
        assert [row["id"] for row in rows] == ["a", "b", "c"]
        for row in rows:
            float(row["core_pct"])
            float(row["require_density"])
        with (out / "domain_stats.csv").open(newline="") as handle:
            stat_rows = list(csv.DictReader(handle))
        assert len(stat_rows) == 4
        with (out / "tests.csv").open(newline="") as handle:
            test_rows = list(csv.DictReader(handle))
        assert len(test_rows) == 2
        assert {"p_value", "effect_label", "significant"} <= set(test_rows[0])
        # Per-model artifact directories are written next to the tables.
        assert (out / "a" / "summary.json").is_file()

    def test_parallel_matches_serial(self, tmp_path):
        manifest = load_manifest(self.build(tmp_path))
        assert analyze_corpus(manifest) == analyze_corpus(manifest, jobs=4)

    def test_workers_capped_at_the_model_count(self, tmp_path, monkeypatch):
        # An in-process stand-in for the pool, so no process starts.
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        (tmp_path / "b.cnf").write_text(SMALL_DIMACS, "utf-8")
        (tmp_path / "c.fm").write_text(coreboot_graphics_text(), "utf-8")
        manifest = load_manifest(write_corpus(tmp_path, [
            ("a", "a.fm", "fm", "systems"),
            ("b", "b.cnf", "dimacs", "systems"),
            ("c", "c.fm", "fm", "systems"),
        ]))
        result = analyze_corpus(manifest, jobs=64)
        assert asked == [3]
        assert [r.model_id for r in result.records] == ["a", "b", "c"]


class TestArgumentsCheckedFirst:
    """A bad threshold or job count is an error before any model is read,
    not one tallied failure per model after every extraction."""

    @pytest.fixture
    def extractions(self, monkeypatch):
        calls = []
        real = fmnet.corpus.compute_strong_graphs

        def counted(formula):
            calls.append(formula)
            return real(formula)

        monkeypatch.setattr(fmnet.corpus, "compute_strong_graphs", counted)
        return calls

    def manifest(self, tmp_path):
        (tmp_path / "a.fm").write_text(SMALL_FM, "utf-8")
        return load_manifest(write_corpus(tmp_path, [("a", "a.fm", "fm", "x")]))

    def test_calls_are_counted(self, tmp_path, extractions):
        analyze_corpus(self.manifest(tmp_path))
        assert len(extractions) == 1

    @pytest.mark.parametrize("threshold", [0.0, -5.0, 100.5])
    def test_corpus_threshold(self, tmp_path, extractions, threshold):
        with pytest.raises(ValueError, match="threshold_pct must be in"):
            analyze_corpus(self.manifest(tmp_path), threshold_pct=threshold)
        assert extractions == []

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_corpus_jobs(self, tmp_path, extractions, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            analyze_corpus(self.manifest(tmp_path), jobs=jobs)
        assert extractions == []

    def test_model_threshold(self, tmp_path, extractions):
        path = tmp_path / "a.fm"
        path.write_text(SMALL_FM, "utf-8")
        with pytest.raises(ValueError, match="threshold_pct must be in"):
            analyze_model(path, threshold_pct=0.0)
        assert extractions == []
