import dataclasses
import importlib
import importlib.metadata
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import fmnet
import fmnet.cli as cli
from fmnet.fixtures import coreboot_graphics_text
from fmnet.sat import SatEngine

GOOD_DIMACS = "p cnf 2 1\n1 2 0\n"
VOID_DIMACS = "p cnf 1 2\n1 0\n-1 0\n"


def _graphs_text(**fields):
    """A graphs.json text over two features, ``fields`` replacing sound ones."""
    payload = {
        "num_vars": 2,
        "nodes": [{"index": 1, "name": "A"}, {"index": 2, "name": "B"}],
        "core": [], "dead": [], "arcs": [[1, 2]], "conflict_edges": [],
    }
    payload.update(fields)
    return json.dumps(payload)


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "coreboot_graphics.fm"
    path.write_text(coreboot_graphics_text(), "utf-8")
    return path


class TestAnalyze:
    def test_prints_summary(self, fixture_file, capsys):
        assert cli.main(["analyze", str(fixture_file)]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["model_id"] == "coreboot_graphics"
        assert payload["num_vars"] == 15

    def test_writes_artifacts(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert cli.main(["analyze", str(fixture_file), "--out", str(out)]) == cli.EXIT_OK
        assert (out / "coreboot_graphics" / "graphs.json").is_file()

    def test_format_override(self, tmp_path, capsys):
        path = tmp_path / "model.txt"
        path.write_text(GOOD_DIMACS, "utf-8")
        assert cli.main(["analyze", str(path), "--format", "dimacs"]) == cli.EXIT_OK

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cnf"
        assert cli.main(["analyze", str(missing)]) == cli.EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_bad_syntax_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf x\n", "utf-8")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_INPUT_ERROR

    def test_void_model_exit_code(self, tmp_path, capsys):
        path = tmp_path / "void.cnf"
        path.write_text(VOID_DIMACS, "utf-8")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_VOID_MODEL

    def test_bad_threshold_is_input_error(self, fixture_file, capsys):
        assert cli.main(["analyze", str(fixture_file), "--threshold", "0"]) == cli.EXIT_INPUT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: threshold_pct must be in (0, 100], got 0.0"

    def test_empty_clause_is_void_model(self, tmp_path, capsys):
        path = tmp_path / "empty_clause.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n0\n", "utf-8")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_VOID_MODEL
        assert "empty clause" in capsys.readouterr().err

    def test_name_taking_a_fallback_name_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "clash.cnf"
        path.write_text("c 1 v2\np cnf 2 1\n-1 -2 0\n", "utf-8")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_INPUT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            "error: line 1: name 'v2' of variable 1 is the fallback name of unnamed variable 2"
        )

    def test_repeated_name_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "repeated.cnf"
        path.write_text("c 1 A\nc 2 A\np cnf 2 1\n1 0\n", "utf-8")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_INPUT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: line 2: name 'A' used for variables 1 and 2"

    def test_name_outside_xml_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "ctl.cnf"
        path.write_text("p cnf 2 1\nc 1 x\x01y\n1 2 0\n", "utf-8")
        out = tmp_path / "o"
        assert cli.main(["analyze", str(path), "--out", str(out)]) == cli.EXIT_INPUT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: line 2: name 'x\\x01y' of variable 1 holds a character outside XML"
        assert not out.exists()

    @pytest.mark.parametrize("name, model_id", [("...cnf", ".."), ("..cnf", ".")])
    def test_stem_that_names_no_directory_is_input_error(self, tmp_path, capsys, name, model_id):
        # With --out the stem names the model's directory, by the manifest's id rule.
        path = tmp_path / name
        path.write_text(GOOD_DIMACS, "utf-8")
        out = tmp_path / "tmp" / "o"
        assert cli.main(["analyze", str(path), "--out", str(out)]) == cli.EXIT_INPUT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: model id '{model_id}' is not a plain directory name"
        assert not (tmp_path / "tmp").exists()

    def test_out_of_memory_is_one_input_error(self, tmp_path, capsys, monkeypatch):
        # Stands in for a problem line too large to allocate, such as
        # "p cnf 100000000 0", without allocating anything for real.
        def exhausted(self, formula):
            raise MemoryError

        monkeypatch.setattr(SatEngine, "__init__", exhausted)
        path = tmp_path / "model.cnf"
        path.write_text(GOOD_DIMACS, "utf-8")
        assert cli.main(["analyze", str(path)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]

    def test_deep_constraint_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.fm"
        path.write_text(
            "feature R\n    optional A\n    constraint " + "(" * 198 + "A" + ")" * 198 + "\n",
            "utf-8",
        )
        assert cli.main(["analyze", str(path)]) == cli.EXIT_INPUT_ERROR
        assert "line 3: constraint nests deeper than" in capsys.readouterr().err


class TestCorpus:
    def test_corpus_run(self, fixture_file, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "id,path,format,domain\n"
            f"coreboot,{fixture_file.name},fm,systems\n",
            "utf-8",
        )
        out = tmp_path / "corpus-out"
        code = cli.main(["corpus", str(manifest), "--out", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "corpus.csv").is_file()
        assert (out / "coreboot" / "summary.json").is_file()
        assert "analyzed 1 of 1" in capsys.readouterr().err

    def test_bad_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,path,format,domain\nx,ghost.fm,fm,d\n", "utf-8")
        assert cli.main(["corpus", str(manifest)]) == cli.EXIT_INPUT_ERROR

    def test_id_naming_a_corpus_table(self, fixture_file, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "id,path,format,domain\n"
            f"a,{fixture_file.name},fm,systems\ncorpus.csv,{fixture_file.name},fm,systems\n",
            "utf-8",
        )
        out = tmp_path / "corpus-out"
        code = cli.main(["corpus", str(manifest), "--out", str(out)])
        assert code == cli.EXIT_INPUT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: line 3: model id 'corpus.csv' names a corpus table"
        assert not out.exists()

    @pytest.mark.parametrize("option", [
        ["--threshold", "0"], ["--jobs", "0"], ["--jobs", "-2"],
    ])
    def test_bad_option_is_one_input_error(self, fixture_file, tmp_path, capsys, option):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "id,path,format,domain\n"
            f"a,{fixture_file.name},fm,systems\nb,{fixture_file.name},fm,systems\n",
            "utf-8",
        )
        out = tmp_path / "corpus-out"
        code = cli.main(["corpus", str(manifest), "--out", str(out), *option])
        assert code == cli.EXIT_INPUT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert not out.exists()


class TestExport:
    def test_rerenders_dot(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "artifacts"
        cli.main(["analyze", str(fixture_file), "--out", str(out)])
        capsys.readouterr()
        code = cli.main([
            "export", str(out / "coreboot_graphics"), "--format", "dot"
        ])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("digraph strong_graphs {")

    def test_missing_artifact_dir(self, tmp_path, capsys):
        assert (
            cli.main(["export", str(tmp_path), "--format", "dot"])
            == cli.EXIT_INPUT_ERROR
        )

    @pytest.mark.parametrize("text", [
        '{"num_vars": 1}', "[1, 2]", '{"nodes": [7]}', "{",
        _graphs_text(num_vars="2"),
        _graphs_text(nodes=[{"index": "1", "name": "A"}]),
        _graphs_text(nodes=[{"index": True, "name": "A"}]),
        _graphs_text(nodes=[{"index": 3, "name": "A"}]),
        _graphs_text(core=[{"index": 0, "name": "A"}]),
        _graphs_text(dead=[{"index": 1, "name": 5}]),
        _graphs_text(arcs=[[1, "2"]]),
        _graphs_text(arcs=[[1, 2, 3]]),
        _graphs_text(conflict_edges=[[1.0, 2]]),
        _graphs_text(conflict_edges=[[True, 2]]),
        _graphs_text(core=[{"index": 1, "name": "Z"}]),
        _graphs_text(nodes=[{"index": 1, "name": "A"}, {"index": 1, "name": "B"}]),
        _graphs_text(nodes=[{"index": 1, "name": "A"}]),
        _graphs_text(arcs=[[1, 9]]),
        _graphs_text(arcs=[[0, 2]]),
        _graphs_text(conflict_edges=[[1, 3]]),
        _graphs_text(num_vars=3, core=[{"index": 3, "name": "C"}], arcs=[[1, 3]]),
        _graphs_text(num_vars=3, dead=[{"index": 3, "name": "C"}], conflict_edges=[[3, 1]]),
        _graphs_text(arcs=[[1, 1]]),
        _graphs_text(conflict_edges=[[2, 2]]),
        _graphs_text(conflict_edges=[[2, 1]]),
        _graphs_text(num_vars=3, nodes=[{"index": i, "name": n} for i, n in enumerate("ABC", 1)],
                     conflict_edges=[[2, 3], [3, 2]]),
        _graphs_text(nodes=[{"index": 1, "name": "A"}, {"index": 2, "name": "A"}]),
        _graphs_text(nodes=[{"index": 1, "name": "a\u0001b"}, {"index": 2, "name": "B"}]),
        _graphs_text(nodes=[{"index": 1, "name": "a b"}, {"index": 2, "name": "B"}]),
    ])
    def test_not_a_graphs_artifact(self, tmp_path, capsys, text):
        fmnet.graphs_from_json(_graphs_text())  # the sound base payload parses
        (tmp_path / "graphs.json").write_text(text, "utf-8")
        assert (
            cli.main(["export", str(tmp_path), "--format", "dot"])
            == cli.EXIT_INPUT_ERROR
        )
        assert "not a graphs artifact" in capsys.readouterr().err


class TestValidate:
    def test_clean_model_passes(self, fixture_file, capsys):
        assert cli.main(["validate", str(fixture_file)]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["discrepancies"] == []
        assert payload["model_id"] == "coreboot_graphics"

    def test_void_model_exit_code(self, tmp_path, capsys):
        path = tmp_path / "void.cnf"
        path.write_text(VOID_DIMACS, "utf-8")
        assert cli.main(["validate", str(path)]) == cli.EXIT_VOID_MODEL

    def test_disagreement_exit_code(self, fixture_file, capsys, monkeypatch):
        # Corrupt the rebuilt artifact to exercise the failure path.
        real = cli.compute_strong_graphs

        def corrupted(formula):
            graphs = real(formula)
            victim = sorted(graphs.dep_arcs)[0]
            return dataclasses.replace(graphs, dep_arcs=graphs.dep_arcs - {victim})

        monkeypatch.setattr(cli, "compute_strong_graphs", corrupted)
        assert cli.main(["validate", str(fixture_file)]) == cli.EXIT_DISAGREEMENT
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert len(payload["discrepancies"]) == 1


class TestOracle:
    def test_agreement(self, fixture_file, capsys):
        assert cli.main(["oracle", str(fixture_file)]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["agrees_with_extraction"] is True
        assert ["NO_GFX_INIT", "HAVE_VBE_LINEAR_FRAMEBUFFER"] in payload["arcs"]
        assert sorted(payload["core"]) == [
            "FRAMEBUFFER_MODE", "GFX_INITIALIZATION", "GRAPHICS"
        ]

    def test_var_limit(self, fixture_file, capsys):
        code = cli.main(["oracle", str(fixture_file), "--var-limit", "5"])
        assert code == cli.EXIT_INPUT_ERROR

    def test_disagreement_exit_code(self, fixture_file, capsys, monkeypatch):
        real = cli.extract_strong_relations

        def corrupted(formula):
            classification, relations = real(formula)
            return classification, {}

        monkeypatch.setattr(cli, "extract_strong_relations", corrupted)
        assert cli.main(["oracle", str(fixture_file)]) == cli.EXIT_DISAGREEMENT


PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_console_script() -> str:
    """The ``module:attr`` that ``[project.scripts].fmnet`` declares."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["fmnet"]


def _fmnet_distribution_found() -> bool:
    try:
        importlib.metadata.distribution("fmnet")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestEntryPoint:
    def test_console_script_installed(self, fixture_file, tmp_path):
        declared = _declared_console_script()
        module, _, attr = declared.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

        # Run the entry point as an installer's generated script does, with
        # the imported fmnet package (not the cwd) on the path.
        package_root = str(pathlib.Path(fmnet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        script = f"import sys; from {module} import {attr}; sys.exit({attr}())"

        def run_script(*args):
            return subprocess.run(
                [sys.executable, "-c", script, *args], cwd=tmp_path, env=env,
                capture_output=True, text=True, timeout=60,
            )

        completed = run_script("analyze", str(fixture_file))
        assert completed.returncode == cli.EXIT_OK, completed.stderr
        assert json.loads(completed.stdout)["num_vars"] == 15

        # The exit code of main() must reach the process exit status.
        missing = run_script("analyze", str(tmp_path / "missing.fm"))
        assert missing.returncode == cli.EXIT_INPUT_ERROR, missing.stderr

    @pytest.mark.parametrize("module", ["fmnet", "fmnet.cli"])
    def test_module_run(self, fixture_file, tmp_path, module):
        # ``python -m`` from a checkout runs the tool like the script.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(pathlib.Path(fmnet.__file__).resolve().parents[1]), env.get("PYTHONPATH")
        ]))
        completed = subprocess.run(
            [sys.executable, "-m", module, "analyze", str(fixture_file)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == cli.EXIT_OK, completed.stderr
        assert json.loads(completed.stdout)["num_vars"] == 15

    @pytest.mark.skipif(
        not _fmnet_distribution_found(),
        reason="importlib.metadata finds no fmnet distribution",
    )
    def test_installed_console_script_on_path(self, fixture_file):
        scripts = [
            entry.value
            for entry in importlib.metadata.distribution("fmnet").entry_points
            if entry.group == "console_scripts" and entry.name == "fmnet"
        ]
        assert scripts == [_declared_console_script()]
        executable = shutil.which("fmnet")
        assert executable, "console script should be on PATH after install"
        completed = subprocess.run(
            [executable, "analyze", str(fixture_file)],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0
        assert json.loads(completed.stdout)["num_vars"] == 15
