"""fmnet needs nothing beyond the standard library at run time.

scipy and networkx appear only in the tests, as independent cross-checks.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE_SOURCES = sorted((REPO / "src" / "fmnet").rglob("*.py"))


def _absolute_imports(tree):
    """(line, top-level module) for every non-relative import, function-local ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    assert PACKAGE_SOURCES
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in PACKAGE_SOURCES
        for line, module in _absolute_imports(ast.parse(path.read_text("utf-8")))
        if module != "fmnet" and module not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_pyproject_declares_no_runtime_dependencies():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((REPO / "pyproject.toml").read_text("utf-8"))["project"]
    assert project.get("dependencies", []) == []


def test_import_loads_no_network_stack_or_process_pool():
    # A corpus run is many short processes, and each pays for what the
    # import loads. Only what the import adds counts, not what site loads.
    script = (
        f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); "
        "before = set(sys.modules); import fmnet, fmnet.corpus, fmnet.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    added = set(run.stdout.split())
    assert "fmnet.cli" in added
    unwanted = {
        "urllib.request", "http", "email", "ssl", "xml", "multiprocessing",
        "concurrent.futures.process",
    }
    assert sorted(added & unwanted) == []
