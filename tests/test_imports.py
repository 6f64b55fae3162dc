"""Every name a module of the package imports is used in that module, and
the third-party modules it imports are exactly its declared dependencies.

An import statement that carries ``# noqa: F401`` is a deliberate re-export
and is skipped.  The package's ``__init__.py`` re-exports by design.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modalgap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"cli.py", "hypotheses.py"}


def test_detects_an_unused_import():
    source = "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\nloads\n"
    assert unused_imports(source) == [(1, "math"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def third_party_imports(source: str) -> set:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules - set(sys.stdlib_module_names) - {"__future__", "modalgap"}


def test_imports_match_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in
                project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text())
                             for p in PACKAGE.glob("*.py")))
    assert imported == declared


def test_cli_runs_load_no_scipy(tmp_path):
    """separation, fit-unimodal on the scaling class and separability, in a
    fresh interpreter, leave no scipy module loaded."""
    instance = tmp_path / "sine.json"
    instance.write_text(json.dumps({"family": "sine", "theta_star": 0.7,
                                    "support": [1, 2, 3, 4]}))
    runs = [["separation", "--n", "2", "--trials", "2", "--grid", "500"],
            ["fit-unimodal", "--instance", str(instance), "--cls", "scaling",
             "--n", "6", "--grid", "500"],
            ["separability", "--sample-size", "64"]]
    script = "\n".join([
        "import sys",
        "from modalgap.cli import main",
        *(f"assert main({run + ['--out', str(tmp_path / str(i))]!r}) == 0"
          for i, run in enumerate(runs)),
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr[-3000:]
    assert child.stdout.strip() == "[]"
