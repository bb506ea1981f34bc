import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sieveboot

MODULES = sorted(m.name for m in pkgutil.iter_modules(sieveboot.__path__))
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # ``from sieveboot.<name> import *`` fails on an __all__ entry the module lacks
    module = importlib.import_module(f"sieveboot.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _relative_imports(path: Path) -> set:
    """Names of the modules a source file imports relatively, at any depth,
    function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])
    return names


def test_import_graph_is_acyclic():
    # a cycle hidden in a function body still ties two modules into one
    package = Path(sieveboot.__file__).parent
    graph = {name: _relative_imports(package / f"{name}.py") & set(MODULES) for name in MODULES}

    def cycle_from(name, path):
        if name in path:
            return path[path.index(name):] + [name]
        return next(filter(None, (cycle_from(m, path + [name]) for m in sorted(graph[name]))),
                    None)

    assert [c for c in (cycle_from(name, []) for name in MODULES) if c] == []


def test_every_traced_function_resolves():
    # the benchmark's tracer rebinds each (module, attribute) of FUNCTION_SPANS
    # by getattr, so a name deleted from the package would crash a traced run
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, _ in tracing.FUNCTION_SPANS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.FUNCTION_SPANS and missing == []


@pytest.mark.parametrize("args", [["-c", "import sieveboot"], ["-m", "sieveboot.cli", "list"]],
                         ids=["import", "cli-list"])
def test_fresh_process_loads_no_scipy_signal_or_stats(args):
    # pytest itself has scipy.signal loaded, so a child interpreter reports
    # each module it imports (-X importtime) and none may be scipy.signal or
    # scipy.stats.
    src = str(Path(sieveboot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "sieveboot" in imported
    assert sorted(m for m in imported if m.startswith(("scipy.signal", "scipy.stats"))) == []
