"""Guards on the package as a whole: clean compilation, a light import,
the public functions the benchmark trace wraps and one default tolerance."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import warnings

import zetacasimir

PACKAGE = pathlib.Path(zetacasimir.__file__).parent


def test_sources_compile_without_warnings():
    # compile the text itself, so a cached .pyc cannot hide a warning
    for path in sorted(PACKAGE.glob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_cli_import_does_not_load_scipy():
    # scipy serves only the radial-quadrature oracle, never the CLI
    code = (
        "import sys, zetacasimir.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"


def test_traced_functions_exist():
    # bench/tracing.py wraps these by name; read them without importing bench
    tracing = PACKAGE.parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert traced
    for name in traced:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"zetacasimir.{module}"), function)), name


def test_tolerance_defaults():
    # a tolerance defaults to the pipeline's one value or must be passed
    modules = [
        importlib.import_module(f"zetacasimir.{name}")
        for name in ("polylog", "hurwitz", "hankel")
    ]
    default = modules[0].DEFAULT_TOL
    checked = []
    for module in modules:
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__:
                continue
            tol = inspect.signature(fn).parameters.get("tol")
            if tol is None:
                continue
            checked.append(name)
            assert tol.default in (default, inspect.Parameter.empty), name
    assert "polylog" in checked and "polylog_hankel" in checked
