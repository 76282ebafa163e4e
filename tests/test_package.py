"""Guards on the package as a whole: clean compilation, a light import,
the public functions the benchmark trace wraps, one default tolerance,
the named set of optional parameters and a profile whose calls do not
grow with its grid."""

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


def test_optional_parameters():
    # every knob a caller may leave out; a new one has to be named here
    optional = set()
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"zetacasimir.{path.stem}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__:
                continue
            optional |= {
                f"{path.stem}.{name}.{param.name}"
                for param in inspect.signature(fn).parameters.values()
                if param.default is not inspect.Parameter.empty
            }
    assert optional == {
        "polylog.polylog.tol",
        "polylog.polylog_series.tol",
        "hankel.polylog_hankel.radius",
        "hankel.hankel_recip_gamma_check.radius",
        "gammafn.is_nonpositive_integer.tol",
        "cli.main.argv",
    }


def _count_calls(monkeypatch, names):
    """Count the calls of each package function named "module.function",
    wrapped at every module binding that holds it, as bench/tracing.py
    wraps them."""
    counts = dict.fromkeys(names, 0)
    modules = [
        importlib.import_module(f"zetacasimir.{path.stem}") for path in PACKAGE.glob("*.py")
    ]

    def counter(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in names:
        module, function = name.split(".")
        original = getattr(importlib.import_module(f"zetacasimir.{module}"), function)
        wrapped = counter(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, wrapped)
    return counts


def test_profile_calls_do_not_grow_with_the_grid(monkeypatch, tmp_path, capsys):
    # the grid is evaluated as arrays: the same calls for 10 points as for 1000
    from zetacasimir import cli

    names = ("hurwitz.hurwitz_zeta", "casimir.milton_B", "casimir.coefficient_B")
    counts = _count_calls(monkeypatch, names)
    per_grid = []
    for n in (10, 1000):
        before = dict(counts)
        argv = [
            "profile", "--n-points", str(n), "--x3-min=-0.45", "--x3-max", "1.45",
            "--include-outside", "--output", str(tmp_path / "p.csv"),
        ]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith(f"wrote {n} rows")
        per_grid.append({name: counts[name] - before[name] for name in names})
    assert per_grid[0] == per_grid[1]
    assert per_grid[0]["hurwitz.hurwitz_zeta"] > 0  # the wrapper is reached
