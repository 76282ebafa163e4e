"""Guards on the package as a whole: clean compilation and a light import."""

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
