"""Driving the command-line interface programmatically.

Everything the library does is reachable from the `zetacasimir`
console script; this demo calls the same entry point in-process and
shows the deterministic CSV/JSON output and the exit-code contract.
"""

import json
import pathlib
import tempfile

from zetacasimir.cli import main

print("=== one-shot evaluations ===")
for argv in (
    ["specfun", "zeta", "-3"],
    ["specfun", "polylog", "-3", "-1"],
    ["tensor", "--a", "1", "--x3", "0.5"],
    ["pressure", "--a", "1"],
):
    print(f"$ zetacasimir {' '.join(argv)}")
    main(argv)
    print()

workdir = pathlib.Path(tempfile.mkdtemp(prefix="zetacasimir_demo_"))

print("=== deterministic profile files ===")
csv_path = workdir / "profile.csv"
for _ in range(2):
    main(["profile", "--a", "1", "--n-points", "5", "--x3-min", "0.1",
          "--x3-max", "0.9", "--output", str(csv_path)])
print(csv_path.read_text(), end="")
print("(a second identical run rewrote the file byte-for-byte)")

print()
print("=== JSON output with run metadata ===")
json_path = workdir / "profile.json"
main(["profile", "--a", "1", "--n-points", "3", "--x3-min", "0.25",
      "--x3-max", "0.75", "--format", "json", "--output", str(json_path)])
doc = json.loads(json_path.read_text())
print(f"meta: {doc['meta']['tool']} {doc['meta']['version']}, "
      f"inputs {doc['meta']['inputs']}")
print(f"first row: {doc['rows'][0]}")

print()
print("=== config file, overridden by explicit flags ===")
cfg_path = workdir / "profile.cfg"
cfg_path.write_text("a = 2.0\nn-points = 3\nx3-min = 0.5\nx3-max = 1.5\n")
main(["profile", "--config", str(cfg_path), "--output", str(workdir / "cfg.csv")])
print((workdir / "cfg.csv").read_text(), end="")

print()
print("=== exit codes ===")
for argv in (
    ["tensor", "--a", "0", "--x3", "0.5"],     # invalid separation
    ["tensor", "--a", "1", "--x3", "0.0"],     # point on a plate
    ["specfun", "gamma", "0"],                 # pole
):
    code = main(argv)
    print(f"zetacasimir {' '.join(argv)} -> exit {code}")
