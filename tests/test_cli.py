import hashlib
import json
import math

import pytest

from zetacasimir import (
    EvalPoint,
    PlateConfig,
    RegularizedCoefficients,
    cli,
    milton_B,
    mode_sum_bruteforce,
    regularized_vev,
)
from zetacasimir.cli import (
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    _fmt_complex,
    fmt,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_round_trip(self):
        for x in (math.pi, 0.1, 1e-300, -3.0, math.pi**2 / 480.0):
            assert float(fmt(x)) == x

    def test_shortest_form(self):
        assert fmt(0.1) == "0.1"
        assert fmt(-3.0) == "-3.0"


class TestSpecfun:
    def test_zeta_minus_three(self, capsys):
        code, out, _ = run(capsys, "specfun", "zeta", "-3")
        assert code == EXIT_OK
        value = complex(out.split()[0])
        assert value.real == pytest.approx(1.0 / 120.0, abs=1e-10)
        assert abs(value.imag) <= 1e-10

    def test_polylog(self, capsys):
        code, out, _ = run(capsys, "specfun", "polylog", "-3", "-1")
        assert code == EXIT_OK
        assert float(out.split()[0]) == pytest.approx(0.125, rel=1e-9)

    def test_missed_tolerance_is_convergence_error(self, capsys):
        code, out, err = run(capsys, "specfun", "polylog", "--", "-20.3", "-1")
        assert code == EXIT_CONVERGENCE
        assert out == "" and "error:" in err

    def test_negative_order_inside_the_disk(self, capsys):
        # the series would return -0.386 - 1.090i here
        code, out, _ = run(capsys, "specfun", "polylog", "--", "-5.3", "-0.99")
        assert code == EXIT_OK
        want = -0.268285373482904514816047359675  # mpmath 1.3.0
        assert abs(complex(out.split()[0]) - want) <= 1e-10 * (1.0 + abs(want))

    def test_missed_tolerance_inside_the_disk(self, capsys):
        # the series converges here, but at Re s <= 0 it cannot stand in
        code, out, err = run(capsys, "specfun", "polylog", "--", "-20.3", "-0.9999")
        assert code == EXIT_CONVERGENCE
        assert out == "" and "error:" in err

    # Li_s(-1) from mpmath 1.3.0 at 30 digits, rounded to double
    @pytest.mark.parametrize(
        "s,want",
        [
            ("2.5+30j", -1.076435240323578 - 0.07785211576751637j),
            ("2.000000001", -0.8224670335254298),
        ],
        ids=["2.5+30j", "2.000000001"],
    )
    def test_contour_miss_falls_back_to_series(self, capsys, s, want):
        code, out, _ = run(capsys, "specfun", "polylog", "--", s, "-1")
        assert code == EXIT_OK
        assert abs(complex(out.split()[0]) - want) <= 1e-10 * (1.0 + abs(want))

    def test_gamma_pole_is_domain_error(self, capsys):
        code, _, err = run(capsys, "specfun", "gamma", "0")
        assert code == EXIT_DOMAIN
        assert "error:" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "specfun", "zeta", "1", "2")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["hurwitz", "2", "inf"], EXIT_DOMAIN),
            (["zeta", "inf"], EXIT_DOMAIN),
            (["zeta", "nan+1j"], EXIT_DOMAIN),
            (["polygamma", "3", "inf"], EXIT_DOMAIN),
            (["polylog", "2", "nan"], EXIT_DOMAIN),
            (["gamma", "200"], EXIT_DOMAIN),
            (["polygamma", "1e10", "1"], EXIT_DOMAIN),
            (["zeta", "1e300"], EXIT_OK),
            (["gamma", "-200.5"], EXIT_OK),
            (["gamma", "--", "-0.5+500j"], EXIT_OK),  # Gamma(1-s) underflows
            (["gamma", "1e-320"], EXIT_DOMAIN),  # Gamma overflows next to the pole at 0
            (["gamma", "--", "-1e-320"], EXIT_DOMAIN),
            (["gamma", "5e-324"], EXIT_DOMAIN),
        ],
    )
    def test_non_finite_or_overflowing_input(self, capsys, argv, want):
        code, out, err = run(capsys, "specfun", *argv)
        assert code == want
        if want == EXIT_DOMAIN:
            assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["polygamma", "2.5", "1"],  # printed psi''(1)
            ["polygamma", "1+1j", "1"],  # printed psi'(1)
            ["hurwitz", "2", "0.5+1j"],  # printed zeta(2, 0.5)
            ["polygamma", "1", "0.5+1j"],
        ],
    )
    def test_argument_parts_are_not_dropped(self, capsys, argv):
        code, out, err = run(capsys, "specfun", *argv)
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith("error:")

    def test_underflowing_gamma_is_signed_zero(self, capsys):
        _, out, _ = run(capsys, "specfun", "gamma", "-200.5")
        assert out.split()[0] == "-0.0"

    def test_zeta_by_reflection(self, capsys):
        code, out, _ = run(capsys, "specfun", "zeta", "-3")
        assert code == EXIT_OK
        assert abs(float(out.split()[0]) - 1.0 / 120.0) <= 1e-15
        # mpmath 1.3.0 at 30 digits
        code, out, _ = run(capsys, "specfun", "zeta", "-30.5")
        assert code == EXIT_OK
        want = 149774871.277934754838681857555
        assert abs(float(out.split()[0]) - want) <= 1e-13 * want

    def test_gamma_where_sine_overflows(self, capsys):
        # sin(pi s) leaves the float range above |Im s| ~ 226; mpmath 1.3.0
        code, out, _ = run(capsys, "specfun", "gamma", "--", "-0.5+300j")
        assert code == EXIT_OK
        want = complex(-9.76004909162754138e-208, 1.56329835798589341e-207)
        assert abs(complex(out.split()[0]) - want) <= 1e-13 * abs(want)

    def test_zeta_where_gamma_overflows(self, capsys):
        # Gamma(1 - s) overflows below Re s ~ -170, zeta(s) only below -259
        code, out, _ = run(capsys, "specfun", "zeta", "--", "-180.5")
        assert code == EXIT_OK
        want = -5.1567927348837000276669221504e185  # mpmath 1.3.0
        assert abs(float(out.split()[0]) - want) <= 1e-12 * abs(want)
        code, out, err = run(capsys, "specfun", "zeta", "--", "-262.5")
        assert code == EXIT_DOMAIN
        assert out == "" and "overflows" in err


class TestTensor:
    def test_between_midpoint(self, capsys):
        code, out, _ = run(capsys, "tensor", "--a", "1", "--x3", "0.5")
        assert code == EXIT_OK
        fields = dict(
            line.split("=", 1) for line in out.splitlines() if "=" in line and " " not in line
        )
        assert fields["region"] == "between"
        expected00 = -(math.pi**2 / 1440.0 + math.pi**2 / 48.0)
        assert float(fields["t00"]) == pytest.approx(expected00, rel=1e-12)
        assert float(fields["t33"]) == pytest.approx(-math.pi**2 / 480.0, rel=1e-12)

    def test_outside_point(self, capsys):
        code, out, _ = run(capsys, "tensor", "--a", "1", "--x3", "-0.5")
        assert code == EXIT_OK
        assert "region=left" in out
        assert "B= milton_B=" in out

    @pytest.mark.parametrize("x3", ["1e-3", "1e-4", "1e-7"])
    def test_near_plate_point(self, capsys, x3):
        # within about 2.3e-3 a of a plate the cosine form of B cancels;
        # the sine form used at runtime stays accurate there
        code, out, _ = run(capsys, "tensor", "--a", "1", "--x3", x3)
        assert code == EXIT_OK
        fields = dict(part.split("=", 1) for part in out.split())
        want = milton_B(PlateConfig(a=1.0), EvalPoint(float(x3)))
        assert float(fields["B"]) == pytest.approx(want, rel=1e-12)

    def test_far_field_prints_signed_zeros(self, capsys):
        code, out, _ = run(capsys, "tensor", "--a", "1", "--x3=-1e100")
        assert code == EXIT_OK
        assert "t00=-0.0\nt11=0.0\nt22=0.0\nt33=0.0\n" in out

    @pytest.mark.parametrize("x3", ["1e-100", "-1e-100"])
    def test_overflow_next_to_plate_rejected(self, capsys, x3):
        code, _, err = run(capsys, "tensor", "--a", "1", f"--x3={x3}")
        assert code == EXIT_DOMAIN
        assert "overflows" in err

    def test_huge_separation(self, capsys):
        code, out, _ = run(capsys, "tensor", "--a", "1e100", "--x3", "0.5")
        assert code == EXIT_OK
        fields = dict(part.split("=", 1) for part in out.split())
        b = 1.0 / (16.0 * math.pi**2 * 0.5**4)
        assert float(fields["B"]) == pytest.approx(b, rel=1e-15)
        assert fields["milton_B"] == ""  # a^4 overflows in the Hurwitz form
        assert float(fields["t00"]) == -float(fields["B"])
        assert fields["pressure_magnitude"] == "0.0"

    def test_tiny_separation_rejected(self, capsys):
        code, _, err = run(capsys, "tensor", "--a", "1e-100", "--x3", "5e-101")
        assert code == EXIT_DOMAIN
        assert "overflows" in err

    def test_point_on_plate_rejected(self, capsys):
        code, _, err = run(capsys, "tensor", "--a", "1", "--x3", "0")
        assert code == EXIT_DOMAIN

    def test_zero_separation_rejected(self, capsys):
        code, _, err = run(capsys, "tensor", "--a", "0", "--x3", "0.5")
        assert code == EXIT_DOMAIN


# each subcommand with its required flags; a repeated flag keeps the last value
_BASE_ARGV = {
    "tensor": ["--a", "1", "--x3", "0.5"],
    "profile": [],
    "convergence": ["--u", "5", "--a", "1", "--x3", "0.5", "--L-list", "10"],
    "pressure": ["--a", "1"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,flag",
    [
        ("tensor", "--a"),
        ("tensor", "--xi"),
        ("tensor", "--x3"),
        ("profile", "--a"),
        ("profile", "--xi"),
        ("profile", "--x3-min"),
        ("profile", "--x3-max"),
        ("convergence", "--a"),
        ("convergence", "--xi"),
        ("convergence", "--x3"),
        ("pressure", "--a"),
    ],
)
def test_non_finite_float_flag_exits_2(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, *_BASE_ARGV[command], f"{flag}={value}")
    assert exc.value.code == EXIT_DOMAIN
    assert capsys.readouterr().out == ""


class TestProfile:
    def test_csv_header_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "profile", "--a", "1", "--n-points", "5",
                "--x3-min", "0.1", "--x3-max", "0.9", "--output", str(out),
            )
            assert code == EXIT_OK
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "x3,region,t00,t11,t22,t33,B,milton_B"
        assert len(b1.decode().strip().splitlines()) == 6

    def test_csv_round_trips_exactly(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        run(
            capsys, "profile", "--a", "1", "--n-points", "3",
            "--x3-min", "0.25", "--x3-max", "0.75", "--output", str(out),
        )
        lines = out.read_text().strip().splitlines()[1:]
        mid = lines[1].split(",")
        assert float(mid[0]) == 0.5
        assert float(mid[6]) == math.pi**2 / 48.0  # exact round trip

    def test_json_schema(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        code, _, _ = run(
            capsys, "profile", "--a", "2", "--xi", "0.1", "--n-points", "4",
            "--x3-min", "0.4", "--x3-max", "1.6", "--format", "json",
            "--output", str(out),
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["meta"]["tool"] == "zetacasimir"
        assert doc["meta"]["inputs"]["a"] == 2.0
        assert "tolerances" not in doc["meta"]  # the closed forms take no tolerance
        assert len(doc["rows"]) == 4
        row = doc["rows"][0]
        assert set(row) == {"x3", "region", "t00", "t11", "t22", "t33", "B", "milton_B"}
        assert row["region"] == "between"

    def test_outside_grid_needs_flag(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, err = run(
            capsys, "profile", "--a", "1", "--n-points", "3",
            "--x3-min", "-0.5", "--x3-max", "0.5", "--output", str(out),
        )
        assert code == EXIT_DOMAIN
        code, _, _ = run(
            capsys, "profile", "--a", "1", "--n-points", "2",
            "--x3-min", "-0.5", "--x3-max", "0.5", "--include-outside",
            "--output", str(out),
        )
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert rows[0].split(",")[1] == "left"
        assert rows[0].split(",")[6] == ""  # B empty outside

    def test_grid_point_on_plate_rejected(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "profile", "--a", "1", "--n-points", "3",
            "--x3-min", "0.0", "--x3-max", "1.0", "--include-outside",
            "--output", str(out),
        )
        assert code == EXIT_DOMAIN

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "profile", "--a", "1",
            "--output", str(tmp_path / "missing" / "p.csv"),
        )
        assert code == EXIT_IO

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(
            "a = 2.0\n"
            "n-points = 3\n"
            "x3-min = 0.5   # comment\n"
            "x3-max = 1.5\n"
            "output = unused.csv\n"
        )
        out = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "profile", "--config", str(cfg), "--output", str(out),
        )
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 3  # from config
        assert float(rows[0].split(",")[0]) == 0.5  # config grid
        assert not (tmp_path / "unused.csv").exists()  # flag beat config

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("plates = 3\n")
        code, _, err = run(capsys, "profile", "--config", str(cfg))
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "line", ["format = xml", "include_outside = maybe", "n-points = abc", "xi = nan"]
    )
    def test_bad_config_value(self, capsys, tmp_path, line):
        # argparse checks a config value as it checks the flag's
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "p.csv"
        try:
            code = run(capsys, "profile", "--config", str(cfg), "--output", str(out))[0]
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == EXIT_DOMAIN
        assert not out.exists()

    def test_malformed_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "profile", "--n-points", "abc")
        assert exc.value.code == EXIT_DOMAIN

    def test_config_switch_and_key_spellings(self, capsys, tmp_path):
        cfg = tmp_path / "outside.cfg"
        cfg.write_text(
            "include_outside = yes\n"
            "n_points = 2\n"
            "x3-min = -0.5\n"
            "x3_max = -0.25\n"
            "format = json\n"
        )
        out = tmp_path / "p.json"
        code, _, _ = run(capsys, "profile", "--config", str(cfg), "--output", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["meta"]["inputs"] == {
            "a": 1.0, "xi": 0.0, "n_points": 2, "x3_min": -0.5, "x3_max": -0.25,
            "include_outside": True,
        }
        assert [row["region"] for row in doc["rows"]] == ["left", "left"]
        cfg.write_text("include-outside = no\nn-points = 2\nx3-min = -0.5\n")
        code, _, _ = run(capsys, "profile", "--config", str(cfg), "--output", str(out))
        assert code == EXIT_DOMAIN  # the switch stays off

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "profile", "--config", str(tmp_path / "nope.cfg"),
        )
        assert code == EXIT_DOMAIN


# profile grids pinned by the sha256 of their CSV and JSON files, frozen from
# the row-by-row implementation (commit 5a8754a); the grid is now taken in
# one array pass and must keep every byte
PINNED_GRIDS = {
    # like the benchmark's between-plates grids
    "between": ["--a", "2.37", "--xi", "0.41", "--n-points", "2000",
                "--x3-min", "0.474", "--x3-max", "2.1567"],
    "left": ["--a", "0.8", "--xi", "0.9", "--n-points", "700",
             "--x3-min=-0.4", "--x3-max=-0.008", "--include-outside"],
    "right": ["--a", "5.5", "--xi", "0.05", "--n-points", "600",
              "--x3-min", "5.6", "--x3-max", "8.2", "--include-outside"],
    # both plates and all three regions in one grid
    "span": ["--a", "1", "--xi", "0.5", "--n-points", "1001",
             "--x3-min=-3", "--x3-max", "4", "--include-outside"],
    # down to x3/a = 1e-12: zeta(4, q) returns its first term alone below q ~ 8e-5
    "near_plate": ["--a", "1.3", "--xi", "0.2", "--n-points", "1000",
                   "--x3-min", "1.3e-12", "--x3-max", "1.3e-4"],
    # a^4 overflows: B from the plate images, milton_B empty
    "huge_a": ["--a", "1e80", "--xi", "0.7", "--n-points", "400",
               "--x3-min", "1e70", "--x3-max", "9.9e79"],
    # sin^4 underflows below x3/a ~ 4e-78 (the images again), and zeta(4, q)
    # overflows below q ~ 1e-77 (milton_B empty)
    "underflowing_sine": ["--a", "1e10", "--n-points", "400",
                          "--x3-min", "1e-72", "--x3-max", "1e-60"],
    # the far field underflows to signed zeros
    "far_field": ["--a", "1", "--xi", "0.3", "--n-points", "50",
                  "--x3-min=-1e300", "--x3-max=-1e299", "--include-outside"],
    "one_point": ["--a", "1", "--n-points", "1", "--x3-min", "0.1", "--x3-max", "0.3"],
    # (1 - 6 xi) B overflows: the tensor prints +-inf (+-Infinity in JSON)
    "overflowing_tensor": ["--a", "1e-70", "--xi=-1e300", "--n-points", "50",
                           "--x3-min", "1e-72", "--x3-max", "9e-71"],
}

# grids without a file: the first bad point in grid order gives the error
# that the row-by-row implementation gave
FAILING_GRIDS = {
    "on_plate": ["--a", "1", "--n-points", "3", "--x3-min", "0", "--x3-max", "1",
                 "--include-outside"],
    "outside_without_flag": ["--a", "1", "--n-points", "5", "--x3-min", "0.5", "--x3-max", "2"],
    "a_overflows": ["--a", "1e-80", "--n-points", "5", "--x3-min", "1e-82", "--x3-max", "9e-81"],
    "b_overflows": ["--a", "1", "--n-points", "5", "--x3-min", "1e-100", "--x3-max", "0.5"],
    "b_overflows_before_outside": ["--a", "1", "--n-points", "5", "--x3-min", "1e-100",
                                   "--x3-max", "3"],
    "outside_before_b_overflows": ["--a", "1", "--n-points", "5", "--x3-min=-3",
                                   "--x3-max", "1e-100"],
    "outside_tensor_overflows": ["--a", "1", "--n-points", "4", "--x3-min=-1e-100",
                                 "--x3-max=-1e-101", "--include-outside"],
    "right_tensor_overflows": ["--a", "1e-100", "--n-points", "3",
                               "--x3-min", "1.0000000000000002e-100", "--x3-max", "1e-99",
                               "--include-outside"],
    "zero_separation": ["--a", "0", "--n-points", "3", "--x3-min=-1", "--x3-max", "1",
                        "--include-outside"],
    "step_overflows": ["--a", "1", "--n-points", "3", "--x3-min=-1e308", "--x3-max", "1e308",
                       "--include-outside"],
}

PINNED_DIGESTS = {
    "between": (
        "ae6935ab6b17ab9ff495f587646aec4a3e647b8ccbe14699a2086dac49ba4a99",
        "12bb59b7e123ef1967f525fc5ac2306e7557d7b9d7e1fc122bf308d3bea70376",
    ),
    "left": (
        "305b82369266b5fef54b47114ace23ac9e51046fba7f38e6eea0a56555123256",
        "185ed725714afc52962945cbc18c173836ed7876f0ef78a37d93d7098f8bc280",
    ),
    "right": (
        "f38a35e8dfc81da8b41d87d485cab0271b2dc29085522afdf5e4f808e302f68d",
        "ea81b27b93ffaefcd1c71a436afb12101a94b865820606bc17aa0d7f86eb414f",
    ),
    "span": (
        "2db55064fb6d6cab2c64e51c1faeff1114eed312a37df74fd8299f8ea96ceec4",
        "9d9809eb36fa73203a2e67da0928af36a59fa41529d1cc474c2c81a2ff5e5b17",
    ),
    "near_plate": (
        "10f2fe8192c55d74ae527efda4013fb67898409c924a2f002a973cf7d158a37d",
        "2b7cfcf48a1a0af20858991986b2aa5afaa13bab0079357333ad33450c89df1e",
    ),
    "huge_a": (
        "fdf4a2e9f8bf3d165ad94567f6d06040e16ba1d8f2b28a65670199fd9d07be88",
        "b350dee9f1e9bb629d1a1d8fa626aeb40c755e40c9392bdd12a2f0e89a8fe374",
    ),
    "underflowing_sine": (
        "ea3ea4014b8f1c04c94c874e81d374b5f3ea5a666f963d26f383cd2606f5c6ce",
        "8d6991655b6a2909d85afa6814d130515b4573bf9600c40afd501be06feb6efd",
    ),
    "far_field": (
        "479b01570cd3f7dbd50dfb4cf4fc101756f1d4bf233827aee9499bbb91895191",
        "48e93c83784324453be661cfee83b424ef03caad112895794b192623714cca37",
    ),
    "overflowing_tensor": (
        "8d77bd6586ae8163faa8ba2581c75f36a5c84ef3cf8591645f78a03a1990fbec",
        "c0ea7e98f472224915b014f8c65e5e6529fe9f4c36cbee77e61f2339d6b42437",
    ),
    "one_point": (
        "68d1c2d6de351d3bdeb966d9e9d8209ae919bc705bf66a34933e708a01e2ed82",
        "93dc8cc9ad64352922cf00a1f839773ad96f0389f45c677068c835f7b6c02ae0",
    ),
}

FAILING_ERRORS = {
    "on_plate": (
        2, 'error: x3 = 0.0 lies exactly on a plate'
    ),
    "outside_without_flag": (
        2, 'error: grid point x3 = 1.25 is outside the plates; pass --include-outside to allow it'
    ),
    "a_overflows": (
        2, 'error: A overflows at a = 1e-80'
    ),
    "b_overflows": (
        2, 'error: B overflows at x3/a = 1e-100'
    ),
    "b_overflows_before_outside": (
        2, 'error: B overflows at x3/a = 1e-100'
    ),
    "outside_before_b_overflows": (
        2, 'error: grid point x3 = -3.0 is outside the plates; pass --include-outside to allow it'
    ),
    "outside_tensor_overflows": (
        2, 'error: the tensor overflows at distance 1e-100 from the plate'
    ),
    "right_tensor_overflows": (
        2, 'error: the tensor overflows at distance 1.2689709186578246e-116 from the plate'
    ),
    "zero_separation": (
        2, 'error: plate separation must be positive, got 0.0'
    ),
    "step_overflows": (
        2, 'error: x3 = nan lies exactly on a plate'
    ),
}


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(PINNED_GRIDS))
def test_profile_bytes_match_parent(capsys, tmp_path, name, fmt_name):
    out = tmp_path / f"p.{fmt_name}"
    code, _, err = run(
        capsys, "profile", *PINNED_GRIDS[name], "--format", fmt_name, "--output", str(out)
    )
    assert (code, err) == (EXIT_OK, "")
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_DIGESTS[name][fmt_name == "json"]
    if fmt_name == "json":  # json.dump is the oracle of the streamed rows
        text = data.decode()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(FAILING_GRIDS))
def test_profile_errors_match_parent(capsys, tmp_path, name, fmt_name):
    out = tmp_path / f"p.{fmt_name}"
    code, stdout, err = run(
        capsys, "profile", *FAILING_GRIDS[name], "--format", fmt_name, "--output", str(out)
    )
    want_code, want_err = FAILING_ERRORS[name]
    assert (code, stdout, err) == (want_code, "", want_err + "\n")
    assert not out.exists()


class TestToleranceProfile:
    def test_default_is_strict(self, capsys):
        # specfun reports the pipeline tolerance it evaluates at
        code, out, _ = run(capsys, "specfun", "zeta", "2")
        assert code == EXIT_OK
        assert "tol=1e-10" in out


class TestConvergence:
    def test_study_passes_certified_bounds(self, capsys):
        code, out, _ = run(
            capsys, "convergence", "--u", "5", "--a", "1", "--x3", "0.5",
            "--L-list", "100,1000",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("L bruteforce_t00")
        assert all(line.endswith("ok") for line in lines[1:])

    @pytest.mark.parametrize("u", ["5.2+0.4j", "4.6"])
    def test_one_pass_matches_single_truncations(self, capsys, u):
        # one pass serves every L; rows keep the given order and repeats
        ells = [300_001, 1000, 1025, 1000, 131_073]
        code, out, _ = run(
            capsys, "convergence", "--u", u, "--a", "1.5", "--xi", "0.1",
            "--x3", "0.45", "--L-list", ",".join(map(str, ells)),
        )
        assert code == EXIT_OK
        cfg, p = PlateConfig(a=1.5, xi=0.1), EvalPoint(0.45)
        closed = regularized_vev(complex(u), cfg, p)
        want = []
        for L in ells:
            res = mode_sum_bruteforce(complex(u), cfg, p, L)
            diff = abs(res.tensor.t00 - closed.t00)
            bound = abs(res.tail_bound.t00)
            want.append(
                f"{L} {_fmt_complex(res.tensor.t00)} {_fmt_complex(closed.t00)} "
                f"{fmt(diff)} {fmt(bound)} {'ok' if diff <= bound else 'FAIL'}"
            )
        assert out.splitlines()[1:] == want

    @pytest.mark.parametrize("u", ["6", "7"])
    def test_closed_form_rounding_is_not_a_failure(self, capsys, u):
        # at L = 10^6 the tail bound drops below the rounding error of the
        # closed form (|diff| ~ 2e-15 on t00 ~ 1e-3 at u = 6)
        code, out, _ = run(
            capsys, "convergence", "--u", u, "--a", "1", "--x3", "0.5",
            "--L-list", "1000000",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].endswith(" ok")

    def test_wrong_closed_form_fails(self, capsys, monkeypatch):
        real = cli.regularized_coefficients

        def perturbed(*args, **kwargs):
            c = real(*args, **kwargs)
            return RegularizedCoefficients(A_u=c.A_u * (1.0 + 1e-8), B_u=c.B_u)

        monkeypatch.setattr(cli, "regularized_coefficients", perturbed)
        code, out, _ = run(
            capsys, "convergence", "--u", "6", "--a", "1", "--x3", "0.5",
            "--L-list", "1000000",
        )
        assert code == EXIT_CONVERGENCE
        assert out.splitlines()[1].endswith(" FAIL")

    def test_large_imaginary_regulator(self, capsys):
        # B_u needs Li_(2.5+30i)(-1), where the contour does not converge
        code, out, _ = run(
            capsys, "convergence", "--u", "5.5+30j", "--a", "1", "--x3", "0.5",
            "--L-list", "1000",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1].endswith(" ok")

    def test_bad_truncation_order_rejected_before_any_row(self, capsys):
        code, out, _ = run(
            capsys, "convergence", "--u", "5", "--a", "1", "--x3", "0.5",
            "--L-list", "10,0",
        )
        assert code == EXIT_DOMAIN
        assert out == ""

    @pytest.mark.parametrize("ells", [",", ""])
    def test_empty_truncation_list_rejected(self, capsys, ells):
        with pytest.raises(SystemExit) as exc:
            run(
                capsys, "convergence", "--u", "5", "--a", "1", "--x3", "0.5",
                f"--L-list={ells}",
            )
        assert exc.value.code == EXIT_DOMAIN
        assert capsys.readouterr().out == ""

    def test_nonconvergent_regulator_rejected(self, capsys):
        code, _, err = run(
            capsys, "convergence", "--u", "4", "--a", "1", "--x3", "0.5",
            "--L-list", "10",
        )
        assert code == EXIT_DOMAIN


class TestPressure:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "pressure", "--a", "1")
        assert code == EXIT_OK
        mag = math.pi**2 / 480.0
        assert f"plate_at_0 (0.0, 0.0, {fmt(mag)})" in out
        assert f"plate_at_a (0.0, 0.0, {fmt(-mag)})" in out

    def test_huge_separation_underflows(self, capsys):
        code, out, _ = run(capsys, "pressure", "--a", "1e100")
        assert code == EXIT_OK
        assert "plate_at_0 (0.0, 0.0, 0.0)\nplate_at_a (0.0, 0.0, -0.0)\n" in out

    def test_tiny_separation_rejected(self, capsys):
        code, _, err = run(capsys, "pressure", "--a", "1e-100")
        assert code == EXIT_DOMAIN
        assert "overflows" in err
