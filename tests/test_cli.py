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

    def test_gamma_pole_is_domain_error(self, capsys):
        code, _, err = run(capsys, "specfun", "gamma", "0")
        assert code == EXIT_DOMAIN
        assert "error:" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "specfun", "zeta", "1", "2")
        assert code == EXIT_DOMAIN


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
        assert set(doc["meta"]["tolerances"]) == {"series", "quadrature"}
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

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "profile", "--config", str(tmp_path / "nope.cfg"),
        )
        assert code == EXIT_DOMAIN


class TestToleranceProfile:
    def test_fast_profile_changes_reported_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("ZETACASIMIR_TOLERANCE", "fast")
        code, out, _ = run(capsys, "specfun", "zeta", "2")
        assert code == EXIT_OK
        assert "tol=1e-08" in out

    def test_default_is_strict(self, capsys, monkeypatch):
        monkeypatch.delenv("ZETACASIMIR_TOLERANCE", raising=False)
        code, out, _ = run(capsys, "specfun", "zeta", "2")
        assert code == EXIT_OK
        assert "tol=1e-10" in out

    def test_unknown_profile_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("ZETACASIMIR_TOLERANCE", "sloppy")
        code, _, err = run(capsys, "specfun", "zeta", "2")
        assert code == EXIT_DOMAIN


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

    def test_bad_truncation_order_rejected_before_any_row(self, capsys):
        code, out, _ = run(
            capsys, "convergence", "--u", "5", "--a", "1", "--x3", "0.5",
            "--L-list", "10,0",
        )
        assert code == EXIT_DOMAIN
        assert out == ""

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
