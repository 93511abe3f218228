import re

import numpy as np
import pytest

from circleclone.cli import BOUND_SWEEP_HEADER, FIDELITY_SWEEP_HEADER, format_number, main
from circleclone.cloner import clone_report, isotropy_scan

SYMMETRIC_ETA = repr(2**-0.5)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def assert_one_line_error(err):
    assert err.count("\n") == 1 and "error" in err and "Traceback" not in err, err


def parse_report_value(output, label):
    match = re.search(rf"^{re.escape(label)}\s*:\s*([-0-9.]+)", output, re.MULTILINE)
    assert match, f"no '{label}' line in output:\n{output}"
    return float(match.group(1))


class TestFormatNumber:
    def test_ten_significant_digits(self):
        assert format_number(1.0) == "1.000000000"
        assert format_number(0.5 + np.sqrt(0.125)) == "0.8535533906"
        assert format_number(np.pi / 2) == "1.570796327"

    def test_fixed_notation_for_small_values(self):
        text = format_number(2.5e-13)
        assert "e" not in text and "E" not in text
        assert float(text) == pytest.approx(2.5e-13, rel=1e-9)

    def test_negative_zero_normalized(self):
        assert format_number(-0.0) == "0.000000000"


class TestCloneCommand:
    def test_symmetric_point(self, capsys):
        assert main(["clone", "--theta", "0.7853981633974483",
                     "--eta1", SYMMETRIC_ETA, "--eta2", SYMMETRIC_ETA]) == 0
        output = capsys.readouterr().out
        expected = 0.5 + np.sqrt(0.125)
        assert parse_report_value(output, "fidelity_o") == pytest.approx(expected, abs=1e-9)
        assert parse_report_value(output, "fidelity_b") == pytest.approx(expected, abs=1e-9)
        assert re.search(r"on optimal circle\s*:\s*yes", output)

    def test_perfect_trivial_endpoint(self, capsys):
        assert main(["clone", "--theta", "0", "--eta1", "1", "--eta2", "0"]) == 0
        output = capsys.readouterr().out
        assert parse_report_value(output, "fidelity_o") == pytest.approx(1.0, abs=1e-12)
        assert parse_report_value(output, "fidelity_b") == pytest.approx(0.5, abs=1e-12)

    def test_off_circle_flagged(self, capsys):
        assert main(["clone", "--theta", "1.5707963267948966", "--eta1", "0.5", "--eta2", "0.5"]) == 0
        output = capsys.readouterr().out
        assert re.search(r"on optimal circle\s*:\s*no", output)
        match = re.search(r"shrink_o \(z, x\)\s*:\s*([-0-9.]+), ([-0-9.]+)", output)
        assert match
        assert float(match.group(1)) == pytest.approx(0.5, abs=1e-9)
        assert float(match.group(2)) == pytest.approx(np.sqrt(0.75), abs=1e-9)

    def test_degrees_flag(self, capsys):
        assert main(["clone", "--theta", "90", "--degrees", "--eta1", "1", "--eta2", "0"]) == 0
        output = capsys.readouterr().out
        assert parse_report_value(output, "theta (rad)") == pytest.approx(np.pi / 2, abs=1e-9)

    def test_out_of_range_eta_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "--theta", "0", "--eta1", "1.5", "--eta2", "0"])
        assert excinfo.value.code == 2

    def test_malformed_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "--theta", "0", "--eta1", "0.5", "--eta2", "0.5", "--nonsense"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("values", [("nan", "0.5", "0.5"), ("inf", "0.5", "0.5"),
                                        ("0", "nan", "0.5"), ("0", "0.5", "inf")])
    def test_non_finite_input_exits_2_with_one_line(self, values, capsys):
        theta, eta1, eta2 = values
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "--theta", theta, "--eta1", eta1, "--eta2", eta2])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestBoundSweepCommand:
    def test_endpoints_only(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert main(["bound-sweep", "--n-phi", "2", "--out", str(out), "--budget", "600"]) == 0
        header, rows = read_csv(out)
        assert header == BOUND_SWEEP_HEADER
        assert len(rows) == 2
        assert rows[0][0] == 0.0
        assert rows[1][0] == pytest.approx(np.pi / 2, abs=1e-9)
        for row in rows:
            phi, eta1, eta2, found, circle, deviation = row
            assert circle == 1.0
            assert deviation <= 2e-3
            assert eta1 == pytest.approx(found * np.cos(phi), abs=1e-9)
            assert eta2 == pytest.approx(found * np.sin(phi), abs=1e-9)

    def test_single_point_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound-sweep", "--n-phi", "1", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("option", [["--radius-tol", "nan"], ["--budget", "0"], ["--radius-tol", "0"]])
    def test_bad_setting_exits_2_with_one_line(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound-sweep", "--n-phi", "2", *option])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_endpoint_cells_are_exact(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert main(["bound-sweep", "--n-phi", "2", "--out", str(out), "--budget", "600"]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1].split(",")[1] == "0.000000000"

    def test_one_progress_line_per_direction(self, capsys):
        assert main(["bound-sweep", "--n-phi", "3", "--budget", "400"]) == 0
        captured = capsys.readouterr()
        progress = captured.err.splitlines()[1:]
        assert len(progress) == 3
        for line, phi in zip(progress, ("0.000000", "0.785398", "1.570796")):
            match = re.fullmatch(rf"phi={phi}  radius=\[([0-9.]+), ([0-9.]+)\]  iterations=([0-9]+)", line)
            assert match, line
            lower, upper, iterations = float(match[1]), float(match[2]), int(match[3])
            assert lower <= 1.0 <= upper and upper - lower <= 1e-3, line
            assert 1 <= iterations <= 20, line
        assert captured.out.startswith(BOUND_SWEEP_HEADER + "\n")

    def test_unwritable_path_exits_2(self, capsys):
        assert main(["bound-sweep", "--n-phi", "2", "--budget", "400",
                     "--out", "/nonexistent-dir/never/x.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["bound-sweep", "--n-phi", "3", "--budget", "500", "--seed", "7"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestFidelitySweepCommand:
    def test_five_point_sweep(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity-sweep", "--n-points", "5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == FIDELITY_SWEEP_HEADER
        assert len(rows) == 5
        by_phi = {round(row[0], 6): row for row in rows}
        # endpoints and the symmetric midpoint
        assert by_phi[0.0][3] == pytest.approx(1.0, abs=1e-10)
        assert by_phi[0.0][4] == pytest.approx(0.5, abs=1e-10)
        mid = by_phi[round(np.pi / 4, 6)]
        assert mid[3] == pytest.approx(0.5 + np.sqrt(0.125), abs=1e-10)
        assert mid[4] == pytest.approx(0.5 + np.sqrt(0.125), abs=1e-10)
        eighth = by_phi[round(np.pi / 8, 6)]
        assert eighth[3] == pytest.approx((1 + np.cos(np.pi / 8)) / 2, abs=1e-10)
        assert eighth[4] == pytest.approx((1 + np.sin(np.pi / 8)) / 2, abs=1e-10)
        for row in rows:
            assert row[3] == pytest.approx((1 + row[1]) / 2, abs=1e-10)
            assert row[4] == pytest.approx((1 + row[2]) / 2, abs=1e-10)
            assert row[5] >= -1e-10  # separable all along the circle
            assert row[6] <= 1e-10

    def test_no_scientific_notation_in_cells(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity-sweep", "--n-points", "3", "--out", str(out)]) == 0
        body = out.read_text(encoding="utf-8").split("\n", 1)[1]
        assert "e" not in body and "E" not in body

    def test_endpoint_cells_are_exact(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity-sweep", "--n-points", "3", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1].split(",")[1] == "0.000000000"

    def test_bad_count_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fidelity-sweep", "--n-points", "1"])
        assert excinfo.value.code == 2

    def test_cells_match_one_report_per_direction(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity-sweep", "--n-points", "6", "--samples", "16", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        for k, line in enumerate(lines):
            phi = k * (np.pi / 2) / 5
            etas = (1.0, 0.0) if k == 0 else (0.0, 1.0) if k == 5 else (np.cos(phi), np.sin(phi))
            report = clone_report(0.9, etas)
            expected = [report.fidelity_o, report.fidelity_b, report.ppt_min_eigenvalue, isotropy_scan(etas, 16)]
            assert line.split(",")[3:] == [format_number(value) for value in expected]

    def test_deterministic_output(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["fidelity-sweep", "--n-points", "4", "--out", str(first)]) == 0
        assert main(["fidelity-sweep", "--n-points", "4", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestVerifyCommand:
    def test_reduced_suite_passes(self, capsys):
        code = main(["verify", "--samples", "25", "--budget", "400", "--seed", "3"])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "FAIL" not in output
        assert re.search(r"PASS\s+fidelity_law", output)
        assert re.search(r"PASS\s+circle_recovery", output)

    def test_starved_budget_fails(self, capsys):
        code = main(["verify", "--samples", "25", "--budget", "5", "--seed", "3"])
        output = capsys.readouterr().out
        assert code == 1
        assert re.search(r"FAIL\s+on_circle_feasibility", output)
        assert re.search(r"FAIL\s+circle_recovery", output)

    def test_bad_tolerance_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--radius-tol", "-1"])
        assert excinfo.value.code == 2

    def test_degenerate_samples_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--samples", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["verify"], ["bound-sweep", "--n-phi", "2"]])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_exits_2_with_one_line(self, command, seed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--seed", seed])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)
