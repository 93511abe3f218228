import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circleclone import cli, cloner
from circleclone.cli import (BOUND_SWEEP_HEADER, FIDELITY_SWEEP_HEADER, _directions, build_parser, format_cells,
                              format_number, main)
from circleclone.cloner import clone_report, coefficients, isotropy_scan

SYMMETRIC_ETA = repr(2**-0.5)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def assert_one_line_error(err):
    assert err.count("\n") == 1 and "error" in err and "Traceback" not in err, err


def assert_unwritable_out_fails_first(command, monkeypatch, capsys):
    """An ``--out`` that cannot be opened ends ``command`` with exit code 2 and one stderr line, before any work."""
    monkeypatch.setattr(cli, "_directions", lambda n: pytest.fail("the sweep computed before it opened --out"))
    for path in ["/nonexistent-dir/never/x.csv", ""]:
        assert main(command + ["--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error(captured.err)


def assert_same_csv_twice(args, tmp_path):
    """Run ``args`` twice, each writing its CSV to a file; both must hold the same bytes. Returns the rows."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    return read_csv(first)[1]


def parse_report_value(output, label):
    match = re.search(rf"^{re.escape(label)}\s*:\s*([-0-9.]+)", output, re.MULTILINE)
    assert match, f"no '{label}' line in output:\n{output}"
    return float(match.group(1))


def numpy_positional(x):
    """The reference for every printed cell: numpy's exact positional formatter at 10 significant digits."""
    if not np.isfinite(x):
        return "nan"
    return np.format_float_positional(x + 0.0, precision=10, unique=False, fractional=False, trim="k")


def oracle_sample():
    """A seeded sample of 162,198 doubles, each of either sign, over every class the fast rule and the exact route
    split between."""
    rng = np.random.default_rng(33)
    powers = 10.0 ** np.arange(-25, 13)
    decimals = np.round(rng.uniform(1, 10, 6000), 9) * 10.0 ** rng.integers(-20, 12, 6000)
    classes = [
        rng.uniform(-1, 1, 20000),
        rng.choice([-1.0, 1.0], 30000) * 10.0 ** rng.uniform(-25, 12, 30000),
        np.arange(1024, 10240) / 1024 * 2.0 ** rng.integers(-60, 30, 9216),  # exact values, dyadic ties among them
        (10 - rng.uniform(1e-10, 1e-9, 2000)) * 10.0 ** rng.integers(-20, 10, 2000),  # carries, 9.99999999951
        np.repeat(powers, 20) * (1 + rng.uniform(-3e-9, 3e-9, 20 * powers.size)),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        decimals, np.nextafter(decimals, 0), np.nextafter(decimals, np.inf),
        rng.uniform(0, 2.0**-1022, 1000),  # subnormals
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e9, 999999999.5, 1234567890.5],
    ]
    values = np.concatenate(classes)
    return np.concatenate([values, -values])


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

    # Exact values and values rounded up drop their trailing zeros; a value above its rounding keeps them.
    @pytest.mark.parametrize(("value", "text"), [
        (0.5, "0.500000000"),
        (0.1, "0.1000000000"),
        (0.2, "0.2000000000"),
        (0.051984173097764125, "0.0519841731"),
        (1.0009765625, "1.000976562"),  # an exact tie, rounded to the even digit
        (9.99999999951, "10.00000000"),  # the rounding carries into the next power of ten
        (-1.25e-17, "-0.0000000000000000125"),
        (123456789012.0, "123456789000."),
        (float("inf"), "nan"),
    ])
    def test_pinned_cells(self, value, text):
        assert format_number(value) == text
        assert format_cells(np.array([[value, value]])) == [text, text]

    def test_agrees_with_numpy_positional_formatter(self):
        values = oracle_sample()
        expected = [numpy_positional(value) for value in values.tolist()]
        assert format_cells(values.reshape(-1, 2)) == expected
        assert [format_number(value) for value in values[::4].tolist()] == expected[::4]

    # The bulk pass settles every cell of a sweep but the two exact 0.5 fidelities at the axes.
    @pytest.mark.parametrize(("command", "calls"), [(["fidelity-sweep", "--n-points", "129"], 2),
                                                    (["bound-sweep", "--n-phi", "9"], 0)], ids=["fidelity", "bound"])
    def test_the_bulk_pass_hands_over_only_what_it_cannot_settle(self, command, calls, monkeypatch):
        handed = []
        monkeypatch.setattr(cli, "format_number", lambda x: handed.append(x) or format_number(x))
        assert main(command) == 0
        assert len(handed) == calls, handed


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

    # Several entries of these tensors are 0 up to rounding noise of either sign; each report prints the same twice.
    @pytest.mark.parametrize(("point", "diagonal"), [
        (("0.9", "1", "0"), ["0.0000000000", "0.0000000000"]),
        (("0.9", "0.5", "0.5"), ["0.7500000000", "0.2500000000"]),
        (("2.1", "0.5", "0.5"), ["0.7500000000", "0.2500000000"]),
    ], ids=["0.9 1 0", "0.9 0.5 0.5", "2.1 0.5 0.5"])
    def test_correlation_rounding_noise_prints_unsigned(self, point, diagonal, capsys):
        theta, eta1, eta2 = point
        outputs = []
        for _ in range(2):
            assert main(["clone", "--theta", theta, "--eta1", eta1, "--eta2", eta2]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "-0.0000000000" not in outputs[0]
        rows = outputs[0].split("correlation tensor  :\n")[1].splitlines()
        entries = [entry for row in rows for entry in row.split()]
        assert entries == diagonal[:1] + ["0.0000000000"] * 7 + diagonal[1:]

    def test_out_of_range_eta_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "--theta", "0", "--eta1", "1.5", "--eta2", "0"])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_malformed_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "--theta", "0", "--eta1", "0.5", "--eta2", "0.5", "--nonsense"])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("values", [("nan", "0.5", "0.5"), ("inf", "0.5", "0.5"),
                                        ("0", "nan", "0.5"), ("0", "0.5", "inf")])
    def test_non_finite_input_exits_2_with_one_line(self, values, capsys):
        theta, eta1, eta2 = values
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "--theta", theta, "--eta1", eta1, "--eta2", eta2])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)


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

    def test_single_point_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound-sweep", "--n-phi", "1", "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

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

    # Each bracket must hold 1 and be certified to --radius-tol (default 1e-3), read off its progress line.
    @pytest.mark.parametrize(("n_phi", "options", "tol", "max_iterations"), [
        (3, ["--budget", "400"], 1e-3, 20),
        (3, ["--budget", "200"], 1e-3, 20),
        (33, ["--radius-tol", "1e-8"], 1e-8, 30),
    ])
    def test_one_progress_line_per_direction(self, n_phi, options, tol, max_iterations, capsys):
        assert main(["bound-sweep", "--n-phi", str(n_phi), *options]) == 0
        captured = capsys.readouterr()
        progress = captured.err.splitlines()[1:]
        assert len(progress) == n_phi
        for k, line in enumerate(progress):
            phi = f"{k * (np.pi / 2) / (n_phi - 1):.6f}"
            match = re.fullmatch(rf"phi={phi}  radius=\[([0-9.]+), ([0-9.]+)\]  iterations=([0-9]+)"
                                 r"  width=([0-9.]+e[-+][0-9]+)", line)
            assert match, line
            lower, upper, iterations, width = float(match[1]), float(match[2]), int(match[3]), float(match[4])
            assert lower <= 1.0 <= upper and width <= tol, line
            assert 1 <= iterations <= max_iterations, line
        assert captured.out.startswith(BOUND_SWEEP_HEADER + "\n")

    # A budget of one or two iterates stops every bracket by then, and the last iterate's face fit proves each upper
    # end it can; the brackets it leaves are exact, and only those wider than --radius-tol are marked. At budget 1,
    # S = I/4 has tied eigenvalues, and the face on eigh's basis for them proves an upper end at pi/2 but not at 0.
    @pytest.mark.parametrize(("n_phi", "budget", "expected"), [
        (2, 1, ["phi=0.000000  radius=[1.000000000, inf]  iterations=1  width=inf  unconverged",
                "phi=1.570796  radius=[1.000000000, 2.000000000]  iterations=1  width=1.000e+00  unconverged"]),
        (3, 2, ["phi=0.000000  radius=[1.000000000, 1.000000000]  iterations=2  width=1.000e-12",
                "phi=0.785398  radius=[0.707106781, 1.414213562]  iterations=2  width=7.071e-01  unconverged",
                "phi=1.570796  radius=[1.000000000, 1.000000000]  iterations=2  width=1.000e-12"]),
    ])
    def test_small_budget_brackets(self, n_phi, budget, expected, capsys):
        assert main(["bound-sweep", "--n-phi", str(n_phi), "--budget", str(budget)]) == 0
        assert capsys.readouterr().err.splitlines()[1:] == expected

    def test_rows_that_lose_precision_are_marked(self, capsys):
        # At 1e-14, 21 of the 129 rows stop on precision loss wider than the tolerance, one with its lower end
        # above 1; exactly those lines end in "unconverged", and the CSV is the one an unmarked run writes.
        tol = 1e-14
        bracket = cli.radius_bracket(_directions(129)[0], radius_tol=tol)
        wide = ~(bracket.upper - bracket.lower <= tol)
        assert wide.sum() == 21 and (bracket.lower[wide] > 1).sum() == (bracket.lower > 1).sum() == 1
        assert main(["bound-sweep", "--n-phi", "129", "--radius-tol", "1e-14"]) == 0
        captured = capsys.readouterr()
        progress = captured.err.splitlines()[1:]
        assert len(progress) == 129
        assert [line.endswith("  unconverged") for line in progress] == wide.tolist()
        assert all(line.count("unconverged") <= 1 for line in progress)
        assert captured.out.startswith(BOUND_SWEEP_HEADER + "\n") and "unconverged" not in captured.out

    # The default nine-direction sweep's iterates: the barrier's box terms move these ends, not the verdicts. Each end
    # is pinned to 1.5e-9 of its printed literal, so the last printed digit may differ between numpy versions.
    def test_nine_direction_brackets(self, capsys):
        expected = [
            ("0.000000", 1.000000000, 1.000000000, 4),
            ("0.196350", 0.999829233, 1.000064380, 10),
            ("0.392699", 0.999741634, 1.000238892, 10),
            ("0.589049", 0.999695001, 1.000433295, 10),
            ("0.785398", 0.999679163, 1.000521970, 10),
            ("0.981748", 0.999695001, 1.000433295, 10),
            ("1.178097", 0.999741634, 1.000238892, 10),
            ("1.374447", 0.999829233, 1.000064380, 10),
            ("1.570796", 1.000000000, 1.000000000, 4),
        ]
        assert main(["bound-sweep", "--n-phi", "9"]) == 0
        progress = capsys.readouterr().err.splitlines()[1:]
        assert len(progress) == len(expected)
        for line, (phi, lower, upper, iterations) in zip(progress, expected):
            match = re.fullmatch(rf"phi={phi}  radius=\[([0-9.]+), ([0-9.]+)\]  iterations=([0-9]+)  width=\S+", line)
            assert match, line
            assert int(match[3]) == iterations, line
            assert abs(float(match[1]) - lower) <= 1.5e-9 and abs(float(match[2]) - upper) <= 1.5e-9, line

    def test_unwritable_path_exits_2(self, monkeypatch, capsys):
        assert_unwritable_out_fails_first(["bound-sweep", "--n-phi", "2", "--budget", "400"], monkeypatch, capsys)

    @pytest.mark.parametrize("options", [["--n-phi", "3", "--budget", "500", "--seed", "7"], ["--n-phi", "9"]],
                             ids=" ".join)
    def test_deterministic_output(self, options, tmp_path):
        assert_same_csv_twice(["bound-sweep", *options], tmp_path)


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

    # At 129 points the ppt_min_eig column holds values near 1e-17.
    @pytest.mark.parametrize("n_points", ["3", "129"])
    def test_no_scientific_notation_in_cells(self, n_points, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity-sweep", "--n-points", n_points, "--out", str(out)]) == 0
        body = out.read_text(encoding="utf-8").split("\n", 1)[1]
        assert "e" not in body and "E" not in body

    def test_endpoint_cells_are_exact(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity-sweep", "--n-points", "3", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1].split(",")[1] == "0.000000000"

    def test_bad_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fidelity-sweep", "--n-points", "1"])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_unwritable_path_exits_2(self, monkeypatch, capsys):
        assert_unwritable_out_fails_first(["fidelity-sweep", "--n-points", "3"], monkeypatch, capsys)

    def test_cells_match_one_report_per_direction(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(["fidelity-sweep", "--n-points", "6", "--samples", "16", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        for k, line in enumerate(lines):
            phi = k * (np.pi / 2) / 5
            etas = (1.0, 0.0) if k == 0 else (0.0, 1.0) if k == 5 else (np.cos(phi), np.sin(phi))
            machine = coefficients(etas)
            report = clone_report(0.9, machine)
            expected = [report.fidelity_o, report.fidelity_b, report.ppt_min_eigenvalue, isotropy_scan(machine)]
            assert line.split(",")[3:] == [format_number(value) for value in expected]

    # The benchmark's row rule; the two-direction sweep is a stack of the two exact axes alone.
    @pytest.mark.parametrize(("n_points", "samples"), [(4, 64), (2, 2), (129, 200), (1001, 64)])
    def test_deterministic_output(self, n_points, samples, tmp_path):
        rows = assert_same_csv_twice(
            ["fidelity-sweep", "--n-points", str(n_points), "--samples", str(samples)], tmp_path)
        assert len(rows) == n_points
        for phi, eta1, eta2, fidelity_o, fidelity_b, ppt_min_eig, isotropy in rows:
            assert abs(fidelity_o - (1 + eta1) / 2) <= 1e-10 and abs(fidelity_b - (1 + eta2) / 2) <= 1e-10, phi
            assert ppt_min_eig >= -1e-10 and isotropy <= 1e-10, phi

    def test_one_machine_read_out_per_sweep(self, tmp_path, monkeypatch):
        calls = {"coefficients": 0, "_bloch_maps": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(cloner, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(cloner, name, counted)
        assert main(["fidelity-sweep", "--n-points", "129", "--out", str(tmp_path / "fid.csv")]) == 0
        assert calls == {"coefficients": 1, "_bloch_maps": 1}

    def test_samples_are_validated_but_do_not_change_the_output(self, tmp_path, capsys):
        outputs = [tmp_path / f"{samples}.csv" for samples in ("2", "200")]
        for samples, out in zip(("2", "200"), outputs):
            assert main(["fidelity-sweep", "--n-points", "9", "--samples", samples, "--out", str(out)]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        large = ["fidelity-sweep", "--n-points", "3", "--samples", "5000"]
        assert main(large + ["--out", str(tmp_path / "5000.csv")]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["fidelity-sweep", "--n-points", "3", "--samples", "1"])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)


def scalar_directions(n):
    """The per-direction generator the sweeps used before they built their directions as arrays."""
    for k in range(n):
        if k == 0:
            yield 0.0, 1.0, 0.0
        elif k == n - 1:
            yield np.pi / 2, 0.0, 1.0
        else:
            phi = k * (np.pi / 2) / (n - 1)
            yield phi, float(np.cos(phi)), float(np.sin(phi))


def test_directions_equal_the_scalar_generator_bit_for_bit():
    for n in range(2, 401):
        expected = np.array(list(scalar_directions(n))).T
        assert np.stack(_directions(n)).tobytes() == expected.tobytes(), n


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call, an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exit_request:
        code = exit_request.code
    return (code, *capsys.readouterr())


CLONE = ["clone", "--theta", "0.9", "--eta1", "0.6", "--eta2", "0.8"]


# main parses with the named command's parser alone; the full tree must print and exit exactly as that does.
@pytest.mark.parametrize("argv", [
    ["verify", "-h"], ["clone", "--help"], ["bound-sweep", "-h"], ["fidelity-sweep", "--help"], ["verify", "--he"],
    # one per argument type: not a number, not finite, out of [0, 1], not positive, not a positive count, a size
    # below 2 or above the cap, a bad sample override, a negative seed
    ["clone", "--theta", "x", "--eta1", "0.6", "--eta2", "0.8"],
    ["clone", "--theta", "inf", "--eta1", "0.6", "--eta2", "0.8"],
    ["clone", "--theta", "0.9", "--eta1", "1.5", "--eta2", "0.8"],
    ["bound-sweep", "--n-phi", "2", "--radius-tol", "0"],
    ["verify", "--budget", "0"],
    ["fidelity-sweep", "--n-points", "1"], ["bound-sweep", "--n-phi", "100001"],
    ["verify", "--samples", "1"], ["verify", "--seed", "-1"],
    ["clone", "--theta", "0.9", "--eta1", "0.6"], ["bound-sweep"], ["verify", "--seed"],
    ["verify", "--bogus"], CLONE + ["--bogus"], CLONE + ["extra"],
    ["clone", "--", "--theta", "0.9"], CLONE + ["--"], CLONE + ["--", "extra"],
    ["clone", "--the", "0.9", "--eta1", "0.6", "--eta2", "0.8", "--deg"], CLONE + ["--theta=-1"],
    ["fidelity-sweep", "--n-points", "3", "--out=-"], ["bound-sweep", "--n-phi", "2", "--budget", "1", "--out=-"],
], ids=" ".join)
def test_the_command_parser_and_the_full_tree_agree(argv, monkeypatch, capsys):
    direct = run_main(argv, capsys)
    monkeypatch.setattr(cli, "_parse_args", lambda args: build_parser().parse_args(args))
    assert run_main(argv, capsys) == direct


TREE = ["circleclone"] + [f"circleclone {name}" for name in cli.COMMANDS]


@pytest.mark.parametrize(("argv", "progs"), [
    (CLONE, ["circleclone clone"]),
    (["fidelity-sweep", "--n-points", "3"], ["circleclone fidelity-sweep"]),
    (["verify", "--samples", "1"], ["circleclone verify"]),
    (["-h"], TREE),
    (["nope"], TREE),
    # an argument the command leaves over is reported by the tree, under the top-level prog
    (CLONE + ["extra"], ["circleclone clone"] + TREE),
], ids=["clone", "fidelity-sweep", "bad value", "top-level help", "unknown command", "left-over argument"])
def test_a_command_run_builds_only_its_own_parser(argv, progs, monkeypatch, capsys):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    run_main(argv, capsys)
    assert built == progs


COUNT_OPTIONS = pytest.mark.parametrize("option", [["fidelity-sweep", "--n-points"], ["bound-sweep", "--n-phi"],
                                                   ["verify", "--samples"]], ids=" ".join)


# Each count is capped before anything is allocated: 1e20 and the cap + 1 end in one line and exit code 2.
@COUNT_OPTIONS
@pytest.mark.parametrize("count", ["99999999999999999999", "100001"])
def test_over_large_count_exits_2_with_one_line(option, count, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(option + [count])
    assert excinfo.value.code == 2
    assert_one_line_error(capsys.readouterr().err)


@COUNT_OPTIONS
def test_count_cap_is_accepted_and_stated_in_the_help(option, capsys):
    assert 100000 in vars(build_parser().parse_args(option + ["100000"])).values()  # parsed only; nothing runs
    with pytest.raises(SystemExit) as excinfo:
        main([option[0], "--help"])
    assert excinfo.value.code == 0
    assert "100000" in capsys.readouterr().out


class TestVerifyCommand:
    @pytest.mark.parametrize("options", [["--samples", "25", "--budget", "400", "--seed", "3"],
                                         ["--samples", "2", "--budget", "200"], ["--samples", "4", "--budget", "200"],
                                         ["--samples", "8", "--budget", "200"]], ids=" ".join)
    def test_reduced_suite_passes(self, options, capsys):
        code = main(["verify", *options])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "FAIL" not in output
        assert re.search(r"PASS\s+fidelity_law", output)
        assert re.search(r"PASS\s+circle_recovery", output)

    def test_same_seed_prints_the_same_checks(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(["verify", "--seed", "7", "--samples", "8"]) == 0
            # Only the seconds each check took may differ.
            outputs.append(re.sub(r", [0-9.]+s\)$", ")", capsys.readouterr().out, flags=re.MULTILINE))
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\nPASS  ") == 26

    def test_starved_budget_fails(self, capsys):
        code = main(["verify", "--samples", "25", "--budget", "5", "--seed", "3"])
        output = capsys.readouterr().out
        assert code == 1
        assert re.search(r"FAIL\s+on_circle_feasibility", output)
        assert re.search(r"FAIL\s+circle_recovery", output)

    @pytest.mark.parametrize("budget", ["0", "2.5"])
    def test_bad_budget_exits_2_with_one_line(self, budget, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--budget", budget])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_degenerate_samples_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--samples", "1"])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command", [["verify"], ["bound-sweep", "--n-phi", "2"]])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_exits_2_with_one_line(self, command, seed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--seed", seed])
        assert excinfo.value.code == 2
        assert_one_line_error(capsys.readouterr().err)


def test_module_entry_point_runs_with_warnings_as_errors(tmp_path):
    """``python -m circleclone``: a default verify passes with no numpy warning, and a bad argument is one line."""
    command = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error:Casting complex values to real",
               "-m", "circleclone"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(command + ["verify"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith("\n26/26 checks passed\n"), run.stdout
    bad = subprocess.run(command + ["clone", "--theta", "nan", "--eta1", "0.6", "--eta2", "0.8"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2 and bad.stdout == "", bad.stdout
    assert_one_line_error(bad.stderr)


# Buffered, standard output meets the closed pipe at a write or its flush.  Unbuffered, a raw write to the
# pipe may take only part of the CSV, and the rest must still be written until the closed pipe raises.
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_reader_that_stops_early_ends_the_run_quietly(tmp_path, unbuffered):
    """``fidelity-sweep | head -1``: the pipe closes after the first line; no error line, and exit 141 (128 + SIGPIPE)."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    # About 2.4 MB of CSV, far more than a pipe holds, so the writer is still writing when the pipe closes.
    run = subprocess.Popen([sys.executable, "-m", "circleclone", "fidelity-sweep", "--n-points", "20000"],
                           cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = run.stdout.readline()
        run.stdout.close()
        _, err = run.communicate(timeout=120)
    finally:
        run.kill()
    assert first == (FIDELITY_SWEEP_HEADER + "\n").encode()
    assert err == b"", err
    assert run.returncode == 141
