"""Command-line interface: invariant verification, single cloning runs and sweeps."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .cloner import clone_report, isotropy_scan
from .nosignalling import DEFAULT_BUDGET, DEFAULT_RADIUS_TOL, radius_bracket
from .verify import RunConfig, run_verification

BOUND_SWEEP_HEADER = "phi,eta1,eta2,max_radius_found,circle_radius,deviation"
FIDELITY_SWEEP_HEADER = "phi,eta1,eta2,fidelity_o,fidelity_b,ppt_min_eig,isotropy_residual"


def format_number(x: float) -> str:
    """Fixed (positional) notation with 10 significant digits, locale independent."""
    x = float(x)
    if not math.isfinite(x):
        return "nan"
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return np.format_float_positional(x, precision=10, unique=False, fractional=False, trim="k")


def _write_csv(path: str | None, header: str, rows: list[list[float]]) -> None:
    lines = [header] + [",".join(format_number(value) for value in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _directions(n: int):
    """(phi, cos phi, sin phi) for n directions evenly spaced over [0, pi/2], exact at both ends."""
    for k in range(n):
        if k == 0:
            yield 0.0, 1.0, 0.0
        elif k == n - 1:
            yield np.pi / 2, 0.0, 1.0
        else:
            phi = k * (np.pi / 2) / (n - 1)
            yield phi, float(np.cos(phi)), float(np.sin(phi))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        radius_tol=args.radius_tol,
        budget=args.budget,
        samples=args.samples,
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(f"verification suite  seed={config.seed}  "
          f"radius_tol={config.radius_tol:g}  budget={config.budget}  samples={config.samples or 'default'}")
    results = run_verification(config)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        print(f"{status}  {result.name:<32} measured {result.measured: .3e}  "
              f"(needs {result.direction} {result.threshold:g}, {result.seconds:.2f}s)")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_clone(args: argparse.Namespace) -> int:
    theta = _angle(args.theta, args.degrees)
    report = clone_report(theta, (args.eta1, args.eta2))
    circle_gap = report.eta1**2 + report.eta2**2 - 1.0
    rows = [
        ("theta (rad)", format_number(report.theta)),
        ("eta1, eta2", f"{format_number(report.eta1)}, {format_number(report.eta2)}"),
        ("on optimal circle", f"{'yes' if report.on_circle else 'no'} (eta1^2+eta2^2-1 = {circle_gap:.3e})"),
        ("fidelity_o", format_number(report.fidelity_o)),
        ("fidelity_b", format_number(report.fidelity_b)),
        ("shrink_o (z, x)", f"{format_number(report.shrink_o_z)}, {format_number(report.shrink_o_x)}"),
        ("shrink_b (z, x)", f"{format_number(report.shrink_b_z)}, {format_number(report.shrink_b_x)}"),
        ("isotropy_residual_o", f"{report.isotropy_residual_o:.3e}"),
        ("isotropy_residual_b", f"{report.isotropy_residual_b:.3e}"),
        ("ppt_min_eigenvalue", f"{report.ppt_min_eigenvalue:.3e}"),
    ]
    for label, value in rows:
        print(f"{label:<20}: {value}")
    print("correlation tensor  :")
    for row in report.correlation:
        print("    " + "  ".join(f"{value: .10f}" for value in row))
    return 0


def _cmd_bound_sweep(args: argparse.Namespace) -> int:
    print(f"bound sweep  n_phi={args.n_phi}  seed={args.seed}  budget={args.budget}  "
          f"radius_tol={args.radius_tol:g}", file=sys.stderr)
    directions = list(_directions(args.n_phi))
    bracket = radius_bracket([phi for phi, _, _ in directions], radius_tol=args.radius_tol, budget=args.budget)
    rows = []
    for k, (phi, cos_phi, sin_phi) in enumerate(directions):
        found = float(bracket.lower[k])
        print(f"phi={phi:.6f}  radius=[{found:.9f}, {bracket.upper[k]:.9f}]  "
              f"iterations={bracket.iterations[k]}", file=sys.stderr)
        rows.append([phi, found * cos_phi, found * sin_phi, found, 1.0, abs(found - 1.0)])
    _write_csv(args.out, BOUND_SWEEP_HEADER, rows)
    return 0


def _cmd_fidelity_sweep(args: argparse.Namespace) -> int:
    directions = list(_directions(args.n_points))
    probe_theta = 0.9  # any non-cardinal angle; on-circle results are angle independent
    etas = [(cos_phi, sin_phi) for _, cos_phi, sin_phi in directions]
    report = clone_report(probe_theta, etas)
    residual = isotropy_scan(etas, args.samples)
    rows = []
    for k, (phi, cos_phi, sin_phi) in enumerate(directions):
        rows.append([phi, cos_phi, sin_phi, report.fidelity_o[k], report.fidelity_b[k],
                     report.ppt_min_eigenvalue[k], residual[k]])
    _write_csv(args.out, FIDELITY_SWEEP_HEADER, rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one line on stderr and exits with code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(convert, accept, requirement: str):
    """Argument type: ``convert`` the text, then reject it unless ``accept(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


# One rule per kind of value, shared by every command that takes it.
FINITE = _checked(float, math.isfinite, "finite")
POSITIVE = _checked(float, lambda x: math.isfinite(x) and x > 0, "positive and finite")
UNIT_INTERVAL = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
POSITIVE_COUNT = _checked(int, lambda n: n > 0, "positive")
AT_LEAST_TWO = _checked(int, lambda n: n >= 2, "at least 2")
SAMPLE_OVERRIDE = _checked(int, lambda n: n == 0 or n >= 2, "0 (per-check defaults) or at least 2")
SEED = _checked(int, lambda n: n >= 0, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circleclone",
        description="Asymmetric 1-to-2 cloning of great-circle qubits: "
                    "optimal machine simulation and no-signalling feasibility bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the full invariant suite")
    verify.add_argument("--seed", type=SEED, default=0)
    verify.add_argument("--radius-tol", type=POSITIVE, default=DEFAULT_RADIUS_TOL, dest="radius_tol")
    verify.add_argument("--budget", type=POSITIVE_COUNT, default=DEFAULT_BUDGET)
    verify.add_argument("--samples", type=SAMPLE_OVERRIDE, default=0,
                        help="override every check's sample count (0 = per-check defaults)")
    verify.set_defaults(func=_cmd_verify)

    clone_cmd = sub.add_parser("clone", help="one cloning run with full diagnostics")
    clone_cmd.add_argument("--theta", type=FINITE, required=True, help="input angle on the x-z circle")
    clone_cmd.add_argument("--eta1", type=UNIT_INTERVAL, required=True)
    clone_cmd.add_argument("--eta2", type=UNIT_INTERVAL, required=True)
    clone_cmd.add_argument("--degrees", action="store_true", help="interpret --theta in degrees")
    clone_cmd.set_defaults(func=_cmd_clone)

    bound = sub.add_parser("bound-sweep", help="recover the attainable boundary radius over directions")
    bound.add_argument("--n-phi", type=AT_LEAST_TWO, required=True, dest="n_phi")
    bound.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")
    bound.add_argument("--seed", type=SEED, default=0, help="accepted for compatibility; the sweep is deterministic")
    bound.add_argument("--radius-tol", type=POSITIVE, default=DEFAULT_RADIUS_TOL, dest="radius_tol")
    bound.add_argument("--budget", type=POSITIVE_COUNT, default=DEFAULT_BUDGET,
                       help="solver iterations allowed per direction")
    bound.set_defaults(func=_cmd_bound_sweep)

    fidelity = sub.add_parser("fidelity-sweep", help="fidelities and separability along the optimal circle")
    fidelity.add_argument("--n-points", type=AT_LEAST_TWO, required=True, dest="n_points")
    fidelity.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")
    fidelity.add_argument("--samples", type=AT_LEAST_TWO, default=64,
                          help="angles sampled by the per-point isotropy scan")
    fidelity.set_defaults(func=_cmd_fidelity_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
