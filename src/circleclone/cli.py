"""Command-line interface: invariant verification, single cloning runs and sweeps."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import TextIO

import numpy as np

from . import cloner
from .nosignalling import DEFAULT_BUDGET, DEFAULT_RADIUS_TOL, radius_bracket
from .verify import RunConfig, run_verification

BOUND_SWEEP_HEADER = "phi,eta1,eta2,max_radius_found,circle_radius,deviation"
FIDELITY_SWEEP_HEADER = "phi,eta1,eta2,fidelity_o,fidelity_b,ppt_min_eig,isotropy_residual"


def format_number(x: float) -> str:
    """One number as every output cell prints it: numpy's ``format_float_positional`` at 10 significant digits.

    That is the exact (Dragon4) rounding of the binary value, half to even, in fixed notation and locale
    independent, with ``unique=False, fractional=False, trim="k"``: 0.1 prints as ``0.1000000000``, 0.5 as
    ``0.500000000``, -1.25e-17 as ``-0.0000000000000000125`` and 123456789012.0 as ``123456789000.``. Zero of
    either sign prints as ``0.000000000``; NaN and infinities as ``nan``.
    """
    x = float(x) + 0.0  # + 0.0 turns -0.0 into 0.0
    if not math.isfinite(x):
        return "nan"
    return np.format_float_positional(x, precision=10, unique=False, fractional=False, trim="k")


def format_cells(values: np.ndarray) -> list[str]:
    """Every value of a float array, in row-major order, as ``format_number`` prints it.

    This is the fast path for whole tables. One ``"%.*f"`` call prints every cell to 10 significant digits, with
    ``E`` from ``log10``. A cell below 1 whose last digit is 0 then loses its trailing zeros when the value lies
    below the printed decimal, and keeps them when it lies above. The cells a float compare cannot settle go to
    ``format_number``: a value equal to the double nearest its printed decimal (a tie or an exact value),
    non-finite values, values of 1e9 and more, and values so near a power of ten that ``log10`` could miss ``E`` or
    the rounding could carry into the next power; zero and the exact powers 1, 10, ..., 1e8 need not.
    """
    flat = np.ravel(values) + 0.0  # + 0.0 turns -0.0 into 0.0
    magnitude = np.abs(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log10(magnitude)
        nearest = np.rint(log)
        power = np.maximum(nearest, 0.0)
        far = np.abs(log - nearest) > 1e-9
        exact = (magnitude == 10.0**power) | (magnitude == 0.0)
        fast = (far | exact) & (log < 9)
        exponent = np.where(far, np.floor(log), power)
        precision = np.where(fast, 9 - exponent, 0.0).astype(int)
    arguments = [0] * (2 * flat.size)
    arguments[::2] = precision.tolist()
    arguments[1::2] = np.where(fast, flat, 0.0).tolist()
    cells = ("%.*f\n" * flat.size % tuple(arguments)).splitlines()
    for k in np.flatnonzero(~fast).tolist():
        cells[k] = format_number(flat[k])
    for k in np.flatnonzero(fast & (exponent < 0)).tolist():
        cell = cells[k]
        if cell[-1] != "0":
            continue
        value, printed = abs(float(flat[k])), abs(float(cell))
        if value == printed:  # the value may lie on either side of the printed decimal, or on it
            cells[k] = format_number(flat[k])
        elif value < printed:
            whole, fraction = cell.split(".")
            cells[k] = whole + "." + fraction.rstrip("0").ljust(9, "0")
    return cells


def _open_out(path: str | None) -> contextlib.AbstractContextManager[TextIO | None]:
    """The ``--out`` target as a context: a new UTF-8 file, or None for stdout (no path, or ``-``).

    A sweep opens it before it prints or computes anything, so a path that cannot be written ends the run at once,
    with one line on stderr.
    """
    if path is None or path == "-":
        return contextlib.nullcontext()
    return open(path, "w", encoding="utf-8", newline="")


def _write_csv(handle: TextIO | None, header: str, table: np.ndarray) -> None:
    """The table as CSV under ``header``, to the file ``handle`` of ``_open_out``, or to stdout when it is None."""
    cells = format_cells(table)
    width = table.shape[1]
    lines = [header] + [",".join(cells[k:k + width]) for k in range(0, len(cells), width)]
    text = "\n".join(lines) + "\n"
    if handle is None:
        binary = getattr(sys.stdout, "buffer", None)
        if binary is None:  # an in-memory text stream (io.StringIO) takes all of the text in one write
            sys.stdout.write(text)
            return
        # Unbuffered (PYTHONUNBUFFERED), the raw file may take only part of a write to a pipe, and the text layer
        # drops the rest without an error: the bytes go out until every one is taken or the closed pipe raises.
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding))
        while data:
            data = data[binary.write(data):]
    else:
        handle.write(text)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _directions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi, cos phi, sin phi) for n directions evenly spaced over [0, pi/2], exact at both ends."""
    phi = np.arange(n) * (np.pi / 2) / (n - 1)
    phi[-1] = np.pi / 2
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_phi[[0, -1]] = 1.0, 0.0
    sin_phi[[0, -1]] = 0.0, 1.0
    return phi, cos_phi, sin_phi


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(seed=args.seed, budget=args.budget, samples=args.samples)


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(f"verification suite  seed={config.seed}  budget={config.budget}  samples={config.samples or 'default'}")
    results = run_verification(config)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        print(f"{status}  {result.name:<32} measured {result.measured: .3e}  "
              f"(needs {result.direction} {result.threshold:g}, {result.seconds:.4f}s)")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_clone(args: argparse.Namespace) -> int:
    theta = _angle(args.theta, args.degrees)
    report = cloner.clone_report(theta, cloner.coefficients((args.eta1, args.eta2)))
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
        # An entry that rounds to zero prints unsigned, as format_number prints -0.0.
        print("    " + "  ".join(f"{value: .10f}".replace("-0.0000000000", " 0.0000000000") for value in row))
    return 0


def _cmd_bound_sweep(args: argparse.Namespace) -> int:
    with _open_out(args.out) as out:
        print(f"bound sweep  n_phi={args.n_phi}  seed={args.seed}  budget={args.budget}  "
              f"radius_tol={args.radius_tol:g}", file=sys.stderr)
        phi, cos_phi, sin_phi = _directions(args.n_phi)
        bracket = radius_bracket(phi, radius_tol=args.radius_tol, budget=args.budget)
        found = bracket.lower
        for phi_k, found_k, upper, iterations in zip(phi.tolist(), found.tolist(), bracket.upper.tolist(),
                                                     bracket.iterations.tolist()):
            print(f"phi={phi_k:.6f}  radius=[{found_k:.9f}, {upper:.9f}]  "
                  f"iterations={iterations}  width={upper - found_k:.3e}", file=sys.stderr)
        rows = np.stack([phi, found * cos_phi, found * sin_phi, found, np.ones_like(found), np.abs(found - 1.0)],
                        axis=-1)
        _write_csv(out, BOUND_SWEEP_HEADER, rows)
    return 0


def _cmd_fidelity_sweep(args: argparse.Namespace) -> int:
    with _open_out(args.out) as out:
        phi, cos_phi, sin_phi = _directions(args.n_points)
        probe_theta = 0.9  # any non-cardinal angle; on-circle results are angle independent
        # The four columns clone_report would give, from its read-outs alone: one set of Bloch maps, one joint output.
        coeffs = cloner.coefficients(np.stack([cos_phi, sin_phi], axis=-1))
        maps = cloner._bloch_maps(coeffs)
        fidelity = cloner._fidelities(probe_theta, maps)[1]
        lowest = cloner._ppt_min_eigenvalue(cloner._joint_output(cloner.clone(probe_theta, coeffs)))
        columns = [phi, cos_phi, sin_phi, fidelity[:, 0], fidelity[:, 1], lowest, cloner._isotropy_supremum(maps)]
        _write_csv(out, FIDELITY_SWEEP_HEADER, np.stack(columns, axis=-1))
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
# A run holds 2-5 kB per point, direction or sample, so a count at this cap stays under about 0.5 GB.
_MAX_COUNT = 100_000
SIZE = _checked(int, lambda n: 2 <= n <= _MAX_COUNT, f"from 2 to {_MAX_COUNT}")
SAMPLE_OVERRIDE = _checked(int, lambda n: n == 0 or 2 <= n <= _MAX_COUNT,
                           f"0 (per-check defaults) or from 2 to {_MAX_COUNT}")
SEED = _checked(int, lambda n: n >= 0, "a non-negative integer")


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=SEED, default=0)
    parser.add_argument("--budget", type=POSITIVE_COUNT, default=DEFAULT_BUDGET)
    parser.add_argument("--samples", type=SAMPLE_OVERRIDE, default=0,
                        help=f"override every sampled check's sample count, at most {_MAX_COUNT} "
                             "(0 = per-check defaults)")
    parser.set_defaults(func=_cmd_verify)


def _clone_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=FINITE, required=True, help="input angle on the x-z circle")
    parser.add_argument("--eta1", type=UNIT_INTERVAL, required=True)
    parser.add_argument("--eta2", type=UNIT_INTERVAL, required=True)
    parser.add_argument("--degrees", action="store_true", help="interpret --theta in degrees")
    parser.set_defaults(func=_cmd_clone)


def _bound_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-phi", type=SIZE, required=True, dest="n_phi",
                        help=f"number of directions, from 2 to {_MAX_COUNT}")
    parser.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")
    parser.add_argument("--seed", type=SEED, default=0, help="accepted for compatibility; the sweep is deterministic")
    parser.add_argument("--radius-tol", type=POSITIVE, default=DEFAULT_RADIUS_TOL, dest="radius_tol")
    parser.add_argument("--budget", type=POSITIVE_COUNT, default=DEFAULT_BUDGET,
                        help="solver iterations allowed per direction")
    parser.set_defaults(func=_cmd_bound_sweep)


def _fidelity_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-points", type=SIZE, required=True, dest="n_points",
                        help=f"number of points on the circle, from 2 to {_MAX_COUNT}")
    parser.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")
    parser.add_argument("--samples", type=SIZE, default=64,
                        help="accepted for compatibility; the isotropy residual is exact and does not depend on it")
    parser.set_defaults(func=_cmd_fidelity_sweep)


# Each command: its one-line summary in the top-level help, and the adder that defines its arguments.
COMMANDS = {
    "verify": ("run the full invariant suite", _verify_arguments),
    "clone": ("one cloning run with full diagnostics", _clone_arguments),
    "bound-sweep": ("recover the attainable boundary radius over directions", _bound_arguments),
    "fidelity-sweep": ("fidelities and separability along the optimal circle", _fidelity_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser and one subparser per command."""
    parser = _Parser(
        prog="circleclone",
        description="Asymmetric 1-to-2 cloning of great-circle qubits: "
                    "optimal machine simulation and no-signalling feasibility bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments of one run, parsed by the named command's parser alone.

    That parser is built as the tree builds its subparser for the command, and it sees exactly the arguments the
    tree hands that subparser. The full tree is built only where it prints or reports something the subparser
    cannot: when ``argv[0]`` names no command (top-level help, no command, an unknown one), and when the command
    leaves arguments over, which the tree reports as unrecognized under the top-level prog.
    """
    if argv and argv[0] in COMMANDS:
        parser = _Parser(prog=f"circleclone {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter shutdown
        return status
    except BrokenPipeError:
        # The reader stopped early (head, a pager), which is no error of the run.  Standard output goes to
        # os.devnull, so the final flush of what is left in its buffer cannot fail again, and the exit code is
        # the one a shell reports for a command killed by SIGPIPE, 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
