"""Workload inputs and the correctness gate for each workload's output.

A workload turns the benchmark seed into CLI arguments for ``circleclone``;
the program sees nothing but those arguments.  Each gate parses one pass's
output and returns (items attempted, items failed, first failure or None).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable

BOUND_HEADER = "phi,eta1,eta2,max_radius_found,circle_radius,deviation"
FIDELITY_HEADER = "phi,eta1,eta2,fidelity_o,fidelity_b,ppt_min_eig,isotropy_residual"

RADIUS_TOL = 2e-3
MACHINE_TOL = 1e-10
VERIFY_CHECKS = 26


def program_seed(seed: int) -> int:
    """The --seed handed to circleclone, derived from the benchmark seed."""
    return random.Random(seed).randrange(2**31)


def _csv_rows(text: str, header: str, expected: int) -> tuple[list[list[float]], str | None]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], f"CSV header is {lines[0] if lines else 'missing'!r}, expected {header!r}"
    try:
        rows = [[float(value) for value in line.split(",")] for line in lines[1:]]
    except ValueError as error:
        return [], f"unparsable CSV: {error}"
    if len(rows) != expected:
        return rows, f"{len(rows)} CSV rows, expected {expected}"
    return rows, None


def _value_after(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def gate_bound_sweep(argv: list[str], text: str, exit_code: int) -> tuple[int, int, str | None]:
    """Each direction fails when |max_radius_found - 1| > 2e-3."""
    n_phi = _value_after(argv, "--n-phi")
    rows, problem = _csv_rows(text, BOUND_HEADER, n_phi)
    failed = n_phi - len(rows) if len(rows) < n_phi else 0
    for row in rows:
        if not abs(row[3] - 1.0) <= RADIUS_TOL:
            failed += 1
            problem = problem or f"phi={row[0]}: max_radius_found {row[3]} is not within {RADIUS_TOL} of 1"
    if exit_code != 0 and failed == 0:
        failed, problem = 1, f"exit code {exit_code}"
    return max(n_phi, len(rows)), failed, problem


def gate_machine_sweep(argv: list[str], text: str, exit_code: int) -> tuple[int, int, str | None]:
    """Each row fails on a fidelity law, PPT or isotropy miss beyond 1e-10."""
    n_points = _value_after(argv, "--n-points")
    rows, problem = _csv_rows(text, FIDELITY_HEADER, n_points)
    failed = n_points - len(rows) if len(rows) < n_points else 0
    for phi, eta1, eta2, fidelity_o, fidelity_b, ppt_min, isotropy in rows:
        misses = []
        if not abs(fidelity_o - (1 + eta1) / 2) <= MACHINE_TOL:
            misses.append(f"fidelity_o {fidelity_o} vs (1+eta1)/2 = {(1 + eta1) / 2}")
        if not abs(fidelity_b - (1 + eta2) / 2) <= MACHINE_TOL:
            misses.append(f"fidelity_b {fidelity_b} vs (1+eta2)/2 = {(1 + eta2) / 2}")
        if not ppt_min >= -MACHINE_TOL:
            misses.append(f"ppt_min_eig {ppt_min}")
        if not (math.isfinite(isotropy) and isotropy <= MACHINE_TOL):
            misses.append(f"isotropy_residual {isotropy}")
        if misses:
            failed += 1
            problem = problem or f"phi={phi}: " + "; ".join(misses)
    if exit_code != 0 and failed == 0:
        failed, problem = 1, f"exit code {exit_code}"
    return max(n_points, len(rows)), failed, problem


_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (\S+)")


def gate_verify_suite(argv: list[str], text: str, exit_code: int) -> tuple[int, int, str | None]:
    """Each check fails on a FAIL line; a missing line or a non-zero exit code counts too."""
    statuses = [match.groups() for match in map(_CHECK_LINE.match, text.splitlines()) if match]
    fails = [name for status, name in statuses if status == "FAIL"]
    failed = len(fails) + max(0, VERIFY_CHECKS - len(statuses))
    problem = f"FAIL lines: {', '.join(fails)}" if fails else None
    if len(statuses) != VERIFY_CHECKS:
        problem = problem or f"{len(statuses)} check lines, expected {VERIFY_CHECKS}"
    if exit_code != 0 and failed == 0:
        failed, problem = 1, f"exit code {exit_code}"
    return max(VERIFY_CHECKS, len(statuses)), failed, problem


_SECONDS = re.compile(r", [0-9.]+s\)$")


def verify_fingerprint(text: str) -> str:
    """Verify output with the per-check seconds removed, which must repeat for one seed."""
    return "\n".join(_SECONDS.sub(")", line) for line in text.splitlines())


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, bool], list[str]]
    gate: Callable[[list[str], str, int], tuple[int, int, str | None]]
    fingerprint: Callable[[str], str]


def _bound_argv(seed: int, tiny: bool) -> list[str]:
    size = ["--n-phi", "3", "--budget", "200"] if tiny else ["--n-phi", "9"]
    return ["bound-sweep", *size, "--seed", str(program_seed(seed))]


def _machine_argv(seed: int, tiny: bool) -> list[str]:
    # fidelity-sweep has no random input: the seed selects nothing here.
    return ["fidelity-sweep", "--n-points", "5" if tiny else "129", "--samples", "8" if tiny else "200"]


def _verify_argv(seed: int, tiny: bool) -> list[str]:
    size = ["--samples", "8", "--budget", "200"] if tiny else []
    return ["verify", "--seed", str(program_seed(seed)), *size]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("bound_sweep", _bound_argv, gate_bound_sweep, str),
        Workload("machine_sweep", _machine_argv, gate_machine_sweep, str),
        Workload("verify_suite", _verify_argv, gate_verify_suite, verify_fingerprint),
    )
}
