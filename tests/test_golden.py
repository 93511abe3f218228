"""Golden outputs: twenty command-line outputs, pinned byte for byte.

Each case runs one command in-process and compares what it prints with its file under ``tests/golden/``; the two
long fidelity sweeps are pinned by their SHA-256 in ``tests/golden/SHA256SUMS``. A ``bound-sweep`` output is its
stderr report followed by its CSV, as ``2>&1`` writes them, and ``verify``'s per-check seconds are stripped. The
help texts are printed 80 columns wide. An
intended output change rewrites every file with

    PYTHONPATH=src python tests/test_golden.py

and the rewritten files are reviewed as part of that change.
"""

import contextlib
import hashlib
import io
import os
import re
from pathlib import Path
from unittest import mock

import pytest

from circleclone.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "SHA256SUMS"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"

# The tight-tolerance and one-iterate sweeps pin the barrier solver's arithmetic, the 1e-12 sweep also its
# certificate floor sized to the tolerance, on which every row meets it, the two-iterate sweep the upper ends proved
# by the S^-1 / Tr S^-1 certificate, the clone reports every clone_report field, rounding noise included, and the long
# fidelity sweeps the CSV writer on many cells, and the help files every command's arguments.
OUTPUTS = {
    "bound-sweep-9.txt": "bound-sweep --n-phi 9",
    "bound-sweep-33-tight.txt": "bound-sweep --n-phi 33 --radius-tol 1e-8",
    "bound-sweep-2-budget-1.txt": "bound-sweep --n-phi 2 --budget 1",
    "bound-sweep-3-budget-2.txt": "bound-sweep --n-phi 3 --budget 2",
    "bound-sweep-129-1e-12.txt": "bound-sweep --n-phi 129 --radius-tol 1e-12",
    "fidelity-sweep-129.csv": "fidelity-sweep --n-points 129",
    "fidelity-sweep-1001.csv": "fidelity-sweep --n-points 1001",
    "fidelity-sweep-20000.csv": "fidelity-sweep --n-points 20000",
    "clone-0.9-0.6-0.8.txt": "clone --theta 0.9 --eta1 0.6 --eta2 0.8",
    "clone-0.9-1-0.txt": "clone --theta 0.9 --eta1 1 --eta2 0",
    "clone-0.9-0.5-0.5.txt": "clone --theta 0.9 --eta1 0.5 --eta2 0.5",
    "clone-2.1-0.5-0.5.txt": "clone --theta 2.1 --eta1 0.5 --eta2 0.5",
    "verify-0.txt": "verify --seed 0",
    "verify-3.txt": "verify --seed 3",
    "verify-11.txt": "verify --seed 11",
    "help.txt": "--help",
    "verify-help.txt": "verify --help",
    "clone-help.txt": "clone --help",
    "bound-sweep-help.txt": "bound-sweep --help",
    "fidelity-sweep-help.txt": "fidelity-sweep --help",
}
DIGESTED = ("fidelity-sweep-1001.csv", "fidelity-sweep-20000.csv")

_SECONDS = re.compile(r", [0-9.]+s\)$", re.MULTILINE)


def run(command: str) -> str:
    """What ``circleclone <command>`` prints at COLUMNS=80, stderr first, with verify's per-check seconds stripped."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(command.split())
        except SystemExit as exit_request:  # --help exits once it has printed
            status = exit_request.code
    assert status == 0, f"circleclone {command} exited {status}:\n{err.getvalue()}{out.getvalue()}"
    return _SECONDS.sub(")", err.getvalue() + out.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digests() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: value for value, name in (line.split("  ") for line in lines)}


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_is_golden(name):
    command = OUTPUTS[name]
    text = run(command)
    changed = (f"`circleclone {command}` no longer prints tests/golden/{name}; "
               f"if the change is intended, regenerate the golden files with `{REGENERATE}`")
    if name in DIGESTED:
        assert digest(text) == pinned_digests()[name], changed
    else:
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), changed


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    digests = []
    for name, command in OUTPUTS.items():
        text = run(command)
        if name in DIGESTED:
            digests.append(f"{digest(text)}  {name}\n")
        else:
            (GOLDEN / name).write_text(text, encoding="utf-8", newline="")
    DIGESTS.write_text("".join(digests), encoding="utf-8", newline="")


if __name__ == "__main__":
    regenerate()
