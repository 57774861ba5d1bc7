"""Print one line per CLI command: exit code, SHA-256 of stdout, argv.

A command that exits 1 also gets the SHA-256 of its stderr, before argv, so
a rejected input is compared by its message.

Usage:

    PYTHONPATH=src python3 scripts/cli_matrix.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/cli_matrix.py > parent.txt
    diff parent.txt change.txt

The commands run in this process through ``noncross.cli.main``.  The first
560 are count and enumerate x the four kinds x text and JSON x {serial,
``--parallel 2``, ``--budget 0``, ``--budget 37``, ``--budget 1000``} x
the sets in ``SETS``; a count under ``--budget 1000`` meets stored
subtrees too large for what is left of the budget.  The 109 after them
cover the other commands, in text and JSON where the command has both:
``params``, ``estimate`` (plain and ``--empirical --budget 37``) and
``verify`` on ``SETS``; ``formulas`` for every family over the ranges in
``RANGES``; and ``svg`` on ``SETS``, bare and with two overlays.  The
last 40 are ``svg`` on the generator specs in ``GEN_SPECS``, valid and
not; ``svg`` prints every coordinate, so equal digests mean equal points
(709 commands).  The ``noncross`` on ``PYTHONPATH`` is the one
measured, so two checkouts are compared by running this same script
against each and diffing the outputs; the package path goes to stderr.
Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from noncross import cli

SETS = ("grid:3x3", "one_sided:4,3", "collinear:5", "pseudotriangle:8", "random:8,3,3",
        "random:9,4,6", "convex:3")
MODES = ((), ("--parallel", "2"), ("--budget", "0"), ("--budget", "37"), ("--budget", "1000"))
FAMILIES = ("convex-ham", "convex-path", "pseudo-poly", "pseudo-surround")
RANGES = ("5", "3..9", "1..4", "9..3")
OVERLAYS = ((), ("--overlay", "0,1,2"), ("--overlay", "0,1,2", "--overlay-kind", "polygon"))
# Generator specs: accepted ones (case, spaces, signs, random's optional
# bound), unparsable ones, unknown families and out-of-range arguments.
GEN_SPECS = ("convex:4", "CONVEX:4", " convex : 4 ", "convex:+3", "convex:1_0", "pseudotriangle:5",
             "collinear:3", "grid:2x3", "Grid: 2 x 3", "one_sided:3,2", "one_sided:1,0",
             "random:6,9", "random:6,9,32", "random:6,9,4", "random: 5 , 1 , 7",
             "convex", "convex:", "convex:x", "convex:4,", "convex:3:4", "convex:3.0",
             "grid:3", "grid:3x4x5", "grid:3,4", "grid:2X3", "one_sided:4", "one_sided:4,3,2",
             "random:5", "random:5,1,2,3", "random:5,,1", "blah:3", "", "convex:0",
             "pseudotriangle:2", "grid:0x3", "collinear:0", "one_sided:0,2", "one_sided:2,-1",
             "random:5,1,0", "random:10,1,2")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    message = [sha256(err.getvalue())] if code == 1 else []
    print(code, sha256(out.getvalue()), *message, " ".join(argv), flush=True)


def main() -> None:
    print(f"noncross from {cli.__file__}", file=sys.stderr)
    for verb in ("count", "enumerate"):
        for kind in ("paths", "ham", "surround", "poly"):
            for fmt in ("text", "json"):
                for mode in MODES:
                    for spec in SETS:
                        report([verb, kind, "--gen", spec, "--format", fmt, *mode])
    for fmt in ("text", "json"):
        for command in (["params"], ["estimate"], ["estimate", "--empirical", "--budget", "37"],
                        ["verify"]):
            for spec in SETS:
                report([*command, "--gen", spec, "--format", fmt])
        for family in FAMILIES:
            for n in RANGES:
                report(["formulas", "--family", family, "--n", n, "--format", fmt])
    for overlay in OVERLAYS:
        for spec in SETS:
            report(["svg", "--gen", spec, *overlay])
    for spec in GEN_SPECS:
        report(["svg", "--gen", spec])


if __name__ == "__main__":
    main()
