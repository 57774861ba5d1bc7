"""Print one line per CLI command: exit code, SHA-256 of stdout, argv.

A command that exits 1 also gets the SHA-256 of its stderr, before argv, so
a rejected input is compared by its message.  An exception that escapes
``main`` is a row of its own, ``exc <TypeName> argv``, and the run goes on.

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
``RANGES``; and ``svg`` on ``SETS``, bare and with two overlays.  Then
40 are ``svg`` on the generator specs in ``GEN_SPECS``, valid and not;
``svg`` prints every coordinate, so equal digests mean equal points.  The
next 36 are ``count ham`` and ``params``, in text and JSON, on the point
files in ``POINT_FILES`` and on one file that does not exist; the files are
written under fixed names in a temporary working directory, so error
messages that name a file hash the same on every run.  The 16 after them
are ``count ham --input -``, in text and JSON, with each ``POINT_FILES``
body on stdin as bytes (the row ends in ``< NAME``); stdin is wrapped as
the interpreter wraps it under a UTF-8 locale.  The 2 after them are
``count ham --input -``, in text and JSON, with ``sys.stdin`` None, as in
a process started with fd 0 closed (the row ends in ``<&-``).  The 4
after them are ``count ham`` and ``enumerate ham`` on ``convex:5``, in
text and JSON, with ``sys.stdout`` None, as in a process started with fd 1
closed (the row ends in ``>&-``).  The 19 after them,
``USAGE``, are the parser's own output: ``--help`` at the top level and for
each command, and usage errors before and after a command.  A ``--help``
exits through ``SystemExit``, whose code is reported, and help is wrapped
at ``COLUMNS=80``, which this script sets.  The last 14 run with a stdout on
a full device, as ``FullOnWrite`` or ``FullOnFlush`` (the row ends in
``>full(write)`` or ``>full(flush)``): ``count ham`` and ``enumerate ham``
on ``convex:5`` and ``params`` on ``convex:5``, in text and JSON, and
``--help`` (800 commands).  The ``noncross`` on ``PYTHONPATH`` is the one
measured, so two checkouts are compared by running this same script
against each and diffing the outputs; the package path goes to stderr.
Standard library only.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import os
import sys
import tempfile

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
# Point files for --input: text, JSON, byte-order-marked, commented, and
# ones that are rejected (a bad token, a duplicate point, bytes not UTF-8).
POINT_FILES = {
    "square.txt": b"0 0\n2 0\n2 2\n0 2\n",
    "square.json": b'{"points": [[0, 0], [2, 0], [2, 2], [0, 2]]}\n',
    "bom.txt": b"\xef\xbb\xbf0 0\n2 0\n2 2\n0 2\n",
    "bom.json": b'\xef\xbb\xbf{"points": [[0, 0], [3, 0], [0, 3], [1, 1]]}',
    "comments.txt": b"# a square and its centre\n0 0  # origin\n2 0\n\n  2 2\n0 2\n1 1 #\n",
    "bad_token.txt": b"0 0\n2 0\n1 x\n",
    "duplicate.txt": b"0 0\n2 0\n0 2\n2 0\n",
    "latin1.txt": b"0 0\n1 \xff\n",
}
COMMANDS = ("params", "enumerate", "count", "estimate", "verify", "formulas", "svg", "fixtures")
# Help and usage errors: no command, an unknown one, an option before the
# command, and a command's missing, unknown, conflicting or out-of-range arguments.
USAGE = (("--help",), *((command, "--help") for command in COMMANDS), (), ("bogus",),
         ("--gen", "convex:4", "count", "ham"), ("count",), ("count", "foo", "--gen", "convex:4"),
         ("count", "ham"), ("count", "ham", "--input", "points.txt", "--gen", "convex:4"),
         ("count", "ham", "--gen", "convex:4", "--budget", "-1"),
         ("count", "ham", "--gen", "convex:4", "--parallel", "0"),
         ("formulas", "--family", "x", "--n", "3"))


def _full(*args) -> None:
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class FullOnWrite(io.StringIO):
    """A stdout on a full device whose every write fails."""

    write = _full


class FullOnFlush(io.StringIO):
    """A stdout on a full device whose writes are buffered and whose flush fails."""

    flush = _full


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report(argv: list[str], note: str = "", stdout: type[io.StringIO] | None = io.StringIO
           ) -> None:
    """Runs argv with a new ``stdout`` instance, or with none, and prints its row."""
    out, err = (stdout or io.StringIO)(), io.StringIO()
    row = None
    with contextlib.redirect_stdout(out if stdout else None), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse prints --help and exits
            code = e.code
        except Exception as e:  # escaped main: its own row, not the end of the run
            row = ["exc", type(e).__name__]
    if row is None:
        row = [code, sha256(out.getvalue())] + ([sha256(err.getvalue())] if code == 1 else [])
    print(*row, " ".join(argv) + note, flush=True)


def main() -> None:
    print(f"noncross from {cli.__file__}", file=sys.stderr)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
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
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, data in POINT_FILES.items():
                with open(name, "wb") as fh:
                    fh.write(data)
            for name in (*POINT_FILES, "missing.txt"):
                for command in (["count", "ham"], ["params"]):
                    for fmt in ("text", "json"):
                        report([*command, "--input", name, "--format", fmt])
        finally:
            os.chdir(home)
    for name, data in POINT_FILES.items():
        for fmt in ("text", "json"):
            sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                         errors="surrogateescape", newline="\n")
            try:
                report(["count", "ham", "--input", "-", "--format", fmt], f" < {name}")
            finally:
                sys.stdin = sys.__stdin__
    for fmt in ("text", "json"):
        sys.stdin = None
        try:
            report(["count", "ham", "--input", "-", "--format", fmt], " <&-")
        finally:
            sys.stdin = sys.__stdin__
    for verb in ("count", "enumerate"):
        for fmt in ("text", "json"):
            report([verb, "ham", "--gen", "convex:5", "--format", fmt], " >&-", stdout=None)
    for argv in USAGE:
        report(list(argv))
    for full, note in ((FullOnWrite, " >full(write)"), (FullOnFlush, " >full(flush)")):
        for command in (["count", "ham"], ["enumerate", "ham"], ["params"]):
            for fmt in ("text", "json"):
                report([*command, "--gen", "convex:5", "--format", fmt], note, stdout=full)
        report(["--help"], note, stdout=full)


if __name__ == "__main__":
    main()
