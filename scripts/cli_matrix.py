"""Print one line per `count` / `enumerate` command: exit code, SHA-256 of stdout, argv.

Usage:

    PYTHONPATH=src python3 scripts/cli_matrix.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/cli_matrix.py > parent.txt
    diff parent.txt change.txt

The commands run in this process through ``noncross.cli.main``, over
count and enumerate x the four kinds x text and JSON x {serial,
``--parallel 2``, ``--budget 0``, ``--budget 37``} x the sets in ``SETS``
(448 commands).  The ``noncross`` on ``PYTHONPATH`` is the one measured,
so two checkouts are compared by running this same script against each
and diffing the outputs; the package path goes to stderr.  Standard
library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from noncross import cli

SETS = ("grid:3x3", "one_sided:4,3", "collinear:5", "pseudotriangle:8", "random:8,3,3",
        "random:9,4,6", "convex:3")
MODES = ((), ("--parallel", "2"), ("--budget", "0"), ("--budget", "37"))


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    print(f"noncross from {cli.__file__}", file=sys.stderr)
    for verb in ("count", "enumerate"):
        for kind in ("paths", "ham", "surround", "poly"):
            for fmt in ("text", "json"):
                for mode in MODES:
                    for spec in SETS:
                        argv = [verb, kind, "--gen", spec, "--format", fmt, *mode]
                        code, digest = run(argv)
                        print(code, digest, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
