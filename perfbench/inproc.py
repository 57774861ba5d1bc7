"""Run a list of noncross commands in one fresh process through ``noncross.cli.main``.

Usage (the parent benchmark ``run.py`` starts it with ``PYTHONPATH=src``):

    python3 perfbench/inproc.py PLAN.json [--profile]

``PLAN.json`` is a JSON list of argument lists.  Each command's stdout is
hashed in place of being printed.  The clock starts before ``noncross.cli``
is imported, so the import is part of the pass, as it is for a user.  With
``--profile`` the whole pass, import included, runs under cProfile; self time
is grouped by module file and exact call counts are taken for the geometric
predicates.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import cProfile
import hashlib
import importlib
import io
import json
import os
import pstats
import sys
import time

LAYERS = ("geom", "paths", "polygons", "cli")
COUNTED_CALLS = {("geom", "segment_relation"), ("geom", "cross")}


class HashingStdout(io.TextIOBase):
    """Text sink that keeps the SHA-256, byte count and last line of what is written."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.nlines = 0
        self.tail = b""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.nbytes += len(data)
        self.nlines += data.count(b"\n")
        self.tail = (self.tail + data)[-512:]
        return len(text)


def _run_pass(plan: list[list[str]]) -> tuple[float, list[dict]]:
    real_out, real_err = sys.stdout, sys.stderr
    results = []
    t0 = time.perf_counter()
    cli = importlib.import_module("noncross.cli")
    try:
        for argv in plan:
            sink = HashingStdout()
            sys.stdout, sys.stderr = sink, io.StringIO()
            rc = cli.main(argv)
            results.append({"rc": rc, "sha256": sink.sha.hexdigest(),
                            "nbytes": sink.nbytes, "nlines": sink.nlines,
                            "tail": sink.tail.decode("utf-8", "replace")})
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return time.perf_counter() - t0, results


def _layer_profile(prof: cProfile.Profile) -> tuple[dict, dict]:
    """Self seconds per noncross module file, and exact counts of COUNTED_CALLS."""
    pkg_dir = os.sep + "noncross" + os.sep
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = {f"{mod}.{fn}": 0 for mod, fn in sorted(COUNTED_CALLS)}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in \
            pstats.Stats(prof).stats.items():
        if pkg_dir not in filename:
            continue
        module = os.path.splitext(os.path.basename(filename))[0]
        if module in self_s:
            self_s[module] += tottime
        if (module, func) in COUNTED_CALLS:
            calls[f"{module}.{func}"] += ncalls
    return self_s, calls


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    record: dict = {}
    if "--profile" in sys.argv[2:]:
        prof = cProfile.Profile()
        prof.enable()
        try:
            record["wall_s"], record["commands"] = _run_pass(plan)
        finally:
            prof.disable()
        record["self_s"], record["calls"] = _layer_profile(prof)
    else:
        record["wall_s"], record["commands"] = _run_pass(plan)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
