#!/usr/bin/env python3
"""Compare two ``noncross`` source trees on one benchmark workload, in process.

Usage, from the root of a checkout (Python 3.10+, standard library only):

    python3 scripts/inproc_ab.py OLD_SRC NEW_SRC --workload paths-enumerate --rounds 20
    python3 scripts/inproc_ab.py OLD_SRC NEW_SRC --workload polygon-count --seed 2

OLD_SRC and NEW_SRC are directories that hold a ``noncross`` package, such
as the ``src`` of two checkouts.  The workload's commands and point files
come from ``perfbench/run.py`` (``WORKLOADS``, and ``write_point_files`` at
``--seed``, 1 by default), which is imported, never changed.  A seed picks
a lattice symmetry and shift of each set; a reflection reverses the
orientation of canonical polygons and so the order of the polygon search's
insertion tests, so time a polygon change at two seeds.  Each round starts
two child processes per side, the sides in alternating order:
``perfbench/inproc.py`` with the side's tree on ``PYTHONPATH``, which
imports ``noncross.cli``, runs every command of the workload once through
``cli.main``, and reports the pass's ``wall_s`` (the import included, as in
the benchmark) and each command's exit code and stdout SHA-256.  The first
child runs the commands as the workload gives them, the second with
``--budget 0`` (``Cmd.argv(..., budget=0)``), which loads the input and
builds each tree but visits no node.

The report's first line names the workload, and the seed when it is not
1.  It gives each side's min and median ``wall_s`` of the full pass
over the rounds, the median of the per-round ratios new/old with the rounds
that new won, the same for the search alone, the full pass less the
``--budget 0`` pass (what the benchmark's ``structures_per_s`` divides
by), and whether both sides wrote the same stdout (SHA-256 and exit code of
every command of both passes, in every round).  The exit code is 0 when the
outputs match, else 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_side(src: Path, plan_file: Path) -> dict:
    """``wall_s`` of one ``perfbench/inproc.py`` child, and its (rc, sha256) per command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, str(PERFBENCH / "inproc.py"), str(plan_file)],
                         env=env, capture_output=True, text=True, check=True).stdout
    record = json.loads(out.splitlines()[-1])
    digests = [f"{c['rc']} {c['sha256']}" for c in record["commands"]]
    return {"wall_s": record["wall_s"], "digests": digests}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "src"))  # run.py's point sets are built with FamilySpec
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, metavar="OLD_SRC")
    parser.add_argument("new", type=Path, metavar="NEW_SRC")
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS), required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "noncross" / "__init__.py").is_file():
            parser.error(f"{src} holds no noncross package")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    commands = bench.WORKLOADS[args.workload].commands
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    # Per side, one {"full": run, "setup": run} per round; see run_side.
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        files = bench.write_point_files(workdir, [c.spec for c in commands], args.seed)
        plans = {"full": [c.argv(files[c.spec]) for c in commands],
                 "setup": [c.argv(files[c.spec], budget=0) for c in commands]}
        plan_files = {}
        for name, plan in plans.items():
            plan_files[name] = workdir / f"{name}.json"
            plan_files[name].write_text(json.dumps(plan), encoding="utf-8")
        for r in range(args.rounds):
            order = ("old", "new") if r % 2 == 0 else ("new", "old")
            for side in order:
                runs[side].append({name: run_side(sides[side], plan_file)
                                   for name, plan_file in plan_files.items()})
    seed = "" if args.seed == 1 else f", seed {args.seed}"
    print(f"workload {args.workload}{seed}, {args.rounds} rounds, "
          f"{len(commands)} commands per child")
    for side in ("old", "new"):
        wall = [run["full"]["wall_s"] for run in runs[side]]
        print(f"{side}  wall_s min {min(wall):.4f}  median {statistics.median(wall):.4f}  "
              f"{sides[side]}")

    def paired(label: str, seconds) -> None:
        ratios = [seconds(new) / seconds(old) for old, new in zip(runs["old"], runs["new"])]
        wins = sum(ratio < 1 for ratio in ratios)
        print(f"paired new/old{label}  median {statistics.median(ratios):.3f}  "
              f"new faster in {wins} of {len(ratios)} rounds")

    paired("", lambda run: run["full"]["wall_s"])
    paired(" search", lambda run: run["full"]["wall_s"] - run["setup"]["wall_s"])
    digests = {json.dumps([run["full"]["digests"], run["setup"]["digests"]])
               for side in runs.values() for run in side}
    if len(digests) == 1:
        print("stdout sha256: match")
        return 0
    print("stdout sha256: MISMATCH")
    for side in ("old", "new"):
        for name in ("full", "setup"):
            for line in runs[side][0][name]["digests"]:
                print(f"{side} {name}  {line}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
