#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``noncross`` command line.

Run from the root of a checkout (Python 3.10+, standard library only):

    python3 perfbench/run.py --workload ham-count --seed 1 --seconds 30 --trace 0

``--trace 0`` is the end-to-end run.  One closed-loop client (client.py)
runs the workload's commands one after another, each as a fresh ``python3 -m
noncross`` process reading a point file, with stdout drained through a pipe
and hashed in fixed-size chunks.  It repeats passes for ``--seconds``; a pass
runs every command once with ``--budget 0`` (its set-up) and once in full,
each after a run of the fixed reference workload (reference.py).  A pass's
total times are divided by its mean reference time and multiplied by
``REF_S``, which cancels the drift of the shared host's speed, and the
metrics are medians over the passes.

``--trace 1`` is the per-layer run.  It drives the same commands in-process
through ``noncross.cli.main`` in fresh child processes, with and without
cProfile, and times calls into the public functions of ``geom``, ``paths``,
``polygons`` and ``cli`` on the workload's point sets.

Every command's output is checked: exit code, count (against the closed
forms or against ``references.json``), and stdout SHA-256.  Human-readable
lines come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.

``python3 perfbench/run.py --record`` rewrites ``references.json`` from the
program as it is.  Metric names and units come from ``BENCHMARK.json``;
RATIONALE.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
WORK = ROOT / ".bench_work"

CHUNK = 1 << 16
MIN_PASSES = 3
TRACE_PASSES = 2
RSS_TOLERANCE_MB = 0.5
# End-to-end times are in seconds on a host where reference.py takes REF_S,
# about its wall time on the quiet 2-core VM the baseline was measured on.
REF_S = 0.27
REFS_PER_PASS = 4


@dataclass(frozen=True)
class Cmd:
    """One CLI invocation on one generated instance."""

    verb: str  # "count" or "enumerate"
    kind: str
    spec: str  # noncross generator spec of the instance before the seeded transform
    parallel: int | None = None

    @property
    def key(self) -> str:
        """Identifies the expected output; ``--parallel`` must not change it."""
        return f"{self.verb} {self.kind} {self.spec}"

    def argv(self, path: Path, *, serial: bool = False, budget: int | None = None) -> list[str]:
        args = [self.verb, self.kind, "--input", str(path)]
        if self.parallel and not serial and budget is None:
            args += ["--parallel", str(self.parallel)]
        if budget is not None:
            args += ["--budget", str(budget)]
        return args


@dataclass(frozen=True)
class Workload:
    commands: tuple[Cmd, ...]
    probe: int  # index of the command whose instance the cli.output_s probe uses
    fanout: int | None = None  # index of the command the per-layer run also runs with --parallel 2


_PATH_SETS = ("convex:9", "grid:3x3", "random:9,2,4", "random:9,4,5")
WORKLOADS = {
    "ham-count": Workload(tuple(Cmd("count", "ham", s) for s in _PATH_SETS), 0, 0),
    "paths-enumerate": Workload(tuple(Cmd("enumerate", "paths", s) for s in _PATH_SETS), 0),
    "polygon-count": Workload(tuple(Cmd("count", "surround", s) for s in (
        "pseudotriangle:10", "grid:3x3", "random:10,4,5", "random:9,4,6")), 2, 0),
}
PATH_KINDS = ("paths", "ham")

_SUMMARY = re.compile(r"count=(\d+) nodes_visited=(\d+)\b.*truncated=(true|false)")
# The eight symmetries of the integer lattice; each maps a point set onto a
# congruent one, so every count and every enumerate stream is unchanged.
_SYMMETRIES = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
               (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))


def seeded_points(spec: str, seed: int) -> list[tuple[int, int]]:
    """The instance ``spec`` under a lattice symmetry and shift drawn from ``seed``."""
    from noncross import FamilySpec

    rng = random.Random(f"{seed}/{spec}")
    a, b, c, d = rng.choice(_SYMMETRIES)
    dx, dy = rng.randint(-500, 500), rng.randint(-500, 500)
    return [(a * x + b * y + dx, c * x + d * y + dy)
            for x, y in FamilySpec.from_string(spec).build().points]


def write_point_files(workdir: Path, specs, seed: int) -> dict[str, Path]:
    files = {}
    for i, spec in enumerate(dict.fromkeys(specs)):
        path = workdir / f"instance{i}.txt"
        lines = [f"# {spec} seed={seed}"] + [f"{x} {y}" for x, y in seeded_points(spec, seed)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        files[spec] = path
    return files


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Run:
    """What one ``noncross`` process did, as the client saw it."""

    rc: int
    wall_s: float
    maxrss_mb: float
    sha256: str
    nlines: int
    tail: str
    stderr: str


class Client:
    """The closed-loop client process (client.py); one command at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "client.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> Run:
        """Runs ``python3 -m noncross`` with ``argv``."""
        return self._spawn(["-m", "noncross", *argv])

    def reference(self, checker: Checker) -> float:
        """Runs reference.py once, checks its output and returns its wall time."""
        run = self._spawn([str(HERE / "reference.py")])
        checker.check_reference(run)
        return run.wall_s

    def _spawn(self, args: list[str]) -> Run:
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"client exited with code {self.proc.wait()}")
        return Run(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Checker:
    """Correctness gate applied to every command the benchmark runs."""

    def __init__(self, workload: Workload) -> None:
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
        self.expected = {cmd.key: refs["counts"][cmd.key] for cmd in workload.commands}
        self.enum_sha = refs["enumerate_sha256"]
        self._closed_forms(workload)
        self.first_sha: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _closed_forms(self, workload: Workload) -> None:
        from noncross import convex_ham_count, convex_path_count, pseudotriangle_surround_count

        forms = {("ham", "convex"): convex_ham_count, ("paths", "convex"): convex_path_count,
                 ("surround", "pseudotriangle"): pseudotriangle_surround_count}
        for cmd in workload.commands:
            family, _, n = cmd.spec.partition(":")
            form = forms.get((cmd.kind, family))
            if form is not None:
                self.expected[cmd.key] = form(int(n))

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def check(self, cmd: Cmd, rc: int, sha256: str, nlines: int, tail: str,
              *, budget0: bool = False, stderr: str = "") -> tuple[int, int] | None:
        """Returns (count, nodes_visited) when the output is right, else None."""
        self.attempted += 1
        want_rc = 2 if budget0 else 0
        last = tail.rstrip("\n").rsplit("\n", 1)[-1]
        m = _SUMMARY.search(last)
        if rc != want_rc or m is None:
            self.fail(f"{cmd.key}: exit {rc} (want {want_rc}), last line {last!r} {stderr.strip()}")
            return None
        count, nodes, truncated = int(m[1]), int(m[2]), m[3] == "true"
        if budget0:
            if not truncated or count or nodes:
                self.fail(f"{cmd.key} --budget 0: {last!r}")
                return None
            return count, nodes
        if truncated or count != self.expected[cmd.key]:
            self.fail(f"{cmd.key}: {last!r}, want count={self.expected[cmd.key]}")
            return None
        if cmd.verb == "enumerate":
            if nlines != count + 1 or sha256 != self.enum_sha[cmd.key]:
                self.fail(f"{cmd.key}: {nlines} lines, sha256 {sha256} differs from reference")
                return None
        elif self.first_sha.setdefault(cmd.key, sha256) != sha256:
            # count output carries nodes_visited, which pruning may change, so
            # its digest is recorded on the first (serial) run of this process.
            self.fail(f"{cmd.key}: stdout sha256 {sha256} != first run {self.first_sha[cmd.key]}")
            return None
        return count, nodes

    def check_reference(self, run: Run) -> None:
        from reference import CHECKSUM

        self.attempted += 1
        if run.rc != 0 or run.tail.strip() != CHECKSUM:
            self.fail(f"reference.py: exit {run.rc}, output {run.tail.strip()!r}, "
                      f"want {CHECKSUM!r} {run.stderr.strip()}")

    def check_run(self, cmd: Cmd, run: Run, *, budget0: bool = False):
        return self.check(cmd, run.rc, run.sha256, run.nlines, run.tail,
                          budget0=budget0, stderr=run.stderr)


# ---------------------------------------------------------------- end to end

def end_to_end(client: Client, workload: Workload, files: dict[str, Path], seconds: float,
               checker: Checker) -> dict[str, float]:
    """Passes over the workload for ``seconds``; each command's ``--budget 0``
    set-up run and the reference runs are interleaved with it, so all of them
    sample the same stretch of time."""
    cmds = workload.commands
    refs_each = -(-REFS_PER_PASS // len(cmds))
    trivial = cmds[0].argv(files[cmds[0].spec], budget=0)
    for cmd in cmds:  # warm-up: byte-compiles the package on a fresh checkout
        checker.check_run(cmd, client.run(cmd.argv(files[cmd.spec], budget=0)), budget0=True)
    rss_before = client.run(trivial).maxrss_mb

    walls, setups, refs, peaks = [], [], [], []  # one entry per pass
    structures = [0] * len(cmds)
    start = time.perf_counter()
    while len(peaks) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall = setup = peak = 0.0
        ref = []
        for i, cmd in enumerate(cmds):
            ref += [client.reference(checker) for _ in range(refs_each)]
            run = client.run(cmd.argv(files[cmd.spec], budget=0))
            checker.check_run(cmd, run, budget0=True)
            setup += run.wall_s
            run = client.run(cmd.argv(files[cmd.spec]))
            got = checker.check_run(cmd, run)
            structures[i] = got[0] if got else 0
            wall += run.wall_s
            peak = max(peak, run.maxrss_mb)
        walls.append(wall)
        setups.append(setup)
        refs.append(statistics.fmean(ref))
        peaks.append(peak)

    checker.attempted += 1
    rss_after = client.run(trivial).maxrss_mb
    if abs(rss_after - rss_before) > RSS_TOLERANCE_MB:
        checker.fail(f"peak RSS of a trivial command moved from {rss_before:.1f} MB to "
                     f"{rss_after:.1f} MB after the passes: the client leaks its high-water mark")

    def scaled(totals: list[float]) -> float:
        """Median over the passes of a pass total in reference-scaled seconds."""
        return statistics.median(x * REF_S / r for x, r in zip(totals, refs))

    print(f"passes={len(peaks)} pass_walls_s={[round(w, 3) for w in walls]} "
          f"pass_references_s={[round(r, 3) for r in refs]} "
          f"trivial_rss_mb={rss_before:.2f}->{rss_after:.2f}")
    return {
        "wall_s": scaled(walls),
        "structures_per_s": sum(structures) / scaled([w - s for w, s in zip(walls, setups)]),
        "setup_s": scaled(setups),
        "peak_rss_mb": statistics.median(peaks),
    }


# ------------------------------------------------------------------ per layer

def inproc_pass(plan_file: Path, profile: bool) -> dict:
    argv = [sys.executable, str(HERE / "inproc.py"), str(plan_file)]
    if profile:
        argv.append("--profile")
    out = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def record_predicate_mix(sets, path_budget: int = 1500, polygon_budget: int = 40):
    """Arguments of the segment and triangle predicate calls made by both searches."""
    from noncross import enumerate_paths, enumerate_surrounding, geom, paths, polygons

    seg_args, tri_args = [], []
    seg, tri = geom.segment_relation, geom.point_in_triangle

    def seg_rec(*args):
        seg_args.append(args)
        return seg(*args)

    def tri_rec(*args):
        tri_args.append(args)
        return tri(*args)

    patched = [(geom, "segment_relation", seg_rec), (paths, "segment_relation", seg_rec),
               (polygons, "segment_relation", seg_rec), (polygons, "point_in_triangle", tri_rec)]
    try:
        for module, name, fn in patched:
            setattr(module, name, fn)
        for s in sets:
            enumerate_paths(s, None, path_budget)
            enumerate_surrounding(s, None, polygon_budget)
    finally:
        geom.segment_relation = paths.segment_relation = polygons.segment_relation = seg
        polygons.point_in_triangle = tri
    return seg_args[::max(1, len(seg_args) // 4000)], tri_args[::max(1, len(tri_args) // 4000)]


def per_call_ns(fn, mix) -> float:
    def loop():
        for args in mix:
            fn(*args)
    return median_time(loop, 7) / len(mix) * 1e9


def path_tasks(s) -> tuple[list[int], int]:
    """Nodes in each start-vertex subtree, the tasks ``--parallel`` makes for path kinds."""
    from noncross import enumerate_paths

    sizes = [0] * s.n

    def attribute(seq):
        # A path with k >= 2 vertices is two tree nodes, one under each endpoint.
        sizes[seq[0]] += 1
        if len(seq) > 1:
            sizes[seq[-1]] += 1

    outcome = enumerate_paths(s, attribute)
    return sizes, outcome.nodes_visited


def polygon_tasks(s, polys) -> list[int]:
    """Nodes in each subtree under the hull, the tasks ``--parallel`` makes for polygon kinds.

    ``polys`` is the surround tree in depth-first order, so every parent comes
    before its children.
    """
    from noncross import canonical_parent, hull_cycle

    root = hull_cycle(s)
    top: dict = {}
    sizes: dict = {}
    for poly in polys:
        if poly != root:
            parent = canonical_parent(s, poly)
            top[poly] = poly if parent == root else top[parent]
            sizes[top[poly]] = sizes.get(top[poly], 0) + 1
    return list(sizes.values())


def exact_layer_counts(cmds: tuple[Cmd, ...], sets: dict, checker: Checker) -> dict:
    """Exact counts computed in-process; they must not differ between passes."""
    from noncross import enumerate_surrounding, hull_cycle, polygon_children

    tried = children = 0
    tasks = 0
    max_share = 0.0
    for cmd in cmds:
        s = sets[cmd.spec]
        if cmd.kind in PATH_KINDS:
            if not cmd.parallel:
                continue
            sizes, want = path_tasks(s)
        else:
            polys = []
            nodes = enumerate_surrounding(s, polys.append).nodes_visited
            tried += sum((s.n - len(p)) * len(p) for p in polys)
            children += nodes - 1
            if not cmd.parallel:
                continue
            sizes = polygon_tasks(s, polys)
            want = nodes - 1  # the client expands the root itself
            checker.attempted += 1
            if len(sizes) != len(polygon_children(s, hull_cycle(s))):
                checker.fail(f"{cmd.key}: {len(sizes)} subtrees under the hull, "
                             "not one per root child")
        checker.attempted += 1
        if sum(sizes) != want:
            checker.fail(f"{cmd.key}: task sizes sum to {sum(sizes)}, want {want}")
        tasks += len(sizes)
        max_share = max(max_share, max(sizes) / sum(sizes))
    return {"polygons.insertion_yield": children / tried if tried else 0.0,
            "cli.fanout_tasks": tasks, "cli.fanout_max_task_share": max_share}


def output_probe(cmd: Cmd, path: Path) -> float:
    """In-process ``enumerate`` minus ``count`` wall on one instance, median of 3 pairs."""
    from inproc import HashingStdout
    from noncross import cli

    def wall(verb: str) -> float:
        argv = Cmd(verb, cmd.kind, cmd.spec, cmd.parallel).argv(path)
        real = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = HashingStdout(), HashingStdout()
        try:
            t0 = time.perf_counter()
            cli.main(argv)
            return time.perf_counter() - t0
        finally:
            sys.stdout, sys.stderr = real

    return statistics.median(wall("enumerate") - wall("count") for _ in range(3))


def per_layer(client: Client, workload: Workload, files: dict[str, Path], workdir: Path,
              checker: Checker) -> dict[str, float]:
    from inproc import LAYERS
    from noncross import (PointSet, cli, enumerate_ham_paths, enumerate_paths,
                          enumerate_surrounding, geom, polygon_children, radial_order)

    cmds = tuple(replace(c, parallel=2) if i == workload.fanout else c
                 for i, c in enumerate(workload.commands))
    sets = {spec: cli.load_input(argparse.Namespace(gen=None, input=str(path)))
            for spec, path in files.items()}
    plan = workdir / "plan.json"
    # Pool workers' profiles are lost, so the traced passes run --parallel commands serially.
    plan.write_text(json.dumps([c.argv(files[c.spec], serial=True) for c in cmds]))

    exact_runs, untraced, traced = [], [], []
    for _ in range(TRACE_PASSES):
        passes = [inproc_pass(plan, profile=False), inproc_pass(plan, profile=True)]
        untraced.append(passes[0])
        traced.append(passes[1])
        path_count = path_nodes = polygon_nodes = 0
        for rec in passes:
            for cmd, res in zip(cmds, rec["commands"]):
                got = checker.check(cmd, res["rc"], res["sha256"], res["nlines"],
                                    res["tail"])
                if got and rec is passes[1]:
                    if cmd.kind in PATH_KINDS:
                        path_count += got[0]
                        path_nodes += got[1]
                    else:
                        polygon_nodes += got[1]
        exact = {"geom.segment_relation_calls": passes[1]["calls"]["geom.segment_relation"],
                 "geom.cross_calls": passes[1]["calls"]["geom.cross"],
                 "paths.nodes": path_nodes,
                 "paths.structures_per_node": path_count / path_nodes if path_nodes else 0.0,
                 "polygons.nodes": polygon_nodes,
                 "cli.output_bytes": sum(r["nbytes"] for r in passes[1]["commands"])}
        exact.update(exact_layer_counts(cmds, sets, checker))
        exact_runs.append(exact)
    checker.attempted += 1
    if any(run != exact_runs[0] for run in exact_runs):
        checker.fail(f"exact counts differ between passes: {exact_runs}")

    metrics: dict[str, float] = dict(exact_runs[0])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(t["self_s"][layer] for t in traced)
    metrics["trace.overhead_ratio"] = (statistics.median(t["wall_s"] for t in traced)
                                       / statistics.median(u["wall_s"] for u in untraced))

    seg_mix, tri_mix = record_predicate_mix(sets.values())
    metrics["geom.segment_relation_ns"] = per_call_ns(geom.segment_relation, seg_mix)
    metrics["geom.point_in_triangle_ns"] = per_call_ns(geom.point_in_triangle, tri_mix)

    def radial_all():
        for s in sets.values():
            fresh = PointSet(s.points)
            for origin in range(fresh.n):
                radial_order(fresh, origin)
    metrics["geom.radial_order_ms"] = median_time(radial_all, 11) * 1e3

    path_kind = next((c.kind for c in cmds if c.kind in PATH_KINDS), "paths")
    enumerate_path_kind = enumerate_paths if path_kind == "paths" else enumerate_ham_paths

    def path_search():
        return sum(enumerate_path_kind(s, None, 8000).nodes_visited for s in sets.values())
    searched = path_search()
    metrics["paths.us_per_node"] = median_time(path_search, 3) / searched * 1e6

    sample = []
    for s in sets.values():
        enumerate_surrounding(s, lambda poly, s=s: sample.append((s, poly)), 25)

    def children_all():
        for s, poly in sample:
            polygon_children(s, poly)
    metrics["polygons.children_ms"] = median_time(children_all, 3) / len(sample) * 1e3

    probe = workload.commands[workload.probe]
    metrics["cli.output_s"] = output_probe(probe, files[probe.spec])

    efficiency = 0.0
    if workload.fanout is not None:
        cmd = cmds[workload.fanout]

        def wall(serial: bool) -> float:
            run = client.run(cmd.argv(files[cmd.spec], serial=serial))
            checker.check_run(cmd, run)
            return run.wall_s
        efficiency = statistics.median(wall(True) / (2 * wall(False)) for _ in range(3))
    metrics["cli.fanout_efficiency"] = efficiency

    texts = [path.read_text(encoding="utf-8") for path in files.values()]

    def parse_all():
        for text in texts:
            cli.parse_points_text(text)
    metrics["setup.parse_ms"] = median_time(parse_all, 21) * 1e3
    metrics["setup.import_s"] = statistics.median(import_seconds() for _ in range(5))
    return metrics


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import noncross.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    return float(out)


# ---------------------------------------------------------------------- main

def record_references(client: Client, workdir: Path) -> int:
    """Rewrite references.json; outputs must agree across two seeds."""
    counts, digests = {}, {}
    cmds = {c.key: c for w in WORKLOADS.values() for c in w.commands}
    for seed in (0, 1):
        files = write_point_files(workdir, [c.spec for c in cmds.values()], seed)
        for key, cmd in cmds.items():
            run = client.run(cmd.argv(files[cmd.spec], serial=True))
            m = _SUMMARY.search(run.tail.rstrip("\n").rsplit("\n", 1)[-1])
            if run.rc != 0 or m is None or m[3] != "false":
                raise SystemExit(f"{key}: exit {run.rc} {run.stderr}")
            if counts.setdefault(key, int(m[1])) != int(m[1]):
                raise SystemExit(f"{key}: count depends on the seed")
            if cmd.verb == "enumerate" and digests.setdefault(key, run.sha256) != run.sha256:
                raise SystemExit(f"{key}: enumerate output depends on the seed")
            print(f"{key}: count={m[1]} nodes={m[2]}", file=sys.stderr)
    REFERENCES.write_text(json.dumps({"counts": counts, "enumerate_sha256": digests},
                                     indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json from the current program")
    args = parser.parse_args()
    if not (SRC / "noncross" / "cli.py").is_file():
        print(f"error: no noncross sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 1
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    client = Client()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.record:
            return record_references(client, workdir)
        workload = WORKLOADS[args.workload]
        checker = Checker(workload)
        files = write_point_files(workdir, [c.spec for c in workload.commands], args.seed)
        if args.trace:
            metrics = per_layer(client, workload, files, workdir, checker)
        else:
            metrics = end_to_end(client, workload, files, args.seconds, checker)
    finally:
        client.close()
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = len(checker.failures)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]} {unit}")
    print(f"{args.workload} failed_ratio = {failed / checker.attempted} fraction "
          f"({failed} of {checker.attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
