"""Command-line front end.

Subcommands: ``params``, ``enumerate``, ``count``, ``estimate``, ``verify``,
``formulas``, ``svg``, ``fixtures``.  Input is either a point file
(``--input``; plain text with one ``x y`` pair per line and ``#`` comments,
or JSON ``{"points": [[x, y], ...]}``) or a generator spec (``--gen``, e.g.
``convex:6``, ``grid:3x3``, ``random:7,42``).

Exit codes: 0 success, 1 usage, input or output error (including a reader
that closes stdout early), 2 enumeration budget exhausted, 3 verification
mismatch, 4 internal invariant violation.

Structure streams and reports go to stdout and are byte-identical across
runs; wall-clock timing goes to stderr only.  Text ``enumerate`` writes
structures while the search runs.  ``--parallel`` fans the search out over
multiprocessing workers, one task per start vertex for path kinds and one
per child of the hull for polygon kinds; results are merged in task order,
so output is identical to the single-process run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from functools import partial
from typing import Sequence

# Only the search modules load here; every other module is imported by the
# handler that needs it, so a ``count`` or ``enumerate`` process starts fast.
from .geom import InternalInvariantError, PointSet
from .paths import EnumerationOutcome, SubtreeTable, path_tree, tree_search
from .polygons import polygon_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRUNCATED = 2
EXIT_MISMATCH = 3
EXIT_INVARIANT = 4


class CliError(Exception):
    """Input or usage problem; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(f"{self.prog}: {message}")


def parse_points_text(text: str) -> PointSet:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            col = raw.index(line) + 1
            raise CliError(
                f"line {lineno}, column {col}: expected 'x y', got {line!r}"
            )
        row = []
        col = 0
        for token in tokens:
            # Search past the token before, so '-12 -' puts '-' at column 5, not 1.
            col = raw.index(token, col)
            try:
                row.append(int(token))
            except ValueError:
                raise CliError(
                    f"line {lineno}, column {col + 1}: {token!r} is not an integer"
                ) from None
            col += len(token)
        rows.append(tuple(row))
    try:
        return PointSet(rows)
    except ValueError as e:
        raise CliError(str(e)) from None


def parse_points_json(text: str) -> PointSet:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict) or "points" not in data:
        raise CliError('JSON input must be an object with a "points" array')
    pts = data["points"]
    if not isinstance(pts, list):
        raise CliError('"points" must be an array of [x, y] pairs')
    rows = []
    for i, entry in enumerate(pts):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)):
            raise CliError(f"points[{i}] must be a pair of integers, got {entry!r}")
        rows.append((entry[0], entry[1]))
    try:
        return PointSet(rows)
    except ValueError as e:
        raise CliError(str(e)) from None


def load_input(args) -> PointSet:
    if args.gen is not None:
        from .families import FamilySpec

        try:
            return FamilySpec.from_string(args.gen).build()
        except ValueError as e:
            raise CliError(str(e)) from None
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(str(e)) from None
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors write
    if text.lstrip().startswith("{"):
        return parse_points_json(text)
    return parse_points_text(text)


@contextlib.contextmanager
def _output(args):
    """The ``--out`` file, else ``sys.stdout`` as bound at call time (tests swap it)."""
    if getattr(args, "out", None):
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as e:
            raise CliError(f"cannot write {args.out}: {e.strerror or e}") from None
        with fh:
            yield fh
    else:
        yield sys.stdout


def _write_out(args, payload: str) -> None:
    with _output(args) as out:
        out.write(payload)


def _json_line(payload, **options) -> str:
    """One JSON line; ``json`` is imported on first use, as text output never needs it."""
    import json

    return json.dumps(payload, **options) + "\n"


# Each kind's search tree, as (roots, children, emit) for tree_search, followed
# by the key function of a tree whose counts add repeated subtrees whole; a
# ``count`` reads the key, an ``enumerate`` walks every node.
_KINDS = {
    "paths": partial(path_tree, ham=False),
    "ham": partial(path_tree, ham=True),
    "surround": partial(polygon_tree, full_only=False),
    "poly": partial(polygon_tree, full_only=True),
}


# A pool worker's (children, emit, key, table), set once by _start_worker.
_worker: tuple = ()


def _start_worker(points, kind: str) -> None:
    """Pool initializer: builds the worker's tree and its ``SubtreeTable`` once."""
    global _worker
    _, children, emit, *key = _KINDS[kind](PointSet(points))
    _worker = (children, emit, key, SubtreeTable())


def _search_subtree(task) -> tuple[EnumerationOutcome, list | None]:
    """Pool worker: searches below one root; returns the structures if asked to.

    A task is ``(root, collect)``.  The tree comes from the pool initializer,
    so a worker's counts all share its one ``SubtreeTable``.
    """
    root, collect = task
    children, emit, key, table = _worker
    found: list | None = [] if collect else None
    outcome = tree_search([root], children, emit, None if found is None else found.append,
                          None, *key, table=table)
    return outcome, found


def _run_enumeration(s: PointSet, kind: str, sink=None, budget: int | None = None,
                     parallel: int = 1) -> EnumerationOutcome:
    """Searches the tree of ``kind``, passing each structure to ``sink`` in order.

    With ``parallel`` > 1 every root is one pool task; a single root (the
    hull of a polygon kind) is reported here and its children are the
    tasks.  Task results are merged in task order, so the structures reach
    ``sink`` in the serial order.  A tree without roots is searched serially.
    """
    roots, children, emit, *key = _KINDS[kind](s)
    if parallel == 1 or not roots:
        return tree_search(roots, children, emit, sink, budget, *key)
    tasks = roots
    count = nodes = 0
    if len(roots) == 1:
        tasks = children(roots[0])
        head = tree_search(roots, lambda node: (), emit, sink)
        count, nodes = head.count, head.nodes_visited
    if tasks:
        import multiprocessing

        points = tuple(tuple(p) for p in s.points)
        collect = sink is not None
        with multiprocessing.Pool(parallel, _start_worker, (points, kind)) as pool:
            for outcome, found in pool.imap(_search_subtree,
                                            [(root, collect) for root in tasks]):
                count += outcome.count
                nodes += outcome.nodes_visited
                for structure in found or ():
                    sink(structure)
    return EnumerationOutcome(count, nodes)


def _fmt_structure(seq: Sequence[int]) -> str:
    return ",".join(map(str, seq))


def cmd_params(args) -> int:
    from .params import param_report

    s = load_input(args)
    if s.n == 0:
        raise CliError("params needs a nonempty point set")
    report = param_report(s)
    if args.format == "json":
        _write_out(args, _json_line(report.to_json_dict()))
    else:
        d = report.to_json_dict()
        wl = d["witness_line"]
        _write_out(args, (
            f"n={d['n']} offline={d['offline']} inhull={d['inhull']} m={d['m']} "
            f"max_collinear={d['max_collinear']} "
            f"witness_line={'-' if wl is None else _fmt_structure(wl)}\n"
        ))
    return EXIT_OK


_BATCH_LINES = 1024


def cmd_enumerate(args) -> int:
    s = load_input(args)
    t0 = time.perf_counter()
    with _output(args) as out:
        if args.format == "json":
            structures: list = []
            outcome = _run_enumeration(s, args.kind, structures.append, args.budget,
                                       args.parallel)
            payload = {
                "kind": args.kind,
                **outcome.to_json_dict(),
                "structures": structures,
            }
            out.write(_json_line(payload))
        else:
            # Lines go out in batches: stdout may be unbuffered (PYTHONUNBUFFERED),
            # and one write per structure would then be one system call each.
            batch: list[str] = []
            # Every index is formatted once, not once per line it appears on.
            name = [str(i) for i in range(s.n)].__getitem__

            def write_line(seq):
                batch.append(",".join(map(name, seq)))
                if len(batch) == _BATCH_LINES:
                    out.write("\n".join(batch) + "\n")
                    batch.clear()

            outcome = _run_enumeration(s, args.kind, write_line, args.budget, args.parallel)
            batch.append(f"# count={outcome.count} nodes_visited={outcome.nodes_visited} "
                         f"truncated={str(outcome.truncated).lower()}")
            out.write("\n".join(batch) + "\n")
    elapsed = time.perf_counter() - t0
    print(f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return EXIT_TRUNCATED if outcome.truncated else EXIT_OK


def cmd_count(args) -> int:
    s = load_input(args)
    t0 = time.perf_counter()
    outcome = _run_enumeration(s, args.kind, None, args.budget, args.parallel)
    elapsed = time.perf_counter() - t0
    ratio = outcome.nodes_visited / outcome.count if outcome.count else None
    if args.format == "json":
        payload = {"kind": args.kind, **outcome.to_json_dict(),
                   "nodes_per_structure": ratio}
        _write_out(args, _json_line(payload))
    else:
        _write_out(args, (
            f"kind={args.kind} count={outcome.count} "
            f"nodes_visited={outcome.nodes_visited} "
            f"nodes_per_structure={'-' if ratio is None else format(ratio, '.3f')} "
            f"truncated={str(outcome.truncated).lower()}\n"
        ))
    print(f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return EXIT_TRUNCATED if outcome.truncated else EXIT_OK


def cmd_estimate(args) -> int:
    from .counting import estimate

    s = load_input(args)
    if s.n == 0:
        raise CliError("estimate needs a nonempty point set")
    report = estimate(s)
    payload = report.to_json_dict()
    if args.empirical:
        counts, ratios = _empirical(s, report, args.budget)
        payload["counts"] = counts.to_json_dict()
        payload["log2_count_over_scale"] = ratios
    if args.format == "json":
        _write_out(args, _json_line(payload))
    else:
        keys = ["n", "offline", "inhull", "m", "path_scale", "ham_scale",
                "poly_scale", "proven_ham_lower_log2"]
        line = " ".join(f"{k}={_fmt_number(payload[k])}" for k in keys)
        extra = ""
        if args.empirical:
            extra = "".join(
                f"\nempirical_{k}={_fmt_number(v)}"
                for k, v in sorted(payload["log2_count_over_scale"].items())
            )
        _write_out(args, line + extra + "\n")
    return EXIT_OK


def _fmt_number(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def _empirical(s: PointSet, report, budget: int | None):
    import math

    from .counting import CountReport

    counts = {}
    for kind in _KINDS:
        outcome = _run_enumeration(s, kind, budget=budget)
        counts[kind] = None if outcome.truncated else outcome.count
    count_report = CountReport(path=counts["paths"], ham=counts["ham"],
                               surround=counts["surround"], poly=counts["poly"])
    scales = {"paths": report.path_scale, "ham": report.ham_scale,
              "surround": report.poly_scale, "poly": report.poly_scale}
    ratios = {}
    for kind, count in counts.items():
        scale = scales[kind]
        if count and scale > 0:
            ratios[kind] = math.log2(count) / scale
    return count_report, ratios


def cmd_verify(args) -> int:
    from .oracle import cross_check

    s = load_input(args)
    try:
        report = cross_check(s, args.oracle_limit)
    except ValueError as e:
        raise CliError(str(e)) from None
    if args.format == "json":
        _write_out(args, _json_line(report.to_json_dict()))
    else:
        lines = []
        for kind, check in report.classes.items():
            status = "match" if check.match else "MISMATCH"
            line = (f"{kind}: oracle={check.oracle_count} "
                    f"enumerator={check.enum_count} {status}")
            if check.witness is not None:
                line += f" witness={_fmt_structure(check.witness)}"
            lines.append(line)
        lines.append("VERIFY " + ("OK" if report.all_match else "MISMATCH"))
        _write_out(args, "".join(line + "\n" for line in lines))
    return EXIT_OK if report.all_match else EXIT_MISMATCH


# Family -> (closed form in ``counting``, smallest n it is defined for).
_FORMULAS = {
    "convex-ham": ("convex_ham_count", 2),
    "convex-path": ("convex_path_count", 1),
    "pseudo-poly": ("pseudotriangle_poly_count", 3),
    "pseudo-surround": ("pseudotriangle_surround_count", 3),
}


def cmd_formulas(args) -> int:
    from . import counting

    try:
        lo, dots, hi = args.n_range.partition("..")
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise CliError(f"cannot parse range {args.n_range!r}; use e.g. 3..12") from None
    name, min_n = _FORMULAS[args.family]
    if lo < min_n:
        raise CliError(f"{args.family} is defined for n >= {min_n}")
    if hi < lo:
        raise CliError("empty range")
    fn = getattr(counting, name)
    values = {n: fn(n) for n in range(lo, hi + 1)}
    if args.format == "json":
        _write_out(args, _json_line(
            {"family": args.family, "values": {str(n): v for n, v in values.items()}}
        ))
    else:
        _write_out(args, "".join(f"{n} {v}\n" for n, v in values.items()))
    return EXIT_OK


def cmd_svg(args) -> int:
    from .svg import render_svg

    s = load_input(args)
    overlay = None
    if args.overlay:
        try:
            overlay = [int(v) for v in args.overlay.split(",")]
        except ValueError:
            raise CliError(f"cannot parse overlay {args.overlay!r}") from None
    try:
        payload = render_svg(s, overlay, args.overlay_kind)
    except ValueError as e:
        raise CliError(str(e)) from None
    _write_out(args, payload)
    return EXIT_OK


FIXTURE_INSTANCES = {
    "convex4": "convex:4",
    "convex5": "convex:5",
    "convex6": "convex:6",
    "pseudotriangle4": "pseudotriangle:4",
    "pseudotriangle5": "pseudotriangle:5",
    "pseudotriangle6": "pseudotriangle:6",
    "collinear5": "collinear:5",
    "one_sided_4_3": "one_sided:4,3",
    "square_center": None,  # literal points below
    "grid3x3": "grid:3x3",
}

SQUARE_CENTER = ((0, 0), (4, 0), (4, 4), (0, 4), (2, 2))


def cmd_fixtures(args) -> int:
    from .families import FamilySpec
    from .oracle import brute_ham, brute_paths, brute_poly, brute_surround

    limit = args.oracle_limit
    out: dict = {"oracle_limit": limit, "instances": {}}
    for name, spec in FIXTURE_INSTANCES.items():
        s = PointSet(SQUARE_CENTER) if spec is None else FamilySpec.from_string(spec).build()
        if s.n > limit:
            continue
        counts = {
            "path": brute_paths(s, limit)[0],
            "ham": brute_ham(s, limit)[0],
            "surround": brute_surround(s, limit)[0],
            "poly": brute_poly(s, limit)[0],
        }
        out["instances"][name] = {
            "gen": spec,
            "points": s.points,
            "counts": counts,
        }
    _write_out(args, _json_line(out, indent=2, sort_keys=True))
    return EXIT_OK


def _int_at_least(low: int):
    """Argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser() -> _Parser:
    parser = _Parser(prog="noncross", description=__doc__.splitlines()[0]
                     if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", metavar="FILE",
                           help="point file (text 'x y' lines or JSON); '-' for stdin")
        group.add_argument("--gen", metavar="SPEC",
                           help="generator spec, e.g. convex:6 or random:7,42")

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    p = sub.add_parser("params", help="structural parameters of the input")
    add_input(p)
    add_common(p)
    p.set_defaults(fn=cmd_params)

    for name, helptext in (("enumerate", "list structures, one per line"),
                           ("count", "count structures without listing them")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("kind", choices=tuple(_KINDS))
        add_input(p)
        add_common(p)
        p.add_argument("--budget", type=_int_at_least(0), metavar="N",
                       help="abort after N search-tree nodes (exit code 2)")
        p.add_argument("--parallel", type=_int_at_least(1), default=1, metavar="W",
                       help="distribute root subtrees over W worker processes")
        p.set_defaults(fn=cmd_enumerate if name == "enumerate" else cmd_count)

    p = sub.add_parser("estimate", help="log-scale count estimates")
    add_input(p)
    add_common(p)
    p.add_argument("--empirical", action="store_true",
                   help="also enumerate and report log2(count)/scale ratios")
    p.add_argument("--budget", type=_int_at_least(0), metavar="N",
                   help="node budget for --empirical enumeration")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("verify", help="cross-check enumerators against oracles")
    add_input(p)
    add_common(p)
    p.add_argument("--oracle-limit", type=_int_at_least(1), default=8, metavar="N")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("formulas", help="closed-form count tables")
    p.add_argument("--family", choices=sorted(_FORMULAS), required=True)
    p.add_argument("--n", dest="n_range", required=True, metavar="A..B")
    add_common(p)
    p.set_defaults(fn=cmd_formulas)

    p = sub.add_parser("svg", help="render the point set as standalone SVG")
    add_input(p)
    p.add_argument("--overlay", metavar="I,J,K",
                   help="comma-separated structure to draw on top")
    p.add_argument("--overlay-kind", choices=("path", "polygon"), default="path")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_svg, format="svg")

    p = sub.add_parser("fixtures", help="emit oracle counts for the named instances")
    p.add_argument("--oracle-limit", type=_int_at_least(1), default=9, metavar="N")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_fixtures, format="json")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Checked before any handler runs, so a rejected run never opens --out.
        if getattr(args, "parallel", 1) > 1 and args.budget is not None:
            raise CliError("--budget cannot be combined with --parallel")
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point the descriptor
        # at devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)
