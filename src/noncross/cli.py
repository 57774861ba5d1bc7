"""Command-line front end.

Subcommands: ``params``, ``enumerate``, ``count``, ``estimate``, ``verify``,
``formulas``, ``svg``, ``fixtures``.  Input is either a point file
(``--input``; plain text with one ``x y`` pair per line and ``#`` comments,
or JSON ``{"points": [[x, y], ...]}``) or a generator spec (``--gen``, e.g.
``convex:6``, ``grid:3x3``, ``random:7,42``).

Exit codes: 0 success, 1 usage, input or output error (including a reader
that closes stdout early, and a write or flush of ``--out`` or stdout that
fails, or a process started with no stdout, which is an ``error: cannot
write`` line), 2 enumeration budget
exhausted, 3 verification mismatch, 4 internal invariant violation.

Structure streams and reports go to stdout and are byte-identical across
runs; wall-clock timing goes to stderr only.  Text ``enumerate`` writes
structures while the search runs, as the lines the search tree emits in
place of tuples (a text path tree's node carries its line in place of its
tuple; a polygon is formatted when emitted).  ``--parallel`` fans the
search out over multiprocessing workers, one task per start vertex for
path kinds and one per child of the hull for polygon kinds; results are
merged in task order, so output is identical to the single-process run.

A ``count`` or ``enumerate`` process compiles only what it runs: the other
six handlers live in ``reports``, ``polygons`` loads with the first polygon
tree, and the parser gets only the subparser of the command argv names.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from functools import partial
from typing import Sequence

from .geom import InternalInvariantError, PointSet
from .paths import EnumerationOutcome, path_tree, tree_search

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

    def print_help(self, file=None):
        # argparse's own writer swallows every OSError, and with it a lost
        # help text on an unbuffered stdout.  The help goes to stdout: no
        # caller passes a file.
        with _output(None) as write:
            write(self.format_help())


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
    try:
        if args.input == "-":
            if sys.stdin is None:  # the process started with fd 0 closed
                raise CliError("-: no standard input to read")
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise CliError(str(e)) from None
    except UnicodeDecodeError as e:
        raise CliError(f"{args.input}: not UTF-8 text, byte {e.start}: {e.reason}") from None
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors write
    if text.lstrip().startswith("{"):
        return parse_points_json(text)
    return parse_points_text(text)


def _cannot_write(target: str, e: OSError) -> CliError:
    return CliError(f"cannot write {target}: {e.strerror or e}")


def _stdout():
    """``sys.stdout``; a process started with fd 1 closed has none, a CliError."""
    if sys.stdout is None:
        raise CliError("cannot write stdout: no standard output")
    return sys.stdout


@contextlib.contextmanager
def _output(args):
    """A ``write`` function for the ``--out`` file, else for ``sys.stdout`` as
    bound at call time (tests swap it); with no stdout at all, a CliError
    before the body runs, so a command fails before it searches.

    A write or close that fails is a CliError naming the file or stdout; a
    reader that closed the pipe stays a BrokenPipeError, which ``entry`` ends
    quietly.  The file is closed on every exit, and a failed close is
    reported only when nothing else went wrong first.
    """
    target = getattr(args, "out", None)
    if target:
        try:
            fh = open(target, "w", encoding="utf-8")
        except OSError as e:
            raise _cannot_write(target, e) from None
    else:
        fh, target = _stdout(), "stdout"

    def write(text: str) -> None:
        try:
            fh.write(text)
        except BrokenPipeError:
            raise
        except OSError as e:
            raise _cannot_write(target, e) from None

    if fh is sys.stdout:
        yield write
        return
    try:
        yield write
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        raise
    try:
        fh.close()
    except OSError as e:
        raise _cannot_write(target, e) from None


def _write_out(args, payload: str) -> None:
    with _output(args) as write:
        write(payload)


def _json_line(payload, **options) -> str:
    """One JSON line; ``json`` is imported on first use, as text output never needs it."""
    import json

    return json.dumps(payload, **options) + "\n"


def _polygon_tree(s: PointSet, full_only: bool, lines: bool = False):
    """``polygons.polygon_tree``, imported on first call, so ``paths`` and ``ham``
    runs never compile ``polygons``."""
    from .polygons import polygon_tree

    return polygon_tree(s, full_only, lines)


# Each kind's search tree, as (roots, children, emit) for tree_search, followed
# by the subtree table of a tree whose counts add repeated subtrees whole; a
# ``count`` reads the table, an ``enumerate`` walks every node.  With
# ``lines=True`` emit gives each structure's text line instead of its tuple.
_KINDS = {
    "paths": partial(path_tree, ham=False),
    "ham": partial(path_tree, ham=True),
    "surround": partial(_polygon_tree, full_only=False),
    "poly": partial(_polygon_tree, full_only=True),
}


# A pool worker's collect flag and tree without its roots,
# (collect, children, emit[, table]), set once by _start_worker.
_worker: tuple = ()


def _start_worker(points, kind: str, collect: bool, lines: bool) -> None:
    """Pool initializer: builds the worker's tree once."""
    global _worker
    _worker = (collect, *_KINDS[kind](PointSet(points), lines=lines)[1:])


def _search_subtree(root) -> tuple[EnumerationOutcome, list | None]:
    """Pool worker: searches below one root; returns the structures if collecting.

    The tree comes from the pool initializer, so a worker's counts all
    share its tree's one subtree table.
    """
    collect, children, emit, *table = _worker
    found: list | None = [] if collect else None
    outcome = tree_search([root], children, emit, None if found is None else found.append,
                          None, *table)
    return outcome, found


def _run_enumeration(s: PointSet, kind: str, sink=None, budget: int | None = None,
                     parallel: int = 1, lines: bool = False) -> EnumerationOutcome:
    """Searches the tree of ``kind``, passing each structure to ``sink`` in order.

    With ``lines`` the sink gets each structure's text line, not its tuple.
    With ``parallel`` > 1 every root is one pool task; a single root (the
    hull of a polygon kind) is reported here and its children, which come
    last first, are the tasks in reverse.  Task results are merged in task
    order, so the structures reach ``sink`` in the serial order.  A tree
    without roots is searched serially.
    """
    roots, children, emit, *table = _KINDS[kind](s, lines=lines)
    if parallel == 1 or not roots:
        return tree_search(roots, children, emit, sink, budget, *table)
    tasks = roots
    count = nodes = 0
    if len(roots) == 1:
        tasks = children(roots[0])[::-1]
        head = tree_search(roots, lambda node: (), emit, sink)
        count, nodes = head.count, head.nodes_visited
    if tasks:
        import multiprocessing

        points = tuple(tuple(p) for p in s.points)
        with multiprocessing.Pool(parallel, _start_worker,
                                  (points, kind, sink is not None, lines)) as pool:
            for outcome, found in pool.imap(_search_subtree, tasks):
                count += outcome.count
                nodes += outcome.nodes_visited
                for structure in found or ():
                    sink(structure)
    return EnumerationOutcome(count, nodes)


_BATCH_LINES = 1024


def cmd_enumerate(args) -> int:
    s = load_input(args)
    t0 = time.perf_counter()
    with _output(args) as write:
        if args.format == "json":
            structures: list = []
            outcome = _run_enumeration(s, args.kind, structures.append, args.budget,
                                       args.parallel)
            payload = {
                "kind": args.kind,
                **outcome.to_json_dict(),
                "structures": structures,
            }
            write(_json_line(payload))
        else:
            # Lines go out in batches: stdout may be unbuffered (PYTHONUNBUFFERED),
            # and one write per structure would then be one system call each.
            batch: list[str] = []

            def write_line(line: str) -> None:
                batch.append(line)
                if len(batch) == _BATCH_LINES:
                    write("\n".join(batch) + "\n")
                    batch.clear()

            outcome = _run_enumeration(s, args.kind, write_line, args.budget, args.parallel,
                                       lines=True)
            batch.append(f"# count={outcome.count} nodes_visited={outcome.nodes_visited} "
                         f"truncated={str(outcome.truncated).lower()}")
            write("\n".join(batch) + "\n")
    elapsed = time.perf_counter() - t0
    print(f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return EXIT_TRUNCATED if outcome.truncated else EXIT_OK


def cmd_count(args) -> int:
    s = load_input(args)
    # --out opens before the search, so an unwritable file costs no search.
    with _output(args) as write:
        t0 = time.perf_counter()
        outcome = _run_enumeration(s, args.kind, None, args.budget, args.parallel)
        elapsed = time.perf_counter() - t0
        ratio = outcome.nodes_visited / outcome.count if outcome.count else None
        if args.format == "json":
            payload = {"kind": args.kind, **outcome.to_json_dict(),
                       "nodes_per_structure": ratio}
            write(_json_line(payload))
        else:
            write(
                f"kind={args.kind} count={outcome.count} "
                f"nodes_visited={outcome.nodes_visited} "
                f"nodes_per_structure={'-' if ratio is None else format(ratio, '.3f')} "
                f"truncated={str(outcome.truncated).lower()}\n"
            )
    print(f"elapsed={elapsed:.3f}s", file=sys.stderr)
    return EXIT_TRUNCATED if outcome.truncated else EXIT_OK


def _int_at_least(low: int):
    """Argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


# The commands in the order that top-level help lists them.
_COMMANDS = ("params", "enumerate", "count", "estimate", "verify", "formulas", "svg",
             "fixtures")


def build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser of ``argv``: only its command's subparser if argv starts with a
    command, else all eight, so top-level help and usage errors name every one."""
    parser = _Parser(prog="noncross", description=__doc__.splitlines()[0]
                     if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = set(_COMMANDS).intersection(argv[:1]) or _COMMANDS

    def add_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", metavar="FILE",
                           help="point file (text 'x y' lines or JSON); '-' for stdin")
        group.add_argument("--gen", metavar="SPEC",
                           help="generator spec, e.g. convex:6 or random:7,42")

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    if "params" in wanted:
        p = sub.add_parser("params", help="structural parameters of the input")
        add_input(p)
        add_common(p)

    for name, helptext in (("enumerate", "list structures, one per line"),
                           ("count", "count structures without listing them")):
        if name in wanted:
            p = sub.add_parser(name, help=helptext)
            p.add_argument("kind", choices=tuple(_KINDS))
            add_input(p)
            add_common(p)
            p.add_argument("--budget", type=_int_at_least(0), metavar="N",
                           help="abort after N search-tree nodes (exit code 2)")
            p.add_argument("--parallel", type=_int_at_least(1), default=1, metavar="W",
                           help="distribute root subtrees over W worker processes")

    if "estimate" in wanted:
        p = sub.add_parser("estimate", help="log-scale count estimates")
        add_input(p)
        add_common(p)
        p.add_argument("--empirical", action="store_true",
                       help="also enumerate and report log2(count)/scale ratios")
        p.add_argument("--budget", type=_int_at_least(0), metavar="N",
                       help="node budget for --empirical enumeration")

    if "verify" in wanted:
        p = sub.add_parser("verify", help="cross-check enumerators against oracles")
        add_input(p)
        add_common(p)
        p.add_argument("--oracle-limit", type=_int_at_least(1), default=8, metavar="N")

    if "formulas" in wanted:
        from .reports import _FORMULAS

        p = sub.add_parser("formulas", help="closed-form count tables")
        p.add_argument("--family", choices=sorted(_FORMULAS), required=True)
        p.add_argument("--n", dest="n_range", required=True, metavar="A..B")
        add_common(p)

    if "svg" in wanted:
        p = sub.add_parser("svg", help="render the point set as standalone SVG")
        add_input(p)
        p.add_argument("--overlay", metavar="I,J,K",
                       help="comma-separated structure to draw on top")
        p.add_argument("--overlay-kind", choices=("path", "polygon"), default="path")
        p.add_argument("--out", metavar="FILE")
        p.set_defaults(format="svg")

    if "fixtures" in wanted:
        p = sub.add_parser("fixtures", help="emit oracle counts for the named instances")
        p.add_argument("--oracle-limit", type=_int_at_least(1), default=9, metavar="N")
        p.add_argument("--out", metavar="FILE")
        p.set_defaults(format="json")

    return parser


def _handler(command: str):
    """``cmd_<command>``, from this module or, for the six other commands, ``reports``."""
    if command in ("count", "enumerate"):
        return globals()[f"cmd_{command}"]
    from . import reports

    return getattr(reports, f"cmd_{command}")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        # Checked before any handler runs, so a rejected run never opens --out.
        if getattr(args, "parallel", 1) > 1 and args.budget is not None:
            raise CliError("--budget cannot be combined with --parallel")
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _handler(args.command)(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


def entry() -> None:
    try:
        code = main()
    except BrokenPipeError:  # the reader closed stdout early (``| head``)
        code = EXIT_USAGE
    except SystemExit as e:  # argparse's --help, whose text may not be written yet
        code = e.code
    try:
        if sys.stdout is not None:  # fd 1 was open when the process started
            sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_USAGE
    except OSError as e:
        if code != EXIT_USAGE:  # exit 1 has had its error line already
            print(f"error: {_cannot_write('stdout', e)}", file=sys.stderr)
        code = EXIT_USAGE
    else:
        sys.exit(code)
    # Output is left unwritten: point the descriptor at devnull so the
    # interpreter's final flush cannot fail again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
