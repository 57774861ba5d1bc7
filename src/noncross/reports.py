"""Handlers ``cmd_<command>`` of the commands other than ``count`` and
``enumerate``; ``cli.main`` imports this module only to run one of them.
"""

from __future__ import annotations

from typing import Sequence

from .cli import (EXIT_MISMATCH, EXIT_OK, EXIT_TRUNCATED, _KINDS, CliError, _json_line,
                  _run_enumeration, _write_out, load_input)
from .geom import PointSet


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


def cmd_estimate(args) -> int:
    from .counting import estimate

    s = load_input(args)
    if s.n == 0:
        raise CliError("estimate needs a nonempty point set")
    report = estimate(s)
    payload = report.to_json_dict()
    truncated = False
    if args.empirical:
        counts, ratios = _empirical(s, report, args.budget)
        payload["counts"] = counts.to_json_dict()
        truncated = None in payload["counts"].values()
        payload["log2_count_over_scale"] = ratios
    if args.format == "json":
        _write_out(args, _json_line(payload))
    else:
        keys = ["n", "offline", "inhull", "m", "path_scale", "ham_scale",
                "poly_scale", "proven_ham_lower_log2"]
        line = " ".join(f"{k}={_fmt_number(payload[k])}" for k in keys)
        extra = ""
        if args.empirical:
            # "-" for no ratio: a truncated count, or a count or scale of 0.
            extra = "".join(f"\nempirical_{k}={_fmt_number(ratios.get(k, '-'))}"
                            for k in sorted(_KINDS))
        _write_out(args, line + extra + "\n")
    return EXIT_TRUNCATED if truncated else EXIT_OK


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
