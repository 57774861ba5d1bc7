import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

from noncross.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def module_env():
    """Environment for a ``python -m noncross`` child that finds this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "params", "--gen", "grid:3x3")
    assert code == 0
    assert "n=9 offline=6 inhull=1 m=1" in out
    code, out, _ = run_cli(capsys, "params", "--gen", "collinear:5", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["offline"] == 0 and d["inhull"] == 0
    from noncross.params import ParamReport

    assert ParamReport.from_json_dict(d).to_json_dict() == d


def test_params_convex7(capsys):
    code, out, _ = run_cli(capsys, "params", "--gen", "convex:7", "--format", "json")
    d = json.loads(out)
    assert d["offline"] == 5 and d["inhull"] == 0


def test_enumerate_ham_lines(capsys):
    code, out, err = run_cli(capsys, "enumerate", "ham", "--gen", "convex:4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # 8 structures + summary
    assert lines[-1].startswith("# count=8 ")
    starts = [line.split(",") for line in lines[:-1]]
    assert all(int(a[0]) < int(a[-1]) for a in starts)
    assert "elapsed=" in err


def test_enumerate_poly_collinear_empty_success(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "poly", "--gen", "collinear:4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["# count=0 nodes_visited=0 truncated=false"]


def test_enumerate_surround_pseudotriangle6(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "surround", "--gen",
                           "pseudotriangle:6")
    assert code == 0
    assert len(out.strip().splitlines()) == 41  # 40 polygons + summary


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "ham", "--gen", "convex:4",
                           "--format", "json")
    d = json.loads(out)
    assert d["count"] == 8 and len(d["structures"]) == 8
    assert json.loads(json.dumps(d)) == d


def test_budget_exit_code(capsys):
    code, out, _ = run_cli(capsys, "count", "paths", "--gen", "convex:6",
                           "--budget", "7")
    assert code == 2
    assert "truncated=true" in out


def test_count_reports_ratio(capsys):
    code, out, _ = run_cli(capsys, "count", "ham", "--gen", "convex:5")
    assert code == 0
    assert "count=20" in out and "nodes_per_structure=" in out


def test_parallel_matches_serial(capsys):
    for verb in ("count", "enumerate"):
        for kind in ("paths", "ham", "surround", "poly"):
            for fmt in ("text", "json"):
                argv = [verb, kind, "--gen", "pseudotriangle:6", "--format", fmt]
                code, serial, _ = run_cli(capsys, *argv)
                code2, par, _ = run_cli(capsys, *argv, "--parallel", "2")
                assert code == code2 == 0, argv
                assert serial == par, argv


def test_parallel_rejects_budget(capsys):
    code, _, err = run_cli(capsys, "count", "paths", "--gen", "convex:5",
                           "--parallel", "2", "--budget", "3")
    assert code == 1
    assert "budget" in err


def test_negative_budget_and_parallel_rejected(capsys):
    for argv in (["count", "ham", "--gen", "convex:5", "--budget", "-1"],
                 ["count", "surround", "--gen", "pseudotriangle:5", "--budget", "-1"],
                 ["enumerate", "poly", "--gen", "pseudotriangle:5", "--budget", "-4"],
                 ["estimate", "--gen", "convex:5", "--empirical", "--budget", "-2"],
                 ["count", "ham", "--gen", "convex:5", "--parallel", "0"],
                 ["enumerate", "paths", "--gen", "convex:5", "--parallel", "-3"],
                 ["verify", "--gen", "convex:4", "--oracle-limit", "-1"],
                 ["fixtures", "--oracle-limit", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error:") and "must be at least" in err, argv


def test_unwritable_out_is_an_error(capsys, tmp_path):
    missing = str(tmp_path / "no_such_dir" / "out.txt")
    for argv in (["count", "ham", "--gen", "convex:4"],
                 ["enumerate", "ham", "--gen", "convex:4"],
                 ["enumerate", "ham", "--gen", "convex:4", "--format", "json"],
                 ["params", "--gen", "convex:4"],
                 ["fixtures", "--oracle-limit", "4"]):
        code, out, err = run_cli(capsys, *argv, "--out", missing)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: cannot write {missing}:"), argv
    code, _, err = run_cli(capsys, "count", "ham", "--gen", "convex:4", "--out", str(tmp_path))
    assert code == 1 and err.startswith("error: cannot write"), err


def test_truncated_stream_is_well_formed(capsys):
    for kind, gen, budget in (("paths", "convex:6", "50"),
                              ("surround", "pseudotriangle:6", "7")):
        code, out, _ = run_cli(capsys, "enumerate", kind, "--gen", gen,
                               "--budget", budget)
        assert code == 2
        *rows, summary = out.splitlines()
        assert summary.startswith("# count=") and summary.endswith(" truncated=true")
        count = int(summary.split()[1].removeprefix("count="))
        assert 0 < count == len(rows)
        assert not any(row.startswith("#") for row in rows)


def test_closed_stdout_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "noncross", "enumerate", "paths", "--gen", "convex:9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    assert proc.stdout.readline() == b"0\n"
    proc.stdout.close()  # like `| head -1`: the reader goes away mid-stream
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_deterministic_byte_identical(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "enumerate", "paths", "--gen",
                            "pseudotriangle:5")
        outs.append(out)
    assert outs[0] == outs[1]


def test_estimate_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--gen", "collinear:6")
    assert code == 0
    assert "ham_scale=0" in out and "poly_scale=0" in out
    code, out, _ = run_cli(capsys, "estimate", "--gen", "grid:3x3",
                           "--format", "json", "--empirical")
    d = json.loads(out)
    assert d["counts"]["ham"] == 464
    assert d["proven_ham_lower_log2"] > 6.5


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--gen", "convex:5")
    assert code == 0
    assert "VERIFY OK" in out


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import noncross.paths as paths_mod

    real = paths_mod.enumerate_paths

    def broken(s, sink=None, budget=None, **kw):
        def filtered(seq):
            if len(seq) != 2 and sink is not None:
                sink(seq)

        return real(s, filtered, budget, **kw)

    monkeypatch.setattr(paths_mod, "enumerate_paths", broken)
    code, out, _ = run_cli(capsys, "verify", "--gen", "convex:4")
    assert code == 3
    assert "MISMATCH" in out and "witness=" in out


def test_verify_limit_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--gen", "convex:12")
    assert code == 1
    assert "limit" in err


def test_formulas_sequence(capsys):
    code, out, _ = run_cli(capsys, "formulas", "--family", "pseudo-surround",
                           "--n", "3..12")
    assert code == 0
    values = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert values == [1, 4, 13, 40, 120, 354, 1031, 2972, 8495, 24110]
    code, out, _ = run_cli(capsys, "formulas", "--family", "convex-ham",
                           "--n", "4..4", "--format", "json")
    assert json.loads(out)["values"] == {"4": 8}


def test_formulas_bad_range(capsys):
    code, _, err = run_cli(capsys, "formulas", "--family", "convex-ham",
                           "--n", "x..3")
    assert code == 1


def test_svg_output(capsys, tmp_path):
    out_file = tmp_path / "plot.svg"
    code, _, _ = run_cli(capsys, "svg", "--gen", "convex:5",
                         "--overlay", "0,1,2,3,4", "--out", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    tags = [child.tag.split("}")[-1] for child in root]
    assert tags.count("circle") == 5
    assert "polyline" in tags


def test_svg_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "svg", "--gen", "grid:3x3",
                               "--overlay", "0,1,2,5,8,7,6,3", "--overlay-kind",
                               "polygon")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_svg_polygon_overlay(capsys):
    code, out, _ = run_cli(capsys, "svg", "--gen", "pseudotriangle:4",
                           "--overlay", "0,2,3", "--overlay-kind", "polygon")
    assert code == 0
    assert "<polygon" in out


def test_input_file_text(capsys, tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("# square\n0 0\n2 0\n2 2\n0 2\n")
    code, out, _ = run_cli(capsys, "count", "ham", "--input", str(f))
    assert code == 0 and "count=8" in out


def test_input_file_json(capsys, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": [[0, 0], [2, 0], [2, 2], [0, 2]]}))
    code, out, _ = run_cli(capsys, "count", "poly", "--input", str(f))
    assert code == 0 and "count=1" in out


def test_parse_error_diagnostics(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0 0\n1 x\n")
    code, _, err = run_cli(capsys, "params", "--input", str(f))
    assert code == 1
    assert "line 2" in err and "column" in err
    f2 = tmp_path / "bad.json"
    f2.write_text('{"points": [[0, 0], [1.5, 2]]}')
    code, _, err = run_cli(capsys, "params", "--input", str(f2))
    assert code == 1 and "points[1]" in err
    f3 = tmp_path / "broken.json"
    f3.write_text('{"points": [[0, 0]')
    code, _, err = run_cli(capsys, "params", "--input", str(f3))
    assert code == 1 and "line" in err


def test_duplicate_points_rejected_at_ingestion(capsys, tmp_path):
    f = tmp_path / "dup.txt"
    f.write_text("0 0\n1 1\n0 0\n")
    code, _, err = run_cli(capsys, "params", "--input", str(f))
    assert code == 1 and "duplicate" in err


def test_usage_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "params")
    assert code == 1
    code, _, err = run_cli(capsys, "enumerate", "nonsense", "--gen", "convex:4")
    assert code == 1


def test_gen_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "params", "--gen", "convex:-3")
    assert code == 1


def test_internal_invariant_exit_code(capsys, monkeypatch):
    import noncross.polygons as polygons_mod

    real = polygons_mod._children  # the children function of the search tree

    def revisiting(kernel, poly):
        kids = real(kernel, poly)
        return kids + kids[:1] if kids else kids  # force a tree revisit

    monkeypatch.setattr(polygons_mod, "_children", revisiting)
    code, _, err = run_cli(capsys, "count", "surround", "--gen",
                           "pseudotriangle:4")
    assert code == 4
    assert "invariant" in err


def test_parallel_poly_convex(capsys):
    code, out, _ = run_cli(capsys, "count", "poly", "--gen", "convex:5",
                           "--parallel", "2")
    assert code == 0 and "count=1" in out
    code, out, _ = run_cli(capsys, "count", "surround", "--gen", "collinear:4",
                           "--parallel", "2")
    assert code == 0 and "count=0" in out


def test_fixtures_command(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "--oracle-limit", "5")
    assert code == 0
    d = json.loads(out)
    assert d["instances"]["square_center"]["counts"]["ham"] == 24
    assert "grid3x3" not in d["instances"]  # above the requested limit


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "noncross", "count", "ham", "--gen", "convex:4"],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert proc.returncode == 0
    assert "count=8" in proc.stdout


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0\n1 0\n2 0\n"))
    code, out, _ = run_cli(capsys, "count", "paths", "--input", "-")
    assert code == 0 and "count=6" in out
