import ast
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

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
    assert d == {"n": 5, "offline": 0, "inhull": 0, "m": 0, "max_collinear": 5,
                 "witness_line": [0, 1]}


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


@pytest.mark.parametrize("mode", [[], ["--parallel", "2"], ["--budget", "1030"]],
                         ids=["serial", "parallel", "budget"])
@pytest.mark.parametrize("kind,spec", [("paths", "grid:3x3"), ("ham", "convex:10"),
                                       ("surround", "grid:3x4"), ("poly", "pseudotriangle:10")])
def test_text_enumerate_writes_the_library_stream(capsys, kind, spec, mode):
    # Text enumerate writes the lines the search tree emits, not formatted
    # tuples; they must be the library's stream, formatted, in batches that
    # the budget may stop mid-way.  Library sinks and JSON still get tuples.
    import noncross
    from noncross import FamilySpec

    enumerate_ = {"paths": noncross.enumerate_paths, "ham": noncross.enumerate_ham_paths,
                  "surround": noncross.enumerate_surrounding,
                  "poly": noncross.enumerate_polygonalizations}[kind]
    budget = int(mode[1]) if mode[:1] == ["--budget"] else None
    structures = []
    outcome = enumerate_(FamilySpec.from_string(spec).build(), structures.append, budget)
    assert all(type(structure) is tuple for structure in structures)
    if budget is not None:
        assert outcome.truncated and len(structures) % 1024, outcome
    want = [",".join(map(str, structure)) for structure in structures]
    want.append(f"# count={outcome.count} nodes_visited={outcome.nodes_visited} "
                f"truncated={str(outcome.truncated).lower()}")
    code, out, _ = run_cli(capsys, "enumerate", kind, "--gen", spec, *mode)
    assert (code, out) == (2 if budget is not None else 0, "\n".join(want) + "\n")
    _, out, _ = run_cli(capsys, "enumerate", kind, "--gen", spec, "--format", "json", *mode)
    assert json.loads(out)["structures"] == [list(structure) for structure in structures]


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
    # The pruned ham tree keeps every start vertex as a root, so the
    # one-task-per-start split visits exactly the serial nodes.
    for verb in ("count", "enumerate"):
        for spec in ("grid:3x3", "collinear:5"):
            for fmt in ("text", "json"):
                argv = [verb, "ham", "--gen", spec, "--format", fmt]
                code, serial, _ = run_cli(capsys, *argv)
                code2, par, _ = run_cli(capsys, *argv, "--parallel", "2")
                assert code == code2 == 0, argv
                assert serial == par, argv
                assert "nodes_visited" in serial, argv


# ``--parallel`` in a fresh interpreter whose pool starts its workers with
# ``spawn``, so a worker has only what the pool initializer is given.
_SPAWN_CHILD = """
import multiprocessing, sys
from noncross.cli import main
multiprocessing.set_start_method("spawn")
sys.exit(main(sys.argv[1:]))
"""


def test_parallel_matches_serial_under_spawn(capsys):
    for argv in (["count", "ham", "--gen", "grid:3x3"],
                 ["enumerate", "surround", "--gen", "pseudotriangle:6"]):
        code, serial, _ = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-c", _SPAWN_CHILD, *argv, "--parallel", "2"],
                              capture_output=True, text=True, timeout=120, env=module_env())
        assert (proc.returncode, proc.stdout) == (code, serial), (argv, proc.stderr)


@pytest.mark.parametrize("kind, spec", [("paths", "convex:4"), ("surround", "pseudotriangle:5")])
def test_parallel_starts_no_more_workers_than_tasks(capsys, monkeypatch, kind, spec):
    # Both runs have 4 tasks: one per start vertex of convex:4, and one per
    # child of pseudotriangle:5's hull.  A pool asked for more workers fails
    # before it starts any.
    import multiprocessing

    real_pool = multiprocessing.Pool

    def pool(processes, *args, **kwargs):
        if processes > 4:
            raise AssertionError(f"{processes} workers for 4 tasks")
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    code, serial, _ = run_cli(capsys, "count", kind, "--gen", spec)
    assert run_cli(capsys, "count", kind, "--gen", spec, "--parallel", "64")[:2] == (code, serial)


def test_parallel_rejects_budget(capsys, tmp_path):
    code, _, err = run_cli(capsys, "count", "paths", "--gen", "convex:5",
                           "--parallel", "2", "--budget", "3")
    assert code == 1
    assert "budget" in err
    # The rejection comes before --out is opened, so an existing file keeps its bytes.
    out_file = tmp_path / "kept.txt"
    out_file.write_bytes(b"old bytes")
    for argv in (["count", "ham"], ["enumerate", "ham"],
                 ["enumerate", "ham", "--format", "json"]):
        code, out, err = run_cli(capsys, *argv, "--gen", "convex:5", "--out", str(out_file),
                                 "--budget", "5", "--parallel", "2")
        assert code == 1 and out == "", argv
        assert err == "error: --budget cannot be combined with --parallel\n", argv
        assert out_file.read_bytes() == b"old bytes", argv


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


def test_unwritable_out_is_an_error(capsys, tmp_path, monkeypatch):
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

    # count opens --out before it searches, as enumerate does.
    def no_search(*args, **kwargs):
        raise AssertionError("count searched before opening --out")

    monkeypatch.setattr("noncross.cli._run_enumeration", no_search)
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "count", "ham", "--gen", "convex:4",
                                 "--format", fmt, "--out", missing)
        assert (code, out) == (1, "") and err.startswith(f"error: cannot write {missing}:")


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, stdout, target", [
    (["enumerate", "paths", "--gen", "convex:5", "--out", "/dev/full"], None, "/dev/full"),
    (["count", "ham", "--gen", "convex:5", "--out", "/dev/full"], None, "/dev/full"),
    (["params", "--gen", "convex:5", "--out", "/dev/full"], None, "/dev/full"),
    (["enumerate", "paths", "--gen", "convex:5"], "buffered", "stdout"),
    (["enumerate", "paths", "--gen", "convex:5"], "unbuffered", "stdout"),
    (["enumerate", "paths", "--gen", "convex:9"], "buffered", "stdout"),
    (["enumerate", "ham", "--gen", "convex:5", "--format", "json"], "unbuffered", "stdout"),
    (["count", "ham", "--gen", "convex:5"], "buffered", "stdout"),
    (["count", "ham", "--gen", "convex:5"], "unbuffered", "stdout"),
    (["--help"], "buffered", "stdout"),
    (["--help"], "unbuffered", "stdout"),
    (["count", "--help"], "buffered", "stdout"),
    (["count", "--help"], "unbuffered", "stdout"),
    (["verify", "--gen", "convex:5"], "buffered", "stdout"),
    (["formulas", "--family", "convex-ham", "--n", "3..6"], "buffered", "stdout"),
    (["svg", "--gen", "convex:5"], "buffered", "stdout"),
    (["estimate", "--gen", "convex:5"], "buffered", "stdout"),
    (["fixtures", "--oracle-limit", "4"], "buffered", "stdout"),
    (["count", "ham", "--gen", "convex:5", "--budget", "3"], "buffered", "stdout"),
], ids=["enumerate-out", "count-out", "params-out", "enumerate-buffered",
        "enumerate-unbuffered", "enumerate-overflow", "json-unbuffered", "count-buffered",
        "count-unbuffered", "help-buffered", "help-unbuffered", "count-help-buffered",
        "count-help-unbuffered", "verify-buffered", "formulas-buffered", "svg-buffered",
        "estimate-buffered", "fixtures-buffered", "truncated-count-buffered"])
def test_failed_write_is_an_error_line(argv, stdout, target):
    # A full device fails the write, or the flush of the last buffer when
    # the output ends; each ends in one error line and exit 1, a truncated
    # count too.  argparse swallows a failed write of the help text, so
    # unbuffered help is checked too.
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if stdout == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full" if stdout else os.devnull, "wb") as out:
        proc = subprocess.run([sys.executable, "-m", "noncross", *argv], stdout=out,
                              stderr=subprocess.PIPE, timeout=60, env=env)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: cannot write {target}: No space left on device"], err


class _FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush``, named by ``fails``, raises ``error``."""

    def __init__(self, fails: str, error: OSError):
        super().__init__()
        self.fails, self.error = fails, error

    def write(self, text):
        if self.fails == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.fails == "flush":
            raise self.error
        super().flush()


@pytest.mark.parametrize("argv", [
    ("count", "ham", "--gen", "convex:5"),
    ("enumerate", "paths", "--gen", "convex:5"),
    ("enumerate", "ham", "--gen", "convex:5", "--format", "json"),
    ("params", "--gen", "convex:5"),
    ("--help",),
], ids=" ".join)
def test_broken_pipe_ends_main_quietly(capsys, monkeypatch, argv):
    # A reader that went away is no error of the command's own: exit 1 and
    # nothing on stderr, decided in main.
    monkeypatch.setattr(sys, "stdout", _FailingStdout("write", BrokenPipeError(errno.EPIPE, "")))
    assert main(list(argv)) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ("count", "ham", "--gen", "convex:5"),
    ("params", "--gen", "convex:5"),
    ("--help",),
], ids=" ".join)
def test_failed_flush_of_stdout_is_an_error_line(capsys, monkeypatch, argv):
    # _output flushes stdout when the command's output ends, so a full
    # device is the command's one stderr line: count's elapsed= line, which
    # comes after its output, is not reached.
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(sys, "stdout", _FailingStdout("flush", full))
    assert main(list(argv)) == 1
    assert capsys.readouterr().err == "error: cannot write stdout: No space left on device\n"


def test_deterministic_byte_identical(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "enumerate", "paths", "--gen",
                            "pseudotriangle:5")
        outs.append(out)
    assert outs[0] == outs[1]


PINNED_INPUTS = ["grid:3x3", "one_sided:4,3", "collinear:5", "pseudotriangle:8",
                 "random:8,3,3", "convex:3"]
PINNED_STDOUT = {
    ('count', 'paths', 'text', None): ((0, 0, 0, 0, 0, 0), '801e56cffcc28d5df7927834bfb81a66a1ce5dc6edae2192bce40c9e802f7538'),
    ('count', 'paths', 'text', 37): ((2, 2, 0, 2, 2, 0), '691de04190ad4d5bc86df9c0c1b4320a2775d30c2676e500498786f2ede24eaa'),
    ('count', 'paths', 'json', None): ((0, 0, 0, 0, 0, 0), '2ce5a048d9289ee4dbbb8f08950bf546784ca909c63c1f1b1f4af76fcd1e7e8b'),
    ('count', 'paths', 'json', 37): ((2, 2, 0, 2, 2, 0), '75974571d3cba8626ab41628be420587d15908d189489fcf9b805dc1c964c8db'),
    ('count', 'ham', 'text', None): ((0, 0, 0, 0, 0, 0), 'afbbf078f488811bb81818bc239a4dd4ae9158bca0aaeea6f32207de5cd2ffc8'),
    ('count', 'ham', 'text', 37): ((2, 2, 0, 2, 2, 0), 'd4e515d75678ca8c554abe904b2f5cbc3ebaecebf3867e51c1452294557f6cad'),
    ('count', 'ham', 'json', None): ((0, 0, 0, 0, 0, 0), 'b838a60053b61f1652e454703ae0b4c36a7e72d11f373c5394277fd31fffbe8d'),
    ('count', 'ham', 'json', 37): ((2, 2, 0, 2, 2, 0), '39d0f764b1d20e8686ee433e64771ebd7aa72334cd6658dd8c592ee2c923d8d1'),
    ('count', 'surround', 'text', None): ((0, 0, 0, 0, 0, 0), 'f34e928e721dacdd3e98f07045d51abd8ea941ad0f8c631b3bec565258e7685f'),
    ('count', 'surround', 'text', 37): ((2, 0, 0, 2, 0, 0), '71d28079c06f564dfeccac20351f5127387f56c5920327206f3bd688bd390f18'),
    ('count', 'surround', 'json', None): ((0, 0, 0, 0, 0, 0), '41490dd2920869aae900cac84bd2b281bfd4c0f8de402189bec71cbf6386075d'),
    ('count', 'surround', 'json', 37): ((2, 0, 0, 2, 0, 0), '93a8a19ee3d0976ac7beac38e2631f5bc2b048d8b86313f60831c518d3f94b56'),
    ('count', 'poly', 'text', None): ((0, 0, 0, 0, 0, 0), 'd08af7abf44423ec088e9df4333e6819e066f29d1ea82a27d8aedfd0128df3a3'),
    ('count', 'poly', 'text', 37): ((2, 0, 0, 2, 0, 0), 'da33abefd04595a921e107f781b81f2489d9e0afb815a0d29a8ae6cd7b4167a1'),
    ('count', 'poly', 'json', None): ((0, 0, 0, 0, 0, 0), '295776f1754063baf32841434ea6206348b6411390fdb992459e181c2ee4f6cc'),
    ('count', 'poly', 'json', 37): ((2, 0, 0, 2, 0, 0), '01d041e29f67a4019928847a75b19da60109b6b9394a53d23340dd3274033b70'),
    ('enumerate', 'paths', 'text', None): ((0, 0, 0, 0, 0, 0), 'ed1312fcd71ba79ee1f384bd308c73d49e507c936b02de6115db16890a816e7d'),
    ('enumerate', 'paths', 'text', 37): ((2, 2, 0, 2, 2, 0), '32635e9c4ca2b5d420aca0a72298593c39a2719d0eadb28dd395f062eb4d3eaf'),
    ('enumerate', 'paths', 'json', None): ((0, 0, 0, 0, 0, 0), '8264af029dacdc6c8503953898452c25ec4a97b408db3e6485e312c7da074686'),
    ('enumerate', 'paths', 'json', 37): ((2, 2, 0, 2, 2, 0), '6750f7f02e7f4a48244141fafd45c8f45c6afb8cdcca9c49be939ce5daea1962'),
    ('enumerate', 'ham', 'text', None): ((0, 0, 0, 0, 0, 0), '857980c3628d26d4455e53bb289121cc4ceddd31d0af84115a0249682d73bdec'),
    ('enumerate', 'ham', 'text', 37): ((2, 2, 0, 2, 2, 0), '74d6ccd44f8c27aa7c49ec8f386edbc569ee32f757da2f38090fb2a05879905e'),
    ('enumerate', 'ham', 'json', None): ((0, 0, 0, 0, 0, 0), 'bcf4cc6a6c4e7d11bbe69d4df4afcda660e988f42cde00006cd68b9805ef4b53'),
    ('enumerate', 'ham', 'json', 37): ((2, 2, 0, 2, 2, 0), '2815ab14aa1063d37ce7762c713e0b44100783df0c6c16f66b1833dd3ad0ae50'),
    ('enumerate', 'surround', 'text', None): ((0, 0, 0, 0, 0, 0), 'ffc95329dce5ad421ab387421ffeff6d1052e0def49e420da54f81b75ce51d78'),
    ('enumerate', 'surround', 'text', 37): ((2, 0, 0, 2, 0, 0), '9305584ea458ebb3b38c719ce27961939662b224035b3f8c11c772db94f306eb'),
    ('enumerate', 'surround', 'json', None): ((0, 0, 0, 0, 0, 0), '98a1c60745e2b638b5087ea300a0f217a45376d6ea5c5c8b05ae1adc15b286b5'),
    ('enumerate', 'surround', 'json', 37): ((2, 0, 0, 2, 0, 0), '90da9c266c515cf6a13679a5f106495989743ae92f4e8e107ef46fc35db5daae'),
    ('enumerate', 'poly', 'text', None): ((0, 0, 0, 0, 0, 0), '6bd38bdd48bf3bbee7ce445da7788427df67a34637af5ceb80120101ae35b496'),
    ('enumerate', 'poly', 'text', 37): ((2, 0, 0, 2, 0, 0), '9b4edce958b72cca1cf836ce789a5d10fc08fdec21980e04d9d8effc242d1769'),
    ('enumerate', 'poly', 'json', None): ((0, 0, 0, 0, 0, 0), 'd098025bbaf231b2c9c62b6ce875e69e26a084823bf659cd2a824bb5e7574d44'),
    ('enumerate', 'poly', 'json', 37): ((2, 0, 0, 2, 0, 0), '02de869de96ab2afe7d0b9abac34136a42fab60714a25e24000586da22eb8893'),
}


def _pinned_stdout(capsys, verb, kind, fmt, budget, parallel=1):
    digest = hashlib.sha256()
    codes = []
    for spec in PINNED_INPUTS:
        argv = [verb, kind, "--gen", spec, "--format", fmt, "--parallel", str(parallel)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        code, out, _ = run_cli(capsys, *argv)
        codes.append(code)
        digest.update(out.encode())
    return tuple(codes), digest.hexdigest()


@pytest.mark.parametrize("verb,kind,fmt,budget", list(PINNED_STDOUT))
def test_count_and_enumerate_stdout_is_pinned(capsys, verb, kind, fmt, budget):
    """The stdout bytes of `count` and `enumerate`, pinned.

    Each row of PINNED_STDOUT covers one (verb, kind, format, budget) over
    PINNED_INPUTS in that order: the exit codes, and the SHA-256 of the
    stdouts one after the other.  The rows hold what the pinned trees of
    tests/test_tree_search.py do not see: summary lines, JSON payloads,
    ``degenerate`` flags and the formatting of ``nodes_per_structure``.  As
    there, a row is recorded again only on purpose, by a change meant to
    alter what the command line prints.  An unbudgeted row must also come
    out of ``--parallel 2`` unchanged, which pins the pool's merge, its
    degenerate outcome (collinear:5) and a hull without children (convex:3).
    """
    pinned = PINNED_STDOUT[verb, kind, fmt, budget]
    assert _pinned_stdout(capsys, verb, kind, fmt, budget) == pinned
    if budget is None:
        assert _pinned_stdout(capsys, verb, kind, fmt, budget, parallel=2) == pinned


# (kind, instance, count, nodes_visited): trees far larger than the keyed
# count's table.  The counts are the closed forms; the node totals are those
# of the plain walk, recorded before counts added stored subtrees whole.
LARGE_COUNTS = [("paths", "convex:14", 5_580_141, 11_160_268),
                ("ham", "convex:17", 278_528, 4_619_998)]


@pytest.mark.slow
@pytest.mark.parametrize("kind,instance,count,nodes", LARGE_COUNTS)
def test_count_of_a_large_tree_is_the_closed_form(capsys, kind, instance, count, nodes):
    from noncross import convex_ham_count, convex_path_count

    n = int(instance.partition(":")[2])
    assert count == (convex_path_count if kind == "paths" else convex_ham_count)(n)
    code, out, _ = run_cli(capsys, "count", kind, "--gen", instance)
    assert code == 0
    assert out.startswith(f"kind={kind} count={count} nodes_visited={nodes} "), out
    assert out.endswith(" truncated=false\n"), out


def test_estimate_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--gen", "collinear:6")
    assert code == 0
    assert "ham_scale=0" in out and "poly_scale=0" in out
    code, out, _ = run_cli(capsys, "estimate", "--gen", "grid:3x3",
                           "--format", "json", "--empirical")
    d = json.loads(out)
    assert d["counts"]["ham"] == 464
    assert d["proven_ham_lower_log2"] > 6.5


def test_estimate_empirical_reports_every_kind_and_a_truncation(capsys):
    # Text gives one empirical_KIND line per kind, "-" without a ratio, and
    # a budget that cuts any kind's count exits 2 in both formats.
    kinds = ["ham", "paths", "poly", "surround"]
    code, out, _ = run_cli(capsys, "estimate", "--gen", "grid:3x3", "--empirical",
                           "--budget", "37")
    assert code == 2
    assert out.splitlines()[1:] == [f"empirical_{k}=-" for k in kinds]
    code, out, _ = run_cli(capsys, "estimate", "--gen", "grid:3x3", "--empirical",
                           "--budget", "37", "--format", "json")
    assert code == 2
    d = json.loads(out)
    assert list(d["counts"].values()) == [None] * 4 and d["log2_count_over_scale"] == {}
    # collinear:5 counts every kind in 37 nodes; only paths has a nonzero
    # count and scale, so the other three read "-" and nothing is truncated.
    code, out, _ = run_cli(capsys, "estimate", "--gen", "collinear:5", "--empirical",
                           "--budget", "37")
    assert code == 0
    lines = out.splitlines()[1:]
    assert [line.partition("=")[0] for line in lines] == [f"empirical_{k}" for k in kinds]
    assert [line for line in lines if line.endswith("=-")] == [
        "empirical_ham=-", "empirical_poly=-", "empirical_surround=-"]
    code, out, _ = run_cli(capsys, "estimate", "--gen", "grid:3x3", "--empirical")
    assert code == 0
    assert not [line for line in out.splitlines() if line.endswith("=-")]


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
    for n_range in ("x..3", "..5", "3.."):
        code, out, err = run_cli(capsys, "formulas", "--family", "convex-ham",
                                 "--n", n_range)
        assert code == 1 and out == "", n_range
        assert err.startswith("error: cannot parse range"), n_range


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
    # A file that starts with a UTF-8 byte-order mark reads the same.
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf0 0\n2 0\n2 2\n0 2\n")
    assert run_cli(capsys, "count", "ham", "--input", str(bom))[:2] == (code, out)
    # A file that is not UTF-8 is an input error that names the file.
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"0 0\n1 \xff\n")
    code, out, err = run_cli(capsys, "count", "paths", "--input", str(latin))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {latin}: not UTF-8 text") and err.count("\n") == 1, err


def test_input_file_json(capsys, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": [[0, 0], [2, 0], [2, 2], [0, 2]]}))
    code, out, _ = run_cli(capsys, "count", "poly", "--input", str(f))
    assert code == 0 and "count=1" in out
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
    assert run_cli(capsys, "count", "poly", "--input", str(bom))[:2] == (code, out)


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
    # The bad second token also occurs inside the first one.
    f4 = tmp_path / "inner.txt"
    f4.write_text("-12 -\n")
    code, _, err = run_cli(capsys, "params", "--input", str(f4))
    assert code == 1 and "line 1, column 5: '-' is not an integer" in err


@pytest.mark.parametrize("entry", ["[3, true]", "null", '"a"', '{"x": [1, 2]}'])
def test_bad_json_entry_is_quoted_as_json(capsys, tmp_path, entry):
    f = tmp_path / "bad.json"
    f.write_text('{"points": [[1, 2], %s]}' % entry)
    code, out, err = run_cli(capsys, "params", "--input", str(f))
    assert (code, out) == (1, "")
    assert err == f"error: points[1] must be a pair of integers, got {entry}\n"


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


@pytest.mark.parametrize("mode", [[], ["--parallel", "2"]], ids=["serial", "parallel"])
def test_internal_invariant_exit_code(capsys, monkeypatch, mode):
    import noncross.polygons as polygons_mod

    real = polygons_mod._polygon_rules  # the children function and parent rule of the tree

    def revisiting(kernel, *options):
        children, parent = real(kernel, *options)

        def twice(node):
            kids = children(node)
            return kids + kids[:1] if kids else kids  # force a tree revisit

        return twice, parent

    monkeypatch.setattr(polygons_mod, "_polygon_rules", revisiting)
    code, _, err = run_cli(capsys, "count", "surround", "--gen",
                           "pseudotriangle:4", *mode)
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
    # The default limit reproduces the committed fixture file byte for byte.
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    assert out == (Path(__file__).parent / "fixtures" / "derived_counts.json").read_text()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "noncross", "count", "ham", "--gen", "convex:4"],
        capture_output=True, text=True, timeout=60, env=module_env(),
    )
    assert proc.returncode == 0
    assert "count=8" in proc.stdout


# Run in a fresh interpreter: ``python -m noncross`` for each argument list,
# reporting the noncross modules loaded after each run and which of
# ``dataclasses`` and ``json`` the runs loaded.  The child itself imports
# neither, so that it can tell.
_FOOTPRINT_CHILD = """
import ast, contextlib, io, runpy, sys
before = set(sys.modules)
loaded = []
for argv in ast.literal_eval(sys.argv[1]):
    sys.argv = ["noncross", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("noncross", run_name="__main__", alter_sys=True)
        except SystemExit as e:
            assert e.code == 0, (argv, e.code)
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "noncross"))
new = sorted({"dataclasses", "json"} & (set(sys.modules) - before))
print(repr({"loaded": loaded, "new_stdlib": new}))
"""


def _footprint(runs):
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD, repr(runs)],
                          capture_output=True, text=True, timeout=120, env=module_env())
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


# ``python -m noncross`` runs the package's __main__.py as ``__main__``, so
# no ``noncross.__main__`` entry appears.
PATH_MODULES = ["noncross", "noncross.cli", "noncross.geom", "noncross.paths"]
POLYGON_MODULES = sorted(PATH_MODULES + ["noncross.polygons"])


def test_count_and_enumerate_load_only_the_search_modules(tmp_path):
    """``paths`` and ``ham`` load only the path search, the polygon kinds add
    ``polygons``, and none loads ``reports``, the other commands' handlers.
    The two groups run in separate fresh children, so that a polygon run
    cannot hide what a path run loads."""
    points = tmp_path / "points.txt"
    points.write_text("0 0\n4 0\n4 4\n0 4\n2 2\n1 3\n")
    for kinds, modules in ((("paths", "ham"), PATH_MODULES),
                           (("surround", "poly"), POLYGON_MODULES)):
        for fmt, new_stdlib in (("text", []), ("json", ["json"])):
            runs = [[verb, kind, "--input", str(points), "--format", fmt]
                    for verb in ("count", "enumerate") for kind in kinds]
            report = _footprint(runs)
            for argv, loaded in zip(runs, report["loaded"]):
                assert loaded == modules, argv
            # Text output on a text point file never needs ``json``.
            assert report["new_stdlib"] == new_stdlib, (kinds, fmt)


def test_gen_input_adds_only_the_generators():
    # The generators, and the collinearity bound they use, load for --gen.
    report = _footprint([["count", "ham", "--gen", "convex:5"]])
    assert report["loaded"] == [sorted(PATH_MODULES + ["noncross.families",
                                                       "noncross.params"])]


@pytest.mark.parametrize("argv", [["params", "--gen", "convex:4"],
                                  ["estimate", "--gen", "convex:4"],
                                  ["verify", "--gen", "convex:4"],
                                  ["formulas", "--family", "convex-ham", "--n", "3..5"],
                                  ["svg", "--gen", "convex:4"],
                                  ["fixtures", "--oracle-limit", "4"]], ids=lambda a: a[0])
def test_other_commands_run_from_the_reports_module(argv):
    # The child asserts exit code 0, so the command ran.
    (loaded,) = _footprint([argv])["loaded"]
    assert "noncross.reports" in loaded, argv


# ``--help`` and usage errors of ``python -m noncross``, as (exit code, SHA-256
# of stdout, SHA-256 of stderr), with help wrapped at COLUMNS=80.  A command's
# help and errors come from a parser holding its subparser alone, the rest
# from the parser of all eight commands; every row is what the parser of all
# eight prints.  The digests are of Python 3.11's argparse, whose wording and
# wrapping other versions may change.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINNED_PARSER = {
    ('--help',): (0, '305a199a54a5b2f27dac33db6394077481d94a284f7cb94976023845b15b9bcf', EMPTY),
    ('params', '--help'): (0, 'e9d440a15478877c94e30f05b20b8c0391de6033a4cfe6857c0e850fca6057f7', EMPTY),
    ('enumerate', '--help'): (0, '879aa93799adde262c28e061ebf3a9e7bfbfadf0682b983a07df351f15f82fbb', EMPTY),
    ('count', '--help'): (0, '3eeacddf30d78ca679bb50f6de61dbbc2fba859e9b8609c6e9355a8278af8e8a', EMPTY),
    ('estimate', '--help'): (0, 'e7f4a1f2ad37e057c76edeb56e9bc920298410b481d1f1c7c3ead05297d3235b', EMPTY),
    ('verify', '--help'): (0, '7da030f2e9508cd266e02feaaaa163589fc1b9db7d08baef9eea0ee4f9c797d3', EMPTY),
    ('formulas', '--help'): (0, 'eec652a230dfe55be90a7da7eccca566d8c801b77d3d5d7163ab0ffc03f26175', EMPTY),
    ('svg', '--help'): (0, '588cbad73bbfe80726e6f724840d5597d857e5a14a2f0fd8c08f70033ebe5aba', EMPTY),
    ('fixtures', '--help'): (0, 'adfb1cd9be5692d1bb2ed8c1e62510b9ea068bd6eeef2d603910968239965bc4', EMPTY),
    (): (1, EMPTY, '27afc869ee26b117d40a2b88b3bf0fbddf786f90502fd20101e6fabd589f3b22'),
    ('bogus',): (1, EMPTY, 'a5adc935a981db80bbc89a433fa308db250bb42f45a45faa84039618bd1f9847'),
    ('--gen', 'convex:4', 'count', 'ham'): (1, EMPTY, '054c5683c2368127d071e217b73c52c53679dc48de1b2f887f4666cb6287da78'),
    ('count',): (1, EMPTY, '2a07c79fac080478dceee2f340e28068f3bafafef84ee285acc3822e29a0e540'),
    ('count', 'foo', '--gen', 'convex:4'): (1, EMPTY, 'ee666344bb877bbf46fe2d898dec5aacb674bb155d58ae904340134323567d24'),
    ('count', 'ham'): (1, EMPTY, '0b619f4bee9c4761d647b5d48ce9a222b6b18f1f42775131d6306e8481cf05c6'),
    ('count', 'ham', '--input', 'points.txt', '--gen', 'convex:4'): (1, EMPTY, '324c6dbdfd3ef972c295650d35716c186074762171246734dc8b07b0042dc675'),
    ('count', 'ham', '--gen', 'convex:4', '--budget', '-1'): (1, EMPTY, '9a4c38bee40922fe6a22f312309595abcf982e6b25ffe2a138d7b31f063171e2'),
    ('count', 'ham', '--gen', 'convex:4', '--parallel', '0'): (1, EMPTY, 'cb39348cef8d3383dd3b9843f6babffcbe24ecbc10c2babc01b133e7f2501e10'),
    ('formulas', '--family', 'x', '--n', '3'): (1, EMPTY, '691e8d31fd7dfbe3b11bf4815415fb41f4e55c690aa1cf16da9ca011d68e331b'),
}


@pytest.mark.parametrize("argv", list(PINNED_PARSER), ids=lambda a: " ".join(a) or "-")
def test_parser_output_is_pinned(argv):
    env = module_env()
    env["COLUMNS"] = "80"
    proc = subprocess.run([sys.executable, "-m", "noncross", *argv], capture_output=True,
                          timeout=60, env=env)
    digests = (hashlib.sha256(proc.stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest())
    assert (proc.returncode, *digests) == PINNED_PARSER[argv], proc.stderr.decode()


def _fake_stdin(data: bytes):
    # Text over a byte buffer, as the real stdin is; --input - reads the bytes.
    import io

    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _fake_stdin(b"0 0\n1 0\n2 0\n"))
    code, out, _ = run_cli(capsys, "count", "paths", "--input", "-")
    assert code == 0 and "count=6" in out
    # A byte-order mark is stripped, as from a file.
    monkeypatch.setattr(sys, "stdin", _fake_stdin(b"\xef\xbb\xbf0 0\n1 0\n2 0\n"))
    assert run_cli(capsys, "count", "paths", "--input", "-")[:2] == (code, out)


def test_stdin_that_is_not_utf8_reads_as_a_file_does(capsys, monkeypatch, tmp_path):
    # stdin is decoded strictly from its bytes, so a stray byte is named as
    # an encoding error, as in a file, not read as a token with an escape
    # character in it.
    data = b"0 0\n1 \xff\n"
    monkeypatch.setattr(sys, "stdin", _fake_stdin(data))
    code, out, err = run_cli(capsys, "count", "paths", "--input", "-")
    assert (code, out, err) == (1, "", "error: -: not UTF-8 text, byte 6: invalid start byte\n")
    latin = tmp_path / "latin.txt"
    latin.write_bytes(data)
    _, _, file_err = run_cli(capsys, "count", "paths", "--input", str(latin))
    assert file_err == err.replace("-:", f"{latin}:", 1)


@pytest.mark.parametrize("verb", ["count", "enumerate"])
def test_closed_stdin_is_an_error(capsys, monkeypatch, verb):
    # A process started with fd 0 closed has no sys.stdin at all.
    monkeypatch.setattr(sys, "stdin", None)
    assert run_cli(capsys, verb, "paths", "--input", "-") == (
        1, "", "error: -: no standard input to read\n")


def test_closed_stdin_in_a_child_process():
    # As `noncross count paths --input - <&-`: fd 0 is opened, then closed
    # in the child before it starts.
    proc = subprocess.run([sys.executable, "-m", "noncross", "count", "paths", "--input", "-"],
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
                          env=module_env(), preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"error: -: no standard input to read\n")


@pytest.mark.parametrize("verb", ["count", "enumerate"])
def test_closed_stdout_is_an_error_before_the_search(capsys, monkeypatch, verb):
    # A process started with fd 1 closed has no sys.stdout at all, and its
    # search would find nowhere to write.
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran with no stdout to write to")

    monkeypatch.setattr("noncross.cli._run_enumeration", refuse)
    monkeypatch.setattr(sys, "stdout", None)
    assert run_cli(capsys, verb, "ham", "--gen", "convex:5") == (
        1, "", "error: cannot write stdout: no standard output\n")


@pytest.mark.parametrize("argv", [
    ("count", "paths", "--gen", "convex:4"),
    ("enumerate", "ham", "--gen", "convex:5"),
    ("enumerate", "ham", "--gen", "convex:5", "--format", "json"),
    ("params", "--gen", "convex:4"),
    ("--help",),
    ("count", "--help"),
], ids=" ".join)
def test_closed_stdout_in_a_child_process(argv):
    # As `noncross ... >&-`: fd 1 is opened, then closed in the child
    # before it starts.
    proc = subprocess.run([sys.executable, "-m", "noncross", *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60, env=module_env(),
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (
        1, b"error: cannot write stdout: no standard output\n")
