"""Smoke test of ``scripts/inproc_ab.py``, the in-process A/B timer."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "inproc_ab.py"


def _run(old, new, *options):
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new),
                           "--workload", "ham-count", "--rounds", "1", *options],
                          capture_output=True, text=True, timeout=300)


def test_checkout_against_itself_matches():
    proc = _run(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload ham-count, 1 rounds, 4 commands per child"
    assert lines[1].startswith("old  wall_s min ") and lines[2].startswith("new  wall_s min ")
    assert re.fullmatch(r"paired new/old  median \d+\.\d{3}  new faster in [01] of 1 rounds",
                        lines[3]), lines[3]
    # The search alone: the full pass less the --budget 0 pass.
    assert re.fullmatch(r"paired new/old search  median -?\d+\.\d{3}  "
                        r"new faster in [01] of 1 rounds", lines[4]), lines[4]
    assert lines[5:] == ["stdout sha256: match"]


def test_a_non_default_seed_is_named_and_matches():
    # The point files are a congruent copy of the sets, so the outputs
    # still match; the header names the seed.
    proc = _run(ROOT / "src", ROOT / "src", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload ham-count, seed 7, 1 rounds, 4 commands per child"
    assert lines[-1] == "stdout sha256: match"


def test_a_changed_output_is_a_mismatch(tmp_path):
    # A copy whose count line differs by one character.
    shutil.copytree(ROOT / "src" / "noncross", tmp_path / "noncross")
    cli = tmp_path / "noncross" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert 'f"kind={args.kind} count=' in text
    cli.write_text(text.replace('f"kind={args.kind} count=', 'f"kind={args.kind}  count='),
                   encoding="utf-8")
    proc = _run(ROOT / "src", tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "stdout sha256: MISMATCH" in proc.stdout
