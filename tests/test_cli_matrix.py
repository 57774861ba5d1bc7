"""The CLI matrix, ``scripts/cli_matrix.py``, against its recorded output.

``tests/fixtures/cli_matrix.txt`` holds the script's 800 rows: exit code,
SHA-256 of stdout (and of stderr for an exit-1 row) and argv of every
command it runs.  A change that alters the output on purpose re-records
the fixture with

    PYTHONPATH=src python3 scripts/cli_matrix.py > tests/fixtures/cli_matrix.txt

and the fixture's diff names each moved row.  The 19 rows before the last
14 are the parser's own ``--help`` and usage output, wrapped at
``COLUMNS=80`` by the argparse of Python 3.11, as
``test_parser_output_is_pinned`` assumes too; another Python may wrap or
word them differently.  The last 14 run with a stdout whose write or
flush fails.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "cli_matrix.txt"


def _load_script():
    spec = importlib.util.spec_from_file_location("cli_matrix", ROOT / "scripts" / "cli_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_matrix_matches_the_recorded_rows(monkeypatch):
    # The script sets COLUMNS and swaps sys.stdin; both are restored after.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "stdin", sys.stdin)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        _load_script().main()
    got, want = out.getvalue().splitlines(), FIXTURE.read_text().splitlines()
    differ = [f"row {i + 1}: recorded {w!r}, got {g!r}"
              for i, (w, g) in enumerate(zip(want, got)) if w != g]
    if len(got) != len(want):
        differ.append(f"{len(got)} rows, {len(want)} recorded")
    assert not differ, "\n".join(differ[:5])
