"""Closed-loop client that runs one ``python3`` command at a time.

``run.py`` starts this process once and sends it one JSON argument list per
line on stdin: the arguments of the interpreter, ``-m noncross ...`` or
``perfbench/reference.py``.  For each it starts a fresh process, drains its
stdout through a pipe, hashing it in fixed-size chunks, and answers with one
JSON line on stdout.

It is a process of its own, with as few imports as possible, because Linux
carries the high-water RSS of the process that starts a child into the
child's ``ru_maxrss``.  Started from ``run.py``, every command would report
at least the peak of ``run.py``; started from here, only this small
process's.
"""

import json
import os
import sys
import time

try:
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed the built-in module
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

CHUNK = 1 << 16


def run(argv: list) -> dict:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                       (os.POSIX_SPAWN_DUP2, out_w, 1),
                                       (os.POSIX_SPAWN_DUP2, err_w, 2)])
    os.close(out_w)
    os.close(err_w)
    sha = sha256()
    nlines = 0
    tail = b""
    while chunk := os.read(out_r, CHUNK):
        sha.update(chunk)
        nlines += chunk.count(b"\n")
        tail = (tail + chunk)[-512:]
    os.close(out_r)
    # stderr holds one timing line or an error message, well below a pipe's capacity.
    err = b""
    while chunk := os.read(err_r, CHUNK):
        err += chunk
    os.close(err_r)
    # wait4 reports this child's peak RSS, including its reaped pool workers.
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024, "sha256": sha.hexdigest(),
            "nlines": nlines, "tail": tail.decode("utf-8", "replace"),
            "stderr": err[-4096:].decode("utf-8", "replace")}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
