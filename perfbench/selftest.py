#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

Runs every workload briefly with one reference output corrupted
(``run.py --corrupt-reference``): a correct program must then be
reported as failing, with a non-zero ``failed_ratio``.  Exits 1 if any
workload misses the corruption.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    missed = 0
    for workload in ("serve-large", "cli-small", "edit-stream"):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "2", "--trace", "0",
             "--corrupt-reference"],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        environment = json.loads(out[-2])["environment"]
        result = json.loads(out[-1])
        caught = not result["correct"] and environment["failed_ratio"] > 0
        missed += not caught
        print(f"{workload}: failed {result['failed']} of {result['attempted']}"
              f" (failed_ratio {environment['failed_ratio']:.3f})"
              f" — {'caught' if caught else 'MISSED'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
