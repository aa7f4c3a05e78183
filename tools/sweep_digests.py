"""Rerun the recorded ``verify --all-pairs`` sweeps and check their bytes.

    python3 tools/sweep_digests.py [NAME ...]

Each sweep in ``SWEEPS`` (or each one named) runs once, as
``python -m steinberg_ext verify --type T --ring R --all-pairs --strata S``
from this checkout's ``src``, one process at a time.  Its stdout sha256 is
compared with the full digest held here, and its wall time and peak RSS
(the child's own ``ru_maxrss``) are printed.  The exit code is 1 if any
digest differs or any sweep exits non-zero, else 0.

These sweeps are larger than tier-1 can afford: about a minute in all on a
2-core host.  A change to code that a sweep runs reruns them, and records
the printed table for the parent and the change.  Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"


class Sweep(NamedTuple):
    type_name: str
    ring: str
    strata: str
    digest: str  # sha256 of the sweep's stdout


SWEEPS = {
    "E7-Q": Sweep("E7", "Q", "off",
                  "4f4dd28f362d7cc1d90ce9171d9153b6a70ddf6d86bcdc41f541219cb3672ea1"),
    "E8-Q": Sweep("E8", "Q", "off",
                  "a7d2c1eb0159d98bbf67910db5591e381eab00dcd6e141d05850a927492c4abb"),
    "D7-strata": Sweep("D7", "q=3,d=1000003", "on",
                       "5b7d330fbd903775a5146457e63d30fe6f2440e7a712d77d8fd20722883d6999"),
    "B7-strata": Sweep("B7", "q=3,d=1000003", "on",
                       "66a4e2d936c33e8293f7aafa1c6c4fcdf03b3e7c2a98a89ed05a57b7763e75b3"),
    "A8-strata": Sweep("A8", "q=3,d=1000003", "on",
                       "f8313a129c87f89c1d22099ff83ee79f9a6bda748aee4f0024a3321d10e31dc9"),
    "E6-strata": Sweep("E6", "q=3,d=1000003", "on",
                       "ba46536f89c8fc40881efb5b05499562c1c7b28a95c1d8cbecbcdc2a8c42c088"),
}


class Result(NamedTuple):
    digest: str
    exit_code: int
    wall_s: float
    peak_mb: float


def run(sweep: Sweep) -> Result:
    """Run one sweep in its own process and hash its stdout as it comes."""
    argv = [sys.executable, "-m", "steinberg_ext", "verify", "--type", sweep.type_name,
            "--ring", sweep.ring, "--all-pairs", "--strata", sweep.strata]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    digest = hashlib.sha256()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux, in bytes on macOS
    peak = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    return Result(digest.hexdigest(), proc.returncode, wall, peak)


def main(argv: list[str] | None = None, sweeps: dict[str, Sweep] = SWEEPS) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = [name for name in names if name not in sweeps]
    if unknown:
        print(f"unknown sweep {', '.join(unknown)}; known: {', '.join(sweeps)}",
              file=sys.stderr)
        return 2
    failed = 0
    print("sweep\tverdict\twall_s\tpeak_mb\tdigest")
    for name in names or sweeps:
        sweep = sweeps[name]
        result = run(sweep)
        ok = result.exit_code == 0 and result.digest == sweep.digest
        failed += not ok
        verdict = "ok" if ok else f"FAIL (exit {result.exit_code})"
        print(f"{name}\t{verdict}\t{result.wall_s:.2f}\t{result.peak_mb:.1f}\t"
              f"{result.digest if not ok else result.digest[:16]}", flush=True)
        if not ok:
            print(f"{name}: expected {sweep.digest}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
