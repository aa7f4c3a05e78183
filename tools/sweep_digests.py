"""Rerun the recorded ``verify --all-pairs`` sweeps and single queries, and
check their bytes; optionally time them against a second checkout.

    python3 tools/sweep_digests.py [--rounds N] [--against DIR] [--json PATH] [NAME ...]

Each command in ``RUNS`` (or each one named) runs N times (once by
default), as ``python -m steinberg_ext ARGS`` runs it, from this checkout's
``src``, one process at a time.  Each round's stdout sha256 is compared
with the full digest held here, and the median wall time and peak RSS over
the rounds are printed, each round's on stderr when there are several.  A
command is ``ok`` only if every round exits 0 with its digest.  The exit
code is 1 if any command is not ok, else 0.

With ``--against DIR`` each round runs the command twice, once from this
checkout's ``src`` and once from ``DIR/src`` (a second checkout, such as
the parent commit unpacked by ``git archive``), the side that goes first
alternating from round to round.  A command whose digest differs on either
side fails and is not timed.

Each side's children share a ``PYTHONPYCACHEPREFIX`` of their own, a fresh
temporary directory outside both checkouts, removed at exit, so no child
reads a checkout's ``__pycache__``: with ``PYTHONDONTWRITEBYTECODE`` set, a
stale or missing ``.pyc`` on one side only would be compiled again in
every child of that side.  Before any round, one child of each side, with
bytecode writable, fills the side's prefix: it imports each module of the
package but ``__main__`` and builds the CLI's parser.  So every child
reads the bytecode of what it imports, compiled in this run from its own
side's sources, but for the three lines of ``__main__`` (an empty prefix would have each child compile every
standard-library module it imports as well: about 0.17 s and 2.5 MB more
per small query on a 2-core host).  That child must import ``steinberg_ext``
from under its side's ``src``, or the exit code is 2: a ``PYTHONPATH`` of
the caller's cannot stand in for a checkout that lacks the package.

A command's peak is its own high-water mark since ``exec``: ``VmHWM`` from
``/proc/self/status``, which the child, started by a few lines that run the
package as ``-m`` does, reads as it exits and writes to a pipe.  Its
``ru_maxrss`` would not do: Linux folds the high-water mark of the process
that started it, this tool's, into that value at ``exec``, so no small
command would read below the tool's own size.  Where ``/proc`` is absent,
the peak falls back to ``ru_maxrss``.

``--json PATH`` writes, per command, its argv, the rounds, each side's
median and quartiles of wall time and peak, and the rounds this checkout
was the faster in (``wins``); the Python version, ``os.cpu_count()``,
whether the children could write bytecode (``PYTHONDONTWRITEBYTECODE``
unset), the bytecode prefix policy (``pycache``) and the peak policy
(``peak``); and ``paired``, which says what compares: only the two sides
of one command, round by round.  Different commands are timed minutes
apart, on a host whose speed drifts, so two commands of one file do not
compare.

The large sweeps are more than tier-1 can afford: about a minute in all
on a 2-core host.  Beside them run the north star's small sweeps (B4, F4,
A5, B5 and E6 over Q, F4 strata), the strata sweeps that ``perfbench``'s
``strata-zd`` times (B4 and D4 over q=3,d=1009), and E7 and E8 over Z/d
without strata, each in about a second or less.  The single queries check
the representatives of the largest groups under the Weyl cap, E6 and D7,
which no tier-1 test reads: four large pairs, two small E6 pairs (144
and 1,260 representatives) of the size that ``perfbench``'s
``exceptional-queries`` times, and the longest stream of representatives
under the cap, A8's 362,880 at I = J = {} (about 2 s).  Four more check
complex-built tables at rank 6 to 8, where the golden corpus stops at
rank 4: an E7 cohomology table with every row dumped, an E8 ext table
tensored with a center of rank 2, and two ext-vi tables, of the kind every
sweep checks for each pair and ``exceptional-queries`` times: E8 at
I = Delta, J = {}, nine degrees of rank C(8, j), and E6 at I = J = {}
with every constant row dumped (about 2.3 MB).  A change to code that a
command runs reruns them, and records the printed table for the parent
and the change.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterable
from pathlib import Path
from statistics import median, quantiles
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
PYCACHE_POLICY = ("each side's children share a PYTHONPYCACHEPREFIX of their own, a fresh "
                  "temporary directory outside both checkouts removed at exit, which one "
                  "child of the side fills before the first round: no child reads a "
                  "checkout's __pycache__")
PEAK_POLICY = ("each child's own VmHWM from /proc/self/status, its high-water mark since "
               "exec, which it writes to a pipe as it exits; its ru_maxrss, which on Linux "
               "holds this tool's own peak too, where /proc is absent")


class Run(NamedTuple):
    args: tuple[str, ...]  # the command line after ``python -m steinberg_ext``
    digest: str  # sha256 of the command's stdout
    src: Path = SRC  # the checkout's ``src`` the command runs from
    pycache: Path | None = None  # the bytecode prefix of ``src``'s children


def sweep(type_name: str, ring: str, strata: str, digest: str) -> Run:
    """``verify --all-pairs`` over one type and ring."""
    return Run(("verify", "--type", type_name, "--ring", ring, "--all-pairs",
                "--strata", strata), digest)


RING = "q=3,d=1000003"
RUNS = {
    "E7-Q": sweep("E7", "Q", "off",
                  "4f4dd28f362d7cc1d90ce9171d9153b6a70ddf6d86bcdc41f541219cb3672ea1"),
    "E8-Q": sweep("E8", "Q", "off",
                  "a7d2c1eb0159d98bbf67910db5591e381eab00dcd6e141d05850a927492c4abb"),
    "B4-Q": sweep("B4", "Q", "off",
                  "3fe30727aee7aaf42ef8a99188d14ffce6b572fef560030953728ab91911c8f1"),
    "F4-Q": sweep("F4", "Q", "off",
                  "c7df79505cce000fb865fa7060408dd69f23b03005a7562a08a9ed16121c1c36"),
    "A5-Q": sweep("A5", "Q", "off",
                  "97fceb9ef26f3240b09190febad0ae9a395f6e7a81f70a2fee187a65b7ff897e"),
    "B5-Q": sweep("B5", "Q", "off",
                  "e7b1985209f1da6ef2f9ebf559e7db48185fbef49912c6096d4460b0f2c474d7"),
    "E6-Q": sweep("E6", "Q", "off",
                  "8c79ade299a9bde63a3947668033fd9228d24e2c5a81706495880d76738590a8"),
    "E7-zd": sweep("E7", RING, "off",
                   "ee4986c85281bf3b176fcf4d54569a5862f22a58e00f804fc87fd5d2b0bc5cfb"),
    "E8-zd": sweep("E8", RING, "off",
                   "a6addbe355088bd0df358c22719ac9092e6b858662bf0a0e88f8c2528d452f63"),
    "D7-strata": sweep("D7", RING, "on",
                       "5b7d330fbd903775a5146457e63d30fe6f2440e7a712d77d8fd20722883d6999"),
    "B7-strata": sweep("B7", RING, "on",
                       "66a4e2d936c33e8293f7aafa1c6c4fcdf03b3e7c2a98a89ed05a57b7763e75b3"),
    "A8-strata": sweep("A8", RING, "on",
                       "f8313a129c87f89c1d22099ff83ee79f9a6bda748aee4f0024a3321d10e31dc9"),
    "E6-strata": sweep("E6", RING, "on",
                       "ba46536f89c8fc40881efb5b05499562c1c7b28a95c1d8cbecbcdc2a8c42c088"),
    "F4-strata": sweep("F4", RING, "on",
                       "d9e55c086be7cc228e62de5d57a56b498ec736dae8c2f490185867b03536d0fa"),
    "B4-strata-zd": sweep("B4", "q=3,d=1009", "on",
                          "f78312b99bfed4a1ead59dfd41085383843bf821102b4d65c380d5ad096574a0"),
    "D4-strata-zd": sweep("D4", "q=3,d=1009", "on",
                          "3929917d6680ed91b831bff5ab032e5d89174854df8f38863139ab72814e88aa"),
    "E6-dcosets": Run(("dcosets", "--type", "E6", "--I", "1", "--J", "0,5", "--ring", RING),
                      "c28fc676d9ec21845759025dec4abfb1a5bc0db5a61d83fb5028b7228f8f291f"),
    "E6-ext-induced": Run(("ext-induced", "--type", "E6", "--I", "", "--J", "",
                           "--method", "strata", "--ring", RING),
                          "d07fb8017901046540a19317ea01e5e2bdf51a4a938b1a61e64aa20d8de2735a"),
    "D7-dcosets": Run(("dcosets", "--type", "D7", "--I", "1", "--J", "0,5", "--ring", RING),
                      "bda9bc05381e006b61d93065f47395abf751f42fa82c178334ba109398ce8e8e"),
    "D7-ext-induced": Run(("ext-induced", "--type", "D7", "--I", "1", "--J", "0,5",
                           "--method", "strata", "--ring", RING),
                          "459c0b28643a41fddf9c3aa16e616cd451653a9c2119f9573fa2e4d2ed4dd2d2"),
    "E6-dcosets-small": Run(("dcosets", "--type", "E6", "--I", "0,2,3,4", "--J", "1,3",
                             "--ring", RING),
                            "a20f954a992c05d37afd3797d1f46c80b5298469b8ed97f8d2d67966f10f936e"),
    "E6-ext-induced-small": Run(
        ("ext-induced", "--type", "E6", "--I", "0,2,3", "--J", "1", "--method", "strata",
         "--ring", "Q"),
        "60208eff068dac9b6ecee91a1f7d4fa00b8f820e50799dd695d94e3d1fe824ec"),
    "A8-ext-induced": Run(("ext-induced", "--type", "A8", "--I", "", "--J", "",
                           "--method", "strata", "--ring", "Q"),
                          "718af23f05b542a587ec599552d6bec71d9cb24da2c283ee51163036ebfbc83d"),
    "E7-cohomology-dump": Run(("cohomology", "--type", "E7", "--I", "", "--method", "both",
                               "--dump-complex", "--ring", RING),
                              "956d83b1c0761fa2f7e6a7f0d4cbfb110472ecfadc22d1a5192454f8f09becbb"),
    "E8-ext-center": Run(("ext", "--type", "E8", "--I", "0,1,2,3,4,5,6,7", "--J", "",
                          "--method", "both", "--center-rank", "2", "--ring", RING),
                         "beddf4f51a945f507264cc300a9f71b177ae778fc819a99c63b82b29c49b1b04"),
    "E8-ext-vi": Run(("ext-vi", "--type", "E8", "--I", "0,1,2,3,4,5,6,7", "--J", "",
                      "--method", "both", "--ring", RING),
                     "2a3617e468ed9f170395364076bcf5513f03739be8559fd48d750776094bbe02"),
    "E6-ext-vi-dump": Run(("ext-vi", "--type", "E6", "--I", "", "--J", "", "--method", "both",
                           "--dump-complex", "--ring", RING),
                          "c47eb5b22cfc7762b62e710f47d5f5f88efa586338b806001fd9362a98b284dc"),
}


class Result(NamedTuple):
    digest: str
    exit_code: int
    wall_s: float
    peak_mb: float


def environment(src: Path, pycache: Path | None) -> dict[str, str]:
    """The environment a command runs in from ``src``: the caller's, with
    ``src`` first on ``PYTHONPATH`` and, if given, ``pycache`` as
    ``PYTHONPYCACHEPREFIX``, where the child reads and writes bytecode
    instead of in any ``__pycache__``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    if pycache is not None:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


# imports each module of the package but ``__main__`` (which would run) and
# builds the CLI's parser (argparse imports ``locale`` then), so that the
# bytecode of every module a command imports is in the prefix; it imports
# nothing else, so the prefix holds no module that a command does not need
_PREPARE = """\
import importlib, os, steinberg_ext
for name in os.listdir(steinberg_ext.__path__[0]):
    if name.endswith(".py") and name != "__main__.py":
        importlib.import_module("steinberg_ext." + name[:-3])
steinberg_ext.cli.build_parser()
print(steinberg_ext.__file__)
"""


def prepare(src: Path, pycache: Path) -> Path | None:
    """Fill the prefix ``pycache`` with the bytecode of ``src``'s package, in
    a child started with ``src``'s environment and bytecode writable, and
    say where it imports ``steinberg_ext`` from; ``None`` if it cannot."""
    env = environment(src, pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, "-c", _PREPARE],
                          capture_output=True, text=True, env=env)
    return Path(proc.stdout.strip()).resolve() if proc.returncode == 0 else None


# runs ``python -m steinberg_ext ARGS`` as ``-m`` does, given first the write
# end of a pipe, to which it writes its ``VmHWM`` line (in kB) as it exits
_LAUNCH = """\
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def report():
    try:
        with open("/proc/self/status", "rb") as status:
            os.write(fd, next(line for line in status if line.startswith(b"VmHWM:")))
    except (OSError, StopIteration):
        pass
atexit.register(report)
runpy.run_module("steinberg_ext", run_name="__main__", alter_sys=True)
"""


def run(entry: Run) -> Result:
    """Run one command in its own process and hash its stdout as it comes."""
    read, write = os.pipe()
    argv = [sys.executable, "-c", _LAUNCH, str(write), *entry.args]
    digest = hashlib.sha256()
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, pass_fds=(write,),
                                env=environment(entry.src, entry.pycache))
    finally:
        os.close(write)
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    proc.stdout.close()
    with open(read, "rb") as pipe:
        hwm = pipe.read().split()  # [b"VmHWM:", kB, b"kB"], or nothing
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if hwm:
        peak = int(hwm[1]) / 1024
    else:  # ru_maxrss is in kilobytes on Linux, in bytes on macOS
        peak = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    return Result(digest.hexdigest(), proc.returncode, wall, peak)


def spread(values: list[float]) -> dict[str, float]:
    """The median and quartiles of ``values``; one value is all three."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 4), "median": round(median(values), 4), "q3": round(q3, 4)}


def failure(results: Iterable[Result], digest: str) -> Result | None:
    """The first of ``results`` that exits nonzero or prints other bytes."""
    return next((r for r in results if r.exit_code or r.digest != digest), None)


def main(argv: list[str] | None = None, runs: dict[str, Run] = RUNS) -> int:
    parser = argparse.ArgumentParser(description="Rerun the recorded commands and check "
                                                 "their stdout digests.")
    parser.add_argument("names", nargs="*", metavar="NAME")
    parser.add_argument("--rounds", type=int, default=1,
                        help="runs of each command, one process at a time (default 1)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="a second checkout, whose src each round also runs")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="write each command's rounds, medians and quartiles here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    unknown = [name for name in args.names if name not in runs]
    if unknown:
        print(f"unknown run {', '.join(unknown)}; known: {', '.join(runs)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="sweep-digests-pycache-") as pycache:
        return compare(args, runs, Path(pycache))


def compare(args: argparse.Namespace, runs: dict[str, Run], pycache: Path) -> int:
    """Run the commands ``args`` names from each side, each side's children
    with their own bytecode prefix under ``pycache``."""
    sides = {"this": SRC}
    if args.against:
        sides["against"] = args.against.resolve() / "src"
    prefixes = {side: pycache / side for side in sides}
    for side, src in sides.items():
        found = prepare(src, prefixes[side])
        if found is None or not found.is_relative_to(src.resolve()):
            print(f"{side}: {src} does not provide steinberg_ext; a child run from it "
                  f"imports {found or 'nothing'}", file=sys.stderr)
            return 2
    report: dict = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                    "bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
                    "pycache": PYCACHE_POLICY, "peak": PEAK_POLICY,
                    "against": args.against and args.against.resolve().name,
                    "paired": "only the two sides of one run, round by round: different "
                              "runs were timed minutes apart and do not compare",
                    "runs": {}}
    failed = 0
    print("run\tverdict\twall_s\tpeak_mb\tdigest"
          + ("\tagainst_wall_s\tagainst_peak_mb" if args.against else ""))
    for name in args.names or runs:
        entry = runs[name]
        commands = {side: entry._replace(src=src, pycache=prefixes[side])
                    for side, src in sides.items()}
        results: dict[str, list[Result]] = {side: [] for side in sides}
        bad = None
        for k in range(args.rounds):
            for side in list(sides)[::(-1) ** k]:  # the side that goes first alternates
                results[side].append(run(commands[side]))
                if args.rounds > 1:
                    label = f"{side} round" if args.against else "round"
                    print(f"{name}\t{label} {k + 1}\t{results[side][-1].wall_s:.2f}\t"
                          f"{results[side][-1].peak_mb:.1f}", file=sys.stderr)
            bad = failure((results[side][-1] for side in sides), entry.digest)
            if bad is not None:
                break
        record = report["runs"][name] = {"argv": list(entry.args), "rounds": args.rounds,
                                         "ok": bad is None}
        if bad is not None:  # not timed
            failed += 1
            print(f"{name}\tFAIL (exit {bad.exit_code})\t-\t-\t{bad.digest}"
                  + "\t-\t-" * bool(args.against), flush=True)
            print(f"{name}: expected {entry.digest}", file=sys.stderr)
            continue
        for side, rs in results.items():
            record[side] = {"wall_s": spread([r.wall_s for r in rs]),
                            "peak_mb": spread([r.peak_mb for r in rs])}
        if args.against:  # ties count for neither side
            record["wins"] = sum(this.wall_s < other.wall_s for this, other
                                 in zip(results["this"], results["against"]))
        medians = [f"{record[side]['wall_s']['median']:.2f}\t"
                   f"{record[side]['peak_mb']['median']:.1f}" for side in sides]
        print("\t".join([name, "ok", medians[0], entry.digest[:16], *medians[1:]]),
              flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
