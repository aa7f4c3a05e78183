"""Benchmark of the steinberg-ext CLI: one fresh process per operation.

    python3 perfbench/run.py --workload sweep-q --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Operations run one at a time in a
closed loop (the next starts when the previous exits), so the program gets
the machine to itself apart from this process, which only waits.  The timed
phase makes whole passes over the seeded op list, as many as fill about
``--seconds`` on the machine the benchmark was defined on.  Every output is
checked.  The last line of stdout is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics from a traced run of one pass
with ``--trace 1``.  Standard library only.

End-to-end times are given in seconds at the reference speed: between
operations the benchmark times reference.py, a fixed pure-Python load, as a
fresh process, and scales each operation's wall time by REFERENCE_S over the
mean of the samples taken just before and just after it.  A shared host's
speed drifts by tens of percent over minutes; the CLI, pure Python started
afresh as well, drifts with the reference, so the scaled times follow the
program and not the host.  The raw wall times are printed on the line before
the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import IDLE_TIMES, LayerStats  # noqa: E402
from workloads import SWEEPS, WORKLOADS, Op, check_output, op_list, setup_ops  # noqa: E402

# Set-up is repeated and its median reported; the query set-up generates
# the E6 Weyl group (seconds), a sweep set-up only starts the interpreter.
SWEEP_SETUP_REPS = 5
QUERY_SETUP_REPS = 3
DEADLINE_S = 170  # the whole run, so a hung child cannot keep it past 180 s

# Length of one pass on the machine the benchmark was defined on.  A run
# makes round(--seconds / this) whole passes, so every machine runs the same
# ops and the sample count behind the median and tail never changes.
NOMINAL_PASS_S = {"sweep-q": 7.0, "strata-zd": 9.0, "exceptional-queries": 30.0}

TAIL_BEYOND = 10

# Median wall time of one reference.py process on the machine the benchmark
# was defined on.  One is timed before each set-up, and before an operation
# when SAMPLE_EVERY_S have passed since the last.
REFERENCE_S = 0.21
SAMPLE_EVERY_S = 1.5

END_TO_END_UNITS = {"ops_per_s": "1/s", "query_p50_s": "s", "query_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_names() -> list[str]:
    """The per-layer metrics a traced run prints on its last line."""
    names = LayerStats().report(0, 0.0)
    return [n for n in names if n not in IDLE_TIMES]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Speed:
    """Times the reference load as a fresh process between operations and
    scales each wall time by the mean of the samples either side of it."""

    def __init__(self, runner: "Runner") -> None:
        self.runner = runner
        self.samples: list[float] = []
        self.walls: list[tuple[int, float]] = []  # (sample before it, wall s)
        self.last = -SAMPLE_EVERY_S

    def sample(self, every: float = 0.0) -> None:
        """Time reference.py once, unless a sample ended under ``every`` s ago."""
        if time.monotonic() - self.last >= every:
            self.samples.append(self.runner.reference())
            self.last = time.monotonic()

    def record(self, wall: float) -> int:
        """Keep a wall time measured since the last sample; returns its index."""
        self.walls.append((len(self.samples) - 1, wall))
        return len(self.walls) - 1

    def scaled(self, index: int) -> float:
        """Wall time ``index`` in seconds at the reference speed; the sample
        after it must have been taken."""
        before, wall = self.walls[index]
        return wall * REFERENCE_S * 2 / (self.samples[before] + self.samples[before + 1])


class Runner:
    """Starts the CLI as child processes and checks what they print."""

    def __init__(self, root: Path, workdir: Path, deadline: float) -> None:
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("STEINBERG_EXT")}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self._trace_ids = 0

    def _spawn(self, argv: list[str]) -> tuple[int, bytes, float]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              timeout=timeout)
        return proc.returncode, proc.stdout, time.perf_counter() - start

    def reference(self) -> float:
        """Wall seconds of one run of reference.py."""
        code, _, wall = self._spawn([sys.executable, str(HERE / "reference.py")])
        if code != 0:
            raise RuntimeError(f"reference.py exited with {code}")
        return wall

    def plain(self, op: Op) -> tuple[float, bytes]:
        """Run ``op`` untraced and check it; returns wall seconds and stdout."""
        code, out, wall = self._spawn([sys.executable, "-m", "steinberg_ext", *op.argv])
        self._check(op, code, out)
        return wall, out

    def traced(self, op: Op, stats: LayerStats) -> tuple[float, bytes]:
        self._trace_ids += 1
        spans = self.workdir / f"spans-{self._trace_ids}.json"
        tracer = str(HERE / "tracer.py")
        code, out, wall = self._spawn([sys.executable, tracer, str(spans), str(self._trace_ids),
                                       "--", *op.argv])
        self._check(op, code, out)
        stats.add_file(str(spans))
        spans.unlink()
        return wall, out

    def _check(self, op: Op, code: int, out: bytes) -> None:
        self.attempted += 1
        reason = check_output(op, code, out.decode())
        if reason is not None:
            self.failed += 1
            print(f"FAILED {op.label()}: {reason}", file=sys.stderr)


def tail(latencies: list[float], ops: list[Op]) -> tuple[float, str]:
    """The latency at the highest percentile with at least TAIL_BEYOND
    samples beyond it, and what it is.  A sweep run has too few samples for
    that percentile to lie above the median; its tail is the median latency
    of its slowest operation over that operation's repeats."""
    n = len(latencies)
    if n > 2 * TAIL_BEYOND:
        i = n - 1 - TAIL_BEYOND
        return sorted(latencies)[i], f"p{100 * (i + 1) / n:.1f} of {n} samples"
    by_op: dict[tuple[str, ...], list[float]] = {}
    for op, latency in zip(ops, latencies):
        by_op.setdefault(op.argv, []).append(latency)
    argv, slowest = max(by_op.items(), key=lambda item: statistics.median(item[1]))
    return (statistics.median(slowest),
            f"the median of {len(slowest)} runs of {' '.join(argv[:3])}, of {n} samples")


def run_setup(runner: Runner, workload: str, cache_dir: Path, speed: Speed) -> int:
    shutil.rmtree(cache_dir, ignore_errors=True)
    speed.sample()
    start = time.perf_counter()
    for op in setup_ops(workload, str(cache_dir)):
        runner.plain(op)
    return speed.record(time.perf_counter() - start)


def measure(runner: Runner, workload: str, seed: int, seconds: int, cache_dir: Path) -> dict:
    ops = op_list(workload, seed, str(cache_dir))
    reps = SWEEP_SETUP_REPS if workload in SWEEPS else QUERY_SETUP_REPS
    speed = Speed(runner)
    # the last set-up before the timed phase leaves the Weyl cache it reads
    setups = [run_setup(runner, workload, cache_dir, speed) for _ in range(reps // 2 + 1)]

    timed: list[int] = []
    timed_ops: list[Op] = []
    work = 0
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    for _ in range(passes):
        for op in ops:
            speed.sample(SAMPLE_EVERY_S)
            wall, _ = runner.plain(op)
            timed.append(speed.record(wall))
            timed_ops.append(op)
            work += op.work
    # the rest after it, so the median samples more than one moment of a
    # shared machine's speed
    setups += [run_setup(runner, workload, cache_dir, speed) for _ in range(reps - len(setups))]
    speed.sample()

    walls = [speed.walls[i][1] for i in timed]
    latencies = [speed.scaled(i) for i in timed]
    tail_s, tail_what = tail(latencies, timed_ops)
    print(f"perfbench: {len(latencies)} ops in {passes} passes; wall {sum(walls):.2f} s, "
          f"median {statistics.median(walls):.3f} s; set-ups "
          f"{', '.join(f'{speed.walls[i][1]:.3f}' for i in setups)} s wall; reference.py median "
          f"{statistics.median(speed.samples) * 1000:.1f} ms of {len(speed.samples)} against "
          f"{REFERENCE_S * 1000:.1f} ms; query_tail_s is {tail_what}")
    values = {
        "ops_per_s": work / sum(latencies),
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": statistics.median(speed.scaled(i) for i in setups),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def trace(runner: Runner, workload: str, seed: int, cache_dir: Path) -> dict:
    """One set-up and one pass, each op untraced and then traced."""
    stats = LayerStats()
    plain_s = traced_s = 0.0
    stdout_bytes = 0
    setup = setup_ops(workload, str(cache_dir))
    ops = op_list(workload, seed, str(cache_dir))
    for op in setup + ops:
        cold = op in setup
        if cold:
            shutil.rmtree(cache_dir, ignore_errors=True)
        wall, out = runner.plain(op)
        plain_s += wall
        if cold:
            shutil.rmtree(cache_dir, ignore_errors=True)
        wall, traced_out = runner.traced(op, stats)
        traced_s += wall
        stdout_bytes += len(traced_out)
        if traced_out != out:
            runner.failed += 1
            print(f"FAILED {op.label()}: tracing changed stdout", file=sys.stderr)

    report = stats.report(stdout_bytes, traced_s - plain_s)
    shares = stats.shares()
    print("perfbench: layer shares of traced CLI time: "
          + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items())))
    print(f"perfbench: untraced {plain_s:.3f} s, traced {traced_s:.3f} s "
          f"over {len(setup) + len(ops)} ops")
    print("perfbench: trace report " + json.dumps(report, sort_keys=True))
    return {name: {"value": report[name], "unit": layer_unit(name)}
            for name in per_layer_names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "steinberg_ext" / "cli.py").is_file():
        print(f"perfbench: no steinberg-ext sources under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
          f"machine={platform.machine()}")

    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        runner = Runner(root, workdir, deadline)
        # untimed: compiles the package's bytecode on the first run in a checkout
        runner.plain(setup_ops("sweep-q", "")[0])
        cache_dir = workdir / "weyl"
        if args.trace:
            metrics = trace(runner, args.workload, args.seed, cache_dir)
        else:
            metrics = measure(runner, args.workload, args.seed, args.seconds, cache_dir)
    except (TimeoutError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: gave up: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench: fail_ratio {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
