"""Benchmark of the spklab lab: one workload of real `spklab` commands.

    python3 perfbench/run.py --workload compare_readme --seed 0 --seconds 30 --trace 0

The workload's dataset is made by `spklab gen-data --seed <seed>` during
set-up. The timed commands then run in fresh child processes, repeated
until `--seconds` is used up (at least twice, so that repeats can be
compared byte for byte), and every output is checked.

With `--trace 0` the end-to-end metrics are reported: medians over the
repeats of wall and CPU time, the highest peak RSS, the median set-up time
over set-ups spread over the run, and the share of units that passed
their checks. With `--trace 1` one untraced, one traced and one counted
repeat run on the same inputs; the traced and counted ones wrap spklab's
public functions from outside (see spans.py) and yield per-layer self
times and counts, the overhead of tracing, and the EERs of the models.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A failed check exits with 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Applied to every child on both sides of a comparison; BLAS threads would
# otherwise compete with the 1-thread Python work on a small machine.
BLAS_THREADS = "1"
# Set-ups run in rounds of this many, before the first timed repeat and
# after each one, so that their median samples the same stretch of machine
# time as the timed repeats rather than a second or two of it.
SETUPS_PER_ROUND = 3
MIN_REPEATS = 2
# Children still running this long after the start are killed, so that a
# run ends well within its limit of 180 seconds.
RUN_LIMIT_S = 170.0

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


@dataclass
class Child:
    argv: list[str]
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: Path


class Runner:
    """Starts `spklab` commands as child processes and measures each one."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def run(self, argv: list[str], trace: tuple[str, Path] | None = None) -> Child:
        """Runs `spklab argv`; with `trace` = (mode, path), under traced_cli.py."""
        if trace is None:
            command = [sys.executable, "-m", "spklab.cli", *argv]
        else:
            mode, path = trace
            command = [sys.executable, str(HERE / "traced_cli.py"), mode, str(path), *argv]
        log = self.work / f"child{self.count:03d}.log"
        self.count += 1
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(command, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(argv, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, log)


def tree_digest(path: Path) -> str:
    """sha256 over the relative paths and contents of every file under path."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        if "__pycache__" in file.parts:
            continue
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": commit(),
        "src_sha256": tree_digest(SRC),
    }


class Failed(Exception):
    """A set-up step failed, so the workload cannot be measured."""


def log_tail(child: Child, lines: int = 5) -> str:
    text = child.log.read_text(errors="replace").splitlines()
    return " | ".join(text[-lines:])


class SetUps:
    """Runs the workload's set-up, as often as asked. The first set-up's
    directory holds the inputs of the timed commands; every later one must
    make identical inputs, and is removed once its wall time is taken."""

    def __init__(self, workload, runner: Runner, seed: int, cfg: Path, work: Path):
        self.workload, self.runner, self.seed, self.cfg = workload, runner, seed, cfg
        self.work = work
        self.walls: list[float] = []
        self.digest = None

    @property
    def inputs(self) -> Path:
        return self.work / "setup0"

    def run(self, times: int) -> None:
        for _ in range(times):
            setup_dir = self.work / f"setup{len(self.walls)}"
            start = time.perf_counter()
            for argv in self.workload.setup(self.seed, self.cfg, setup_dir):
                child = self.runner.run(argv)
                if child.returncode != 0:
                    raise Failed(f"set-up `spklab {argv[0]}` exited {child.returncode}: "
                                 f"{log_tail(child)}")
            self.walls.append(time.perf_counter() - start)
            digest = tree_digest(setup_dir)
            if self.digest is None:
                self.digest = digest
                continue
            if digest != self.digest:
                raise Failed("set-up repeats made different inputs")
            shutil.rmtree(setup_dir)


@dataclass
class Repeat:
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: str
    errors: dict[str, list[str]]


def run_repeat(workload, runner, seed, cfg, setup_dir, out, reference, trace=None) -> Repeat:
    """Runs the timed commands once into `out` and checks the outputs; with
    `trace` = (mode, directory), under traced_cli.py in that mode."""
    children = []
    for j, argv in enumerate(workload.timed(seed, cfg, setup_dir, out)):
        trace_to = None if trace is None else (trace[0], trace[1] / f"{trace[0]}{j}.json")
        children.append(runner.run(argv, trace_to))
    failed = [c for c in children if c.returncode != 0]
    if failed:
        message = f"`spklab {failed[0].argv[0]}` exited {failed[0].returncode}: {log_tail(failed[0])}"
        errors = {unit: [message] for unit in workload.units()}
    else:
        errors = workload.check(out, setup_dir)
    digest = tree_digest(out)
    if reference is not None and digest != reference:
        for unit in workload.units():
            errors[unit].append("outputs differ from the first repeat")
    return Repeat(
        wall_s=sum(c.wall_s for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        rss_mb=max(c.rss_mb for c in children),
        digest=digest,
        errors=errors,
    )


def tally(workload, repeats) -> tuple[int, int]:
    """Units attempted and units that failed a check, over all repeats."""
    attempted = len(workload.units()) * len(repeats)
    return attempted, sum(1 for r in repeats for errors in r.errors.values() if errors)


def measure_timed(workload, args, cfg, setups, work, runner):
    """End-to-end metrics: repeats of the timed commands until `--seconds`
    is used up, at least MIN_REPEATS of them, each followed by a round of
    set-ups."""
    start = time.perf_counter()
    setups.run(SETUPS_PER_ROUND)
    repeats = []
    while len(repeats) < MIN_REPEATS or (
        time.perf_counter() - start + statistics.median(r.wall_s for r in repeats)
        <= args.seconds
    ):
        out = work / f"out{len(repeats)}"
        reference = repeats[0].digest if repeats else None
        repeats.append(run_repeat(workload, runner, args.seed, cfg, setups.inputs, out,
                                  reference))
        if repeats[1:]:
            shutil.rmtree(out)
        setups.run(SETUPS_PER_ROUND)
    walls = [r.wall_s for r in repeats]
    attempted, failed = tally(workload, repeats)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in repeats), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in repeats), "MB"),
        "setup_s": (statistics.median(setups.walls), "s"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    line = (f"repeats {len(repeats)}: wall_s min {min(walls):.4f} "
            f"median {statistics.median(walls):.4f} max {max(walls):.4f}; "
            f"setup_s over {len(setups.walls)} set-ups: "
            + " ".join(f"{w:.4f}" for w in setups.walls))
    return repeats, metrics, [line]


def measure_traced(workload, args, cfg, setups, work, runner):
    """Per-layer metrics: an untraced repeat, a repeat with spans and one
    with call counters only, on the same inputs and with matching outputs;
    then the models' EERs. Counters run apart from spans so that their cost
    does not land in any span's self time."""
    setups.run(1)
    setup_dir = setups.inputs
    first_out, trace_dir, eval_dir = work / "out0", work / "trace", work / "eval"
    trace_dir.mkdir()
    plain = run_repeat(workload, runner, args.seed, cfg, setup_dir, first_out, None)
    traced = run_repeat(workload, runner, args.seed, cfg, setup_dir, work / "out1",
                        plain.digest, ("spans", trace_dir))
    counted = run_repeat(workload, runner, args.seed, cfg, setup_dir, work / "out2",
                         plain.digest, ("counts", trace_dir))
    traces = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    metrics, absent = spans.layer_metrics(traces)
    for name in absent:
        print(f"perfbench: warning: trace target {name} is absent; its metrics are "
              "not reported", file=sys.stderr)
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    for argv in workload.untimed(args.seed, setup_dir, first_out, eval_dir):
        child = runner.run(argv)
        if child.returncode != 0:
            for unit in workload.units():
                plain.errors[unit].append(
                    f"quality `spklab {argv[0]}` exited {child.returncode}")
    if not any(plain.errors.values()):
        quality = workload.quality(first_out, setup_dir, eval_dir)
        metrics.update((name, (value, "ratio")) for name, value in quality.items())
    return [plain, traced, counted], metrics, []


def measure(workload, args, work: Path, runner: Runner):
    """Sets the workload up and measures it; returns (repeats, metrics
    with units, lines to print)."""
    cfg = work / "cfg"
    cfg.mkdir()
    for name, text in workload.configs.items():
        (cfg / name).write_text(text)
    setups = SetUps(workload, runner, args.seed, cfg, work)
    measure_mode = measure_traced if args.trace else measure_timed
    repeats, metrics, lines = measure_mode(workload, args, cfg, setups, work, runner)
    results = {"outputs_sha256": repeats[0].digest}
    compare_csv = work / "out0" / "compare.csv"
    if compare_csv.is_file():
        results["compare_csv_sha256"] = hashlib.sha256(compare_csv.read_bytes()).hexdigest()
    lines.append("results " + json.dumps(results, sort_keys=True))
    return repeats, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "spklab" / "cli.py").is_file():
        print(f"perfbench: no spklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    try:
        repeats, metrics, lines = measure(workload, args, work, runner)
    except Failed as exc:
        print(f"perfbench: {workload.name}: {exc}; work directory kept at {work}",
              file=sys.stderr)
        return 1

    errors = [f"repeat {i} {unit}: {e}" for i, r in enumerate(repeats)
              for unit, errs in r.errors.items() for e in errs]
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    attempted, failed = tally(workload, repeats)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    if failed:
        print(f"perfbench: work directory kept at {work}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    try:
        WORK.rmdir()
    except OSError:  # another run's work directory is still there
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
