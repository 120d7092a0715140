"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload products --seed 1 --seconds 25 --trace 0

Run from anywhere: the program under test is ``src/horbits`` next to this
directory.  A run is a warm-up round and then timed rounds until the time is
up; a round is one pass over the workload's job list in this process, one
fresh ``python -m horbits`` process running the workload's CLI verb, and
(untraced) one fresh interpreter importing ``horbits``; each round starts
with the fixed calibration of :mod:`hostspeed`.  Every result of every pass
is checked in full; a wrong result or an exception counts as a failed
operation.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced (``--trace 0``) the metrics are the end-to-end ones: ``pass_s``,
``cli_s``, ``setup_s`` (medians over rounds, scaled to the reference host
speed by the calibration) and ``peak_rss_mib``, the peak resident set of a
child process that makes one pass without the checks; the unscaled
wall-time medians go to standard error.  Traced
(``--trace 1``) they are the per-layer ones, from spans recorded around the
calls into each layer; the spans are also written to
``.bench_out/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import os

# pin native thread pools before numpy is imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def time_child(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return time.perf_counter() - start, proc


class Runner:
    def __init__(self, workload, seed, traced, workdir):
        import workloads  # imports horbits, so only once src/ is on the path

        self.W = workloads
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.workdir = workdir
        self.tracer = spans.Tracer() if traced else spans.NullTracer()
        self.jobs = workloads.build_jobs(workload, seed, workdir)
        self.n_timed = len(self.jobs)  # the traced scalar batch is not timed
        if traced:
            self.jobs.append(workloads.golden_job(random.Random(f"golden:{seed}")))
        self.cli = workloads.cli_calls(workload, workdir)
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0

    def _failure(self, what, exc):
        self.failed += 1
        print(f"bench: FAILED {what}: {exc}", file=sys.stderr)
        if not isinstance(exc, checks.CheckError):
            traceback.print_exception(exc, file=sys.stderr)

    def _check(self, name, result, check) -> None:
        try:
            check(result)
        except Exception as exc:
            self._failure(name, exc)

    def run_pass(self, index) -> float:
        """One pass over the job list; returns the time the workload's own
        jobs spent in ``run``."""
        tr = self.tracer
        gc.collect()
        tr.start_pass(index)
        work = 0.0
        for i, job in enumerate(self.jobs):
            tr.set_job(job.name)
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = job.run(tr)
            except Exception as exc:  # a crash of the program is a failed operation
                result = exc
            if i < self.n_timed:
                work += time.perf_counter() - start
            if isinstance(result, Exception):
                self._failure(job.name, result)
                continue
            with tr.span("bench.check"):
                self._check(job.name, result, job.check)
        tr.set_job(None)
        tr.count("bench.pass_s", work)
        return work

    def run_cli(self) -> float:
        """The workload's CLI verb: fresh processes untraced, in-process traced."""
        self.attempted += 1
        name = "horbits " + " / ".join(" ".join(argv) for argv in self.cli)
        elapsed = 0.0
        stdouts = []
        try:
            for argv in self.cli:
                if self.traced:
                    stdouts.append(self.W.run_cli_main(self.tracer, argv))
                    continue
                seconds, proc = time_child([sys.executable, "-m", "horbits", *argv], self.env)
                elapsed += seconds
                checks.require(proc.returncode == 0,
                               f"exit {proc.returncode}: {proc.stderr.strip()}")
                stdouts.append(proc.stdout)
            outputs = self.W.cli_outputs(self.workload, self.workdir, stdouts)
        except Exception as exc:
            self._failure(name, exc)
            return elapsed
        self._check(name, outputs, lambda o: self.W.check_cli(self.workload, o))
        return elapsed

    def time_setup(self) -> float:
        seconds, proc = time_child([sys.executable, "-c", "import horbits"], self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"importing horbits failed: {proc.stderr.strip()}")
        return seconds

    def peak_rss_mib(self) -> float:
        """Peak resident set of a fresh process making one unchecked pass."""
        argv = [sys.executable, str(HERE / "run.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--seconds", "0", "--peak-pass"]
        _, proc = time_child(argv, self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"the peak-RSS pass failed: {proc.stderr.strip()}")
        return int(proc.stdout.split()[-1]) / 1024

    def run(self, seconds: float) -> dict:
        passes, clis, setups, calibrations = [], [], [], []
        # warm-up round: checked and counted, not timed
        hostspeed.calibrate()
        self.run_pass(-1)
        self.run_cli()
        if not self.traced:
            self.time_setup()
            peak_mib = self.peak_rss_mib()
        start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            self.tracer.start_pass(rounds)  # the round's calibration belongs to it
            calibrations.append(hostspeed.calibrate())
            self.tracer.count("bench.calibration_s", calibrations[-1])
            passes.append(self.run_pass(rounds))
            clis.append(self.run_cli())
            if not self.traced:
                setups.append(self.time_setup())
            rounds += 1
            now = time.perf_counter()
            # start another round while at least half of one fits in the time
            if rounds >= MIN_ROUNDS and (now - start) + 0.5 * (now - round_start) >= seconds:
                break
        print(f"bench: {self.workload}: {rounds} timed rounds in "
              f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
        if self.traced:
            return spans.layer_metrics(self.tracer, range(rounds))
        # times at the reference host speed: wall-time medians scaled by the
        # reference calibration time over this run's median calibration time
        scale = hostspeed.REFERENCE_S / statistics.median(calibrations)
        wall = {"pass_s": passes, "cli_s": clis, "setup_s": setups}
        print("bench: wall-time medians " + ", ".join(
            f"{k} {statistics.median(v):.4f}" for k, v in wall.items())
            + f"; calibration {statistics.median(calibrations):.4f} s, scale {scale:.4f}",
            file=sys.stderr)
        print("bench: peak resident set "
              f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB "
              f"with the checks, {peak_mib:.1f} MiB in the unchecked pass", file=sys.stderr)
        metrics = {k: {"value": statistics.median(v) * scale, "unit": "s"}
                   for k, v in wall.items()}
        metrics["peak_rss_mib"] = {"value": peak_mib, "unit": "MiB"}
        return metrics


def peak_pass(workload: str, seed: int, workdir: str) -> int:
    """One pass over the job list without the checks (a failing job is
    reported by the checked passes); returns this process's peak RSS in KiB."""
    import workloads

    tracer = spans.NullTracer()
    result = None  # held until the next job returns, as in a checked pass
    for job in workloads.build_jobs(workload, seed, workdir):
        try:
            result = job.run(tracer)
        except Exception:
            result = None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-pass", action="store_true",
                        help="make one unchecked pass and print the peak RSS in KiB")
    args = parser.parse_args(argv)

    if not (SRC / "horbits" / "__init__.py").is_file():
        return _fail(f"no horbits package under {SRC}")
    # compile bytecode first, so setup_s never includes compilation
    if not compileall.compile_dir(str(SRC), quiet=1):
        return _fail("compiling the horbits sources failed")
    sys.path.insert(0, str(SRC))
    try:
        import horbits
    except ImportError as exc:
        return _fail(f"cannot import horbits: {exc}")
    if Path(horbits.__file__).resolve().parent != (SRC / "horbits").resolve():
        return _fail(f"imported horbits from {horbits.__file__}, not {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    if args.peak_pass:
        try:
            print(peak_pass(args.workload, args.seed, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    try:
        runner = Runner(args.workload, args.seed, bool(args.trace), workdir)
        metrics = runner.run(args.seconds)
        if args.trace:
            runner.tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
