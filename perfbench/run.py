"""sdualkit benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports sdualkit from ``src/``.
Every process it starts is a fresh interpreter, so nothing the program
caches survives from one run to the next. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics, from a traced
worker and an untraced one on the same fixed work (their difference is the
tracing overhead). Times are read on ``refclock.ReferenceClock``, which
scales them to a fixed machine speed; the wall times of the passes are
printed above the result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

SETUP_PROBES = 11
IMPORT_PROBES = 5
TRACE_PASSES = {"verify-suite": 1, "coulomb-ring": 2, "brane-calculus": 3}
# A run must end within 180 s. The traced verify-suite run is the longest:
# one untraced and one traced pass of the whole suite, about 2 x 50 s on
# 2 shared vCPUs.
DEADLINE_S = 170.0


class RunError(Exception):
    pass


class Runner:
    def __init__(self, root: str, workload: str, seed: int, deadline: float, quick: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.quick = quick

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise RunError("run exceeded its time limit")
        return left

    def _spawn(self, *extra: str) -> list[str]:
        """Run worker.py to its end; return its stdout lines."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *extra]
        proc = subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError(f"worker timed out: {' '.join(extra)}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RunError(f"worker exited with {proc.returncode}: {' '.join(extra)}")
        return out.splitlines()

    def warm(self) -> None:
        """Import everything once so bytecode caches exist before anything is timed."""
        self._spawn("--warm")

    def setup_probe(self) -> float:
        """Set-up seconds a fresh set-up-only worker reports on its READY line."""
        return float(self._spawn(*self._args(), "--setup-only")[0].split()[1])

    def worker(self, seconds: float, trace: int, passes: int = 0, inject: bool = False):
        args = [*self._args(), "--seconds", str(seconds), "--trace", str(trace), "--passes", str(passes)]
        if inject:
            args.append("--inject-fault")
        lines = self._spawn(*args)
        if len(lines) < 2:
            raise RunError("worker printed no result")
        return json.loads(lines[-1])

    def _args(self) -> list[str]:
        return ["--workload", self.workload, "--seed", str(self.seed)] + (["--quick"] if self.quick else [])

    def child_ms(self, code: str) -> float:
        """Median wall time of a fresh `python -c code` from spawn to exit, in ms."""
        samples = []
        for _ in range(IMPORT_PROBES):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, check=True,
                           timeout=self._remaining(), capture_output=True)
            samples.append((perf_counter() - start) * 1e3)
        return statistics.median(samples)

    def import_ms(self, module: str) -> float:
        """Median time a fresh interpreter spends importing ``module``, in ms."""
        code = (
            "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)"
        )
        samples = []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, check=True,
                                  timeout=self._remaining(), capture_output=True, text=True)
            samples.append(float(proc.stdout.split()[-1]) * 1e3)
        return statistics.median(samples)


def percentile(samples: list[float], pct: int) -> float:
    if pct >= 100:
        return max(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, setups: list[float], result: dict) -> dict:
    latencies = [s * 1e3 for _, s in result["ops"]]
    tail_pct = spec.WORKLOADS[workload][1]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["rss_kb"] / 1024,
        # the mean, not the median: the machine slows in spells of seconds,
        # and a median over passes jumps once a spell covers half the run
        "run_s": statistics.fmean(result["pass_s"]),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, tail_pct),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one sdualkit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes instead of --seconds (smoke test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one output before checking (smoke test)")
    parser.add_argument("--quick", action="store_true",
                        help="leave the three heavy checks out of verify-suite (smoke test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sdualkit", "__init__.py")):
        print(f"error: no sdualkit sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2

    # One CPU for this process and every process it starts: the reference
    # clock then samples the speed of the core the measured work runs on
    # (the speed seen on one vCPU need not hold on the other).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    runner = Runner(root, args.workload, args.seed, perf_counter() + DEADLINE_S, args.quick)
    load_before = os.getloadavg()
    try:
        runner.warm()
        if args.trace:
            passes = args.passes or TRACE_PASSES[args.workload]
            base = runner.worker(args.seconds, 0, passes, args.inject_fault)
            result = runner.worker(args.seconds, 1, passes, args.inject_fault)
            metrics = dict(result["layers"])
            untraced = statistics.fmean(base["pass_s"])
            overhead = statistics.fmean(result["pass_s"]) - untraced
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_share"] = overhead / untraced
            metrics["cli.interpreter_ms"] = runner.child_ms("pass")
            metrics["cli.import_ms"] = runner.import_ms("sdualkit.cli")
            metrics["cli.import_numpy_ms"] = runner.import_ms("numpy")
            units = {name: unit for name, unit, _ in spec.PER_LAYER}
            attempted = base["attempted"] + result["attempted"]
            failed = base["failed"] + result["failed"]
            notes = base["notes"] + result["notes"]
        else:
            setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
            result = runner.worker(args.seconds, 0, args.passes, args.inject_fault)
            metrics = end_to_end(args.workload, setups, result)
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
            attempted, failed, notes = result["attempted"], result["failed"], result["notes"]
    except (RunError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    print(f"workload {args.workload}")
    print(f"seed {args.seed}")
    print(f"trace {args.trace}")
    print(f"cpu {cpu}")
    print(f"load_average_before {json.dumps(load_before)}")
    print(f"load_average_after {json.dumps(load_after)}")
    print(f"reference_loop_ms {result['reference_loop_ms']:.4f}")
    print(f"pass_wall_s {json.dumps(result['pass_wall_s'])}")
    print(f"passes {len(result['pass_s'])}")
    print(f"operations {len(result['ops'])}")
    print(f"tail_percentile p{spec.WORKLOADS[args.workload][1]}")
    for key, value in result["extra"].items():
        print(f"{key} {json.dumps(value)}")
    for note in notes:
        print(f"FAILED {note}")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
