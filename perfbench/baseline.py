"""Record the benchmark's baseline: repeated runs per workload, spreads and provenance.

    python3 perfbench/baseline.py

Run from the repository root. It rewrites ``BENCHMARK.json`` from
``spec.py``. Then, for each workload, it makes ten untraced runs with seeds
1 to 10 and one traced run with the default seed. It prints, per end-to-end
metric, the median, the quartiles and the spread (interquartile distance
over the median, as the acceptance rule computes it), flagging a spread of
more than a third of the metric's bound. It writes all of it, with a
provenance block, to a fresh ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

SEEDS = range(1, 11)
OUT = os.path.join(HERE, "baseline.json")


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    return {"result": result, "info": info}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def provenance() -> dict:
    import numpy

    src = os.path.join(os.getcwd(), "src")
    lines = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    lines += sum(1 for _ in handle)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": lines,
        "run_seconds": spec.RUN_SECONDS,
    }


def main() -> int:
    with open("BENCHMARK.json", "w", encoding="utf-8") as handle:
        json.dump(spec.benchmark_json(), handle, indent=2)
        handle.write("\n")

    doc = {"provenance": provenance(), "workloads": {}}
    for workload, (why, pct, pct_why) in spec.WORKLOADS.items():
        runs = [run_once(workload, seed, 0) for seed in SEEDS]
        entry = {
            "why": why,
            "tail_percentile": pct,
            "tail_percentile_why": pct_why,
            "seeds": list(SEEDS),
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "passes": [int(r["info"]["passes"]) for r in runs],
            "operations": [int(r["info"]["operations"]) for r in runs],
            "load_average": [
                [json.loads(r["info"]["load_average_before"]), json.loads(r["info"]["load_average_after"])]
                for r in runs
            ],
            # the machine's speed during each run, and the unscaled times
            "reference_loop_ms": [float(r["info"]["reference_loop_ms"]) for r in runs],
            "wall_run_s": [statistics.fmean(json.loads(r["info"]["pass_wall_s"])) for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct {entry['correct']}, wall run_s spread "
              f"{spread(entry['wall_run_s'])['spread']:.3f}")
        for name, unit, _, bound in spec.END_TO_END:
            stats = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = unit
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  WIDE"
            print(f"  {name:12s} median {stats['median']:.6g} {unit}  "
                  f"spread {stats['spread']:.3f} (bound {bound}){flag}")
        traced = run_once(workload, spec.DEFAULT_SEED, 1)
        entry["traced_seed"] = spec.DEFAULT_SEED
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["traced_correct"] = traced["result"]["correct"]
        print(f"  tracing overhead {entry['per_layer']['trace.overhead_share']:.3f} of the untraced pass")
        doc["workloads"][workload] = entry

    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
