"""Smoke test of the benchmark itself, at the smallest sizes.

    python3 perfbench/smoke.py

Run from the repository root (about two minutes on 2 cores). It checks that
BENCHMARK.json matches spec.py and the format limits, that every workload
prints every end-to-end metric with its unit and passes its output checks,
that an injected wrong output is counted as failed, that another seed
changes the inputs but not the metric names, that the traced run emits
every per-layer name, and that a directory without sdualkit sources makes
the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def run(workload: str, *extra: str, cwd: str = ".") -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seconds", "1", "--passes", "1", "--quick", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result_of(name: str, lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    expect(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result has the four keys")
    return doc


def check_spec() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    expect(doc == spec.benchmark_json(), "BENCHMARK.json matches spec.py")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"]] + [m["name"] for m in doc["per_layer"]]
    expect(all(NAME.match(n) for n in names), "every name fits the name format")
    expect(len(set(names)) == len(names), "every name is used once")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"]),
           "every why is one line of at most 200 characters")
    units = [m["unit"] for m in doc["end_to_end"] + doc["per_layer"]]
    expect(all(UNIT.match(u) for u in units), "every unit fits the unit format")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "every bound is at most 0.25")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    expect(2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128, "list sizes within limits")
    expect(len(json.dumps(doc)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def check_workload(name: str) -> None:
    code, lines = run(name)
    expect(code == 0, f"{name}: exit code 0")
    doc = result_of(name, lines)
    want = {n: u for n, u, _, _ in spec.END_TO_END}
    got = {n: m["unit"] for n, m in doc["metrics"].items()}
    expect(got == want, f"{name}: every end-to-end metric with its unit")
    expect(all(m["value"] > 0 for m in doc["metrics"].values()), f"{name}: end-to-end values are nonzero")
    expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
           f"{name}: outputs correct ({doc['failed']} of {doc['attempted']} failed)")

    code, lines = run(name, "--inject-fault")
    doc = result_of(name, lines)
    expect(code == 0 and not doc["correct"] and doc["failed"] >= 1,
           f"{name}: injected wrong output counted ({doc['failed']} failed)")

    code, lines = run(name, "--seed", "7")
    doc = result_of(name, lines)
    expect(set(doc["metrics"]) == set(want) and doc["correct"], f"{name}: seed 7 keeps the metric names")
    w = workloads.WORKLOADS[name]
    if name != "verify-suite":  # always the suite at verify's default seed
        expect(w.inputs(7, 0) != w.inputs(8, 0), f"{name}: another seed changes the inputs")
    expect(w.inputs(7, 0) == w.inputs(7, 0), f"{name}: the same seed gives the same inputs")

    code, lines = run(name, "--trace", "1")
    doc = result_of(name, lines)
    want = {n: u for n, u, _ in spec.PER_LAYER}
    got = {n: m["unit"] for n, m in doc["metrics"].items()}
    expect(code == 0 and got == want and doc["correct"], f"{name}: traced run emits every per-layer name")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run("coulomb-ring", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"without sources: exit {code} and no result")


def main() -> int:
    check_spec()
    for name in spec.WORKLOADS:
        check_workload(name)
    check_bare_directory()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
