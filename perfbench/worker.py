"""One measured workload process, started fresh by run.py.

It imports sdualkit from ``src/`` of the checkout it runs in, builds the
first pass's inputs, prints ``READY`` with the seconds that took on a
``ReferenceClock``, then runs timed passes with the clock running. It writes
each pass's outputs to a temporary file instead of keeping them, reads its
peak resident set after the last pass, then checks the outputs and prints
one JSON line. Pass and operation times in it are scaled to the reference
machine speed; ``pass_wall_s`` keeps the wall times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import random
import resource
import sys
import tempfile
from time import perf_counter

import spec
from refclock import ReferenceClock
from tracer import NullTracer, Tracer
from workloads import WORKLOADS, Context, CoulombRing, VerifySuite

LAYERS = ("exactalg", "abelian_coulomb", "partitions", "brane", "spaces", "verify")


def _import_sdualkit(root: str, modules) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    package = importlib.import_module("sdualkit")
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: sdualkit was imported from {package.__file__}, not from {src}")
    for name in modules:
        importlib.import_module(f"sdualkit.{name}")


def _layer_metrics(tracer: Tracer, ctx: Context) -> dict:
    out: dict = {}
    for prefix in spec.WRAPPED:
        stat = tracer.stat(prefix)
        out[f"{prefix}.calls"] = stat.calls
        out[f"{prefix}.s"] = stat.seconds
    out["abelian_coulomb.repeat_factor_share"] = tracer.repeat_share()
    for phase in spec.COULOMB_PHASES:
        out[f"abelian_coulomb.repeat_factor_share.{phase}"] = tracer.repeat_share(phase)
    out["partitions.chain_to_orbit.slow_calls"] = tracer.slow_calls
    out["partitions.partitions_enumerated"] = tracer.enumerated
    for check in spec.VERIFY_CHECKS:
        out[f"verify.{check}.s"] = ctx.check_s.get(check, 0.0)
        out[f"verify.{check}.items"] = 0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--passes", type=int, default=0, help="fixed pass count; 0 runs for --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm", action="store_true", help="import everything once and exit")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--quick", action="store_true", help="verify-suite without its heavy checks")
    args = parser.parse_args(argv)
    root = os.getcwd()

    if args.warm:
        _import_sdualkit(root, ("cli", "verify"))
        return 0

    workload = WORKLOADS[args.workload]
    if args.quick and isinstance(workload, VerifySuite):
        workload = VerifySuite(tuple(c for c in spec.VERIFY_CHECKS if c not in spec.VERIFY_HEAVY))
    # Set-up runs from just before the sdualkit import to the first pass's
    # inputs, timed here on the reference clock; READY carries its seconds.
    # The interpreter's own start is left out: it is the same for every
    # version of sdualkit and jumped between 64 and 115 ms from run to run
    # on the shared VM the benchmark was built on.
    clock = ReferenceClock()
    clock.start()
    clock.sample()
    # a traced run wraps every layer, so it imports them all (it reports no set-up time)
    modules = LAYERS if args.trace else workload.modules
    setup_began = perf_counter()
    if modules:
        _import_sdualkit(root, modules)
    inp = workload.inputs(args.seed, 0)
    setup_ended = perf_counter()
    clock.stop()
    clock.sample()
    print(f"READY {clock.scaled(setup_began, setup_ended)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install(spec.WRAPPED)
    ctx = Context(root, tracer)
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    # Each pass's outputs go to a file and are dropped, so the worker's
    # resident set holds only what the program itself keeps across passes.
    spill = tempfile.TemporaryFile(dir=out_dir)
    passes: list[tuple[float, float]] = []
    extra: dict = {}
    clock.start()
    began = perf_counter()
    while True:
        with tracer.span(f"pass:{len(passes)}"):
            start = perf_counter()
            out = workload.run_pass(inp, ctx)
            passes.append((start, perf_counter()))
        if isinstance(workload, VerifySuite) and len(passes) == 1:
            extra["items"] = VerifySuite.items(out)
        if isinstance(workload, CoulombRing):
            extra.setdefault("table_digests", []).append(CoulombRing.digest(out))
        pickle.dump(out, spill)
        del out
        if args.passes:
            if len(passes) >= args.passes:
                break
        elif clock.scaled(began, perf_counter()) >= args.seconds:
            # seconds on the reference clock, so the pass count, and with it
            # the inputs a seed yields, does not depend on the machine's spell
            break
        inp = workload.inputs(args.seed, len(passes))
    clock.stop()
    pass_s = [clock.scaled(a, b) for a, b in passes]
    ops = [(kind, clock.scaled(a, b)) for kind, a, b in ctx.ops]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = _layer_metrics(tracer, ctx) if args.trace else {}
    if args.trace and "items" in extra:
        layers.update({f"verify.{k}.items": v for k, v in extra["items"].items()})

    # Checks run after the timed region, on inputs rebuilt from the seed.
    attempted = failed = 0
    notes: list[str] = []
    spill.seek(0)
    for index in range(len(pass_s)):
        out = pickle.load(spill)
        if args.inject_fault and index == 0:
            workload.corrupt(out)
        inp = workload.inputs(args.seed, index)
        a, f, n = workload.check(inp, out, random.Random(f"check:{args.seed}:{index}"))
        attempted, failed, notes = attempted + a, failed + f, notes + n
    spill.close()

    if args.trace:
        path = os.path.join(out_dir, f"trace-{workload.name}-seed{args.seed}.json")
        tracer.write(path, {"workload": workload.name, "seed": args.seed, "pass_s": pass_s,
                            "pass_wall_s": [b - a for a, b in passes]})

    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:5],
        "pass_s": pass_s,
        "pass_wall_s": [b - a for a, b in passes],
        "reference_loop_ms": clock.median_loop() * 1e3,
        "ops": ops,
        "rss_kb": rss_kb,
        "layers": layers,
        "extra": extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
