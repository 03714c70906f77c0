"""The three workloads: seeded inputs, the timed pass, and the output checks.

Each workload has three parts:

* ``inputs(seed, index)`` builds the inputs of pass ``index`` from the seed
  alone, without calling sdualkit;
* ``run_pass(inputs, ctx)`` is the timed region: it calls sdualkit and
  returns the raw outputs, recording one latency per operation in ``ctx``;
* ``check(inputs, outputs, rng)`` runs after timing and compares the
  outputs with ``oracle`` (and sympy), returning (attempted, failed, notes).

Every pass draws fresh inputs, so a cache the program builds in one pass
cannot answer the next one.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from time import perf_counter

import oracle
import spec


class Context:
    """What a timed pass needs: sdualkit modules, the tracer and the latency logs."""

    def __init__(self, root: str, tracer):
        self.root = root
        self.tracer = tracer
        # (kind, start, end) wall times of each operation a user waits for:
        # the end-to-end latencies, scaled by the worker's reference clock
        self.ops: list[tuple[str, float, float]] = []
        # seconds per verify check, summed over passes
        self.check_s: dict[str, float] = {}

    def sdk(self, name: str):
        return sys.modules[f"sdualkit.{name}"]


def _items(detail: str) -> int:
    numbers = [int(x) for x in re.findall(r"\d+", detail)]
    return max(numbers) if numbers else 0


# -----------------------------------------------------------------------------
# verify-suite
# -----------------------------------------------------------------------------

class VerifySuite:
    name = "verify-suite"
    modules = ("verify",)

    def __init__(self, checks=tuple(spec.VERIFY_CHECKS)):
        self.checks = checks

    def inputs(self, seed: int, index: int) -> dict:
        """The suite at verify's default seed, as `sdualkit verify` runs it.

        The workload seed does not change it: the checks' cost swings by about
        +-10% from one verify seed to another, which would hide a regression
        of that size in the headline number. Passes after the first (traced
        runs of more than one pass) use further fixed seeds.
        """
        return {"seed": spec.DEFAULT_SEED + 100003 * index, "default": index == 0}

    def run_pass(self, inp: dict, ctx: Context) -> list:
        """One operation: the whole suite, as one `sdualkit verify` call runs it."""
        verify = ctx.sdk("verify")
        out = []
        began = perf_counter()
        for name in self.checks:
            with ctx.tracer.span(f"check:{name}"):
                start = perf_counter()
                results = verify.run_checks(name_filter=name, seed=inp["seed"])
                ctx.check_s[name] = ctx.check_s.get(name, 0.0) + perf_counter() - start
            out.append((name, [(r.name, r.passed, r.detail) for r in results]))
        ctx.ops.append(("suite", began, perf_counter()))
        return out

    def check(self, inp: dict, out: list, rng: random.Random):
        failed, notes = 0, []
        for name, results in out:
            if len(results) != 1 or results[0][0] != name or not results[0][1]:
                failed += 1
                notes.append(f"{name}: {results}")
                continue
            items = _items(results[0][2])
            if inp["default"] and items != spec.VERIFY_ITEMS_DEFAULT_SEED[name]:
                failed += 1
                notes.append(f"{name}: {items} items, recorded {spec.VERIFY_ITEMS_DEFAULT_SEED[name]}")
        return len(out), failed, notes

    def corrupt(self, out: list) -> None:
        name, results = out[0]
        out[0] = (name, [(r[0], False, r[2]) for r in results])

    @staticmethod
    def items(out: list) -> dict:
        return {name: _items(results[0][2]) if results else 0 for name, results in out}


# -----------------------------------------------------------------------------
# coulomb-ring
# -----------------------------------------------------------------------------

# (rank, cutoff, weight count): the seed draws only the weight entries. Table
# cost swings with the entries, so each shape repeats and no table dominates.
TABLE_GRID = [(1, 12, 6)] * 2 + [(2, 2, 3)] * 3 + [(2, 2, 4)] * 3 + [(3, 1, 3)] * 2 + [(3, 1, 4)] * 2
# Two rank-2 products for each rank-3 one. Rank-3 products cost more, so an
# even mix would put the median latency on the step between the two groups.
MULTIPLIES = 300
PRESENTS = 60


class CoulombRing:
    name = "coulomb-ring"
    modules = ("abelian_coulomb",)

    def inputs(self, seed: int, index: int) -> dict:
        rng = random.Random(f"coulomb-ring:{seed}:{index}")

        def weights(rank, count, lo=-3, hi=3):
            return [[rng.randint(lo, hi) for _ in range(rank)] for _ in range(count)]

        tables = [(r, c, weights(r, n)) for r, c, n in TABLE_GRID]
        products = []
        for k in range(MULTIPLIES):
            rank = 3 if k % 3 == 2 else 2
            elements = []
            for _ in range(2):
                element: dict = {}
                for _ in range(3):
                    lam = tuple(rng.randint(-2, 2) for _ in range(rank))
                    element[lam] = element.get(lam, 0) + rng.randint(1, 3)
                elements.append(element)
            products.append((rank, weights(rank, 3), elements[0], elements[1]))
        presents = []
        for k in range(PRESENTS):
            rank = 1 + k % 3
            if rank == 1:
                doc = {"rank": 1, "linear_weights": weights(1, rng.randint(0, 5), -4, 4)}
                basis = (1,)
            else:
                while True:
                    mult = weights(rank, rank - 1)
                    basis = oracle.primitive_kernel_vector(mult, rank)
                    if basis is not None:
                        break
                doc = {
                    "rank": rank,
                    "linear_weights": weights(rank, rng.randint(1, 4), -2, 2),
                    "multiplicative_weights": mult,
                }
            presents.append((doc, basis))
        return {"tables": tables, "products": products, "presents": presents}

    def run_pass(self, inp: dict, ctx: Context) -> dict:
        ac = ctx.sdk("abelian_coulomb")
        tracer = ctx.tracer
        out: dict = {"tables": [], "products": [], "presents": []}
        tracer.phase = "table"
        for rank, cutoff, weights in inp["tables"]:
            with tracer.span("table"):
                theory = ac.TorusTheory.from_json({"rank": rank, "linear_weights": weights})
                table = ac.structure_constant_table(theory, cutoff=cutoff)
                out["tables"].append([(lam, mu, str(poly)) for lam, mu, poly in table])
        tracer.phase = "multiply"
        for rank, weights, x, y in inp["products"]:
            with tracer.span("product"):
                start = perf_counter()
                theory = ac.TorusTheory(rank, weights)
                xe, ye = theory.zero(), theory.zero()
                for lam, c in x.items():
                    xe = xe + theory.monomial(lam, c)
                for lam, c in y.items():
                    ye = ye + theory.monomial(lam, c)
                text = str(ac.multiply(theory, xe, ye))
                ctx.ops.append(("multiply", start, perf_counter()))
            out["products"].append(text)
        tracer.phase = "present"
        for doc, _ in inp["presents"]:
            with tracer.span("present"):
                out["presents"].append(str(ac.present_rank1(ac.TorusTheory.from_json(doc))))
        tracer.phase = None
        return out

    def check(self, inp: dict, out: dict, rng: random.Random):
        failed, notes = 0, []
        for (rank, cutoff, weights), rows in zip(inp["tables"], out["tables"]):
            box = oracle.all_box(rank, cutoff)
            if [(lam, mu) for lam, mu, _ in rows] != [(l, m) for l in box for m in box]:
                failed += 1
                notes.append(f"table keys differ for rank {rank} cutoff {cutoff}")
                continue
            for lam, mu, text in rng.sample(rows, 4):
                exps = oracle.structure_exponents(weights, lam, mu)
                want = oracle.format_poly(oracle.sympy_product(weights, exps, rank), rank)
                if text != want:
                    failed += 1
                    notes.append(f"table {weights} at {lam},{mu}: got {text!r}, want {want!r}")
                    break
        for k in rng.sample(range(len(inp["products"])), 8):
            rank, weights, x, y = inp["products"][k]
            want = oracle.format_element(oracle.expected_product(weights, rank, x, y), rank)
            if out["products"][k] != want:
                failed += 1
                notes.append(f"product {k}: got {out['products'][k]!r}, want {want!r}")
        for (doc, basis), text in zip(inp["presents"], out["presents"]):
            coeffs = [oracle.pairing(a, basis) for a in doc["linear_weights"]]
            want = oracle.presentation_text(coeffs)
            if text != want:
                failed += 1
                notes.append(f"presentation of {json.dumps(doc)}: got {text!r}, want {want!r}")
        attempted = len(out["tables"]) + len(out["products"]) + len(out["presents"])
        return attempted, failed, notes

    def corrupt(self, out: dict) -> None:
        out["presents"][0] += "!"

    @staticmethod
    def digest(out: dict) -> str:
        """sha256 of the rendered tables, to compare two commits byte for byte."""
        h = hashlib.sha256()
        for rows in out["tables"]:
            for lam, mu, text in rows:
                h.update(f"{lam}*{mu}={text}\n".encode())
        return h.hexdigest()[:16]


# -----------------------------------------------------------------------------
# brane-calculus
# -----------------------------------------------------------------------------

DIAGRAM_LENGTHS = [30 + 2 * k for k in range(16)]
WALK_MOVES = 24
QUIVER_LENGTHS = [6, 7, 8, 9, 10, 11, 12, 12]
# A slow-path reading costs about 1.35x more per step of the target, and
# random cuts spread the cost within a target, so the latencies run
# smoothly over two decades. Percentiles of a smooth distribution move
# smoothly when a spell slows part of a run; a staircase of equal costs
# would make them jump from one step to the next. The fast-path chains are
# the majority, so the median is a fast-path reading: a median inside the
# slow-path ramp moved 0.12 from seed to seed.
FAST_CHAINS = 40
SLOW_TARGETS = [t for t in range(12, 25) for _ in range(2)]


class BraneCalculus:
    name = "brane-calculus"
    modules = ("brane", "spaces")

    def inputs(self, seed: int, index: int) -> dict:
        rng = random.Random(f"brane-calculus:{seed}:{index}")
        diagrams = []
        for n in DIAGRAM_LENGTHS:
            branes = [rng.choice("ox") for _ in range(n)]
            dims = [0]
            for _ in range(n - 1):
                dims.append(min(20, max(0, dims[-1] + rng.randint(-3, 3))))
            dims.append(0)
            moves = []
            b, d = branes, dims
            for _ in range(WALK_MOVES):
                options = [i for i in range(n - 1) if oracle.admissible(b, d, i)]
                if not options:
                    break
                i = rng.choice(options)
                moves.append(i)
                b, d = oracle.hw(b, d, i)
            diagrams.append((oracle.render(branes, dims), moves, oracle.render(b, d)))
        quivers = [
            ([rng.randint(0, 20) for _ in range(n)], [rng.randint(0, 4) for _ in range(n)])
            for n in QUIVER_LENGTHS
        ]
        chains = []
        for _ in range(FAST_CHAINS):
            steps = rng.randint(8, 30)
            increments = sorted(rng.randint(0, 4) for _ in range(steps))
            chains.append(_chain(increments))
        for target in SLOW_TARGETS:
            steps = target // 3 + 3
            while True:
                cuts = sorted(rng.randint(0, target) for _ in range(steps - 1))
                increments = [b - a for a, b in zip([0] + cuts, cuts + [target])]
                if increments != sorted(increments):
                    break
            chains.append(_chain(increments))
        return {"diagrams": diagrams, "quivers": quivers, "chains": chains}

    def run_pass(self, inp: dict, ctx: Context) -> dict:
        brane = ctx.sdk("brane")
        spaces = ctx.sdk("spaces")
        tracer = ctx.tracer
        out: dict = {"diagrams": [], "concat": [], "quivers": [], "chains": []}
        parsed = []
        with tracer.span("phase:diagrams"):
            for text, moves, _ in inp["diagrams"]:
                with tracer.span("walk"):
                    d = brane.BraneDiagram.parse(text)
                    parsed.append(d)
                    start_links = brane.linking_numbers(d)
                    invariant = True
                    for i in moves:
                        d = brane.hw_move(d, i)
                        invariant = invariant and brane.linking_numbers(d) == start_links
                    involution = brane.sdual(brane.sdual(d)) == d
                out["diagrams"].append((d.render(), str(start_links), invariant, involution))
            for a, b in zip(parsed[::2], parsed[1::2]):
                joined = brane.sdual(brane.concat(a, b))
                out["concat"].append(joined == brane.concat(brane.sdual(a), brane.sdual(b)))
        with tracer.span("phase:quivers"):
            for gauge, framing in inp["quivers"]:
                d = brane.sdual(brane.quiver_to_diagram(brane.QuiverData(gauge, framing)))
                out["quivers"].append((list(d.branes), list(d.dims)))
        with tracer.span("phase:chains"):
            for text, _ in inp["chains"]:
                with tracer.span("chain"):
                    start = perf_counter()
                    try:
                        space = brane.expected_space(brane.BraneDiagram.parse(text))
                        result = (str(space), str(spaces.sdual_pair(space)), _jordan(space))
                    except ValueError as exc:
                        result = (f"{type(exc).__name__}", "", None)
                    ctx.ops.append(("chain", start, perf_counter()))
                out["chains"].append(result)
        return out

    def check(self, inp: dict, out: dict, rng: random.Random):
        failed, notes = 0, []
        for (text, _, final), (got, links, invariant, involution) in zip(inp["diagrams"], out["diagrams"]):
            tokens = text.split()
            want_links = oracle.linking_text(tokens[1::2], [int(t) for t in tokens[0::2]])
            if got != final or links != want_links or not invariant or not involution:
                failed += 1
                notes.append(f"walk from {text!r}: got {got!r} {links!r} {invariant} {involution}")
        failed += out["concat"].count(False)
        for (gauge, framing), got in zip(inp["quivers"], out["quivers"]):
            if got != oracle.unfold_dual(gauge, framing):
                failed += 1
                notes.append(f"quiver {gauge} {framing}: got {got}")
        small = [k for k, (_, dims) in enumerate(inp["chains"]) if dims[-1] <= 24]
        oracle_sample = set(rng.sample(small, min(3, len(small))))
        partitions = sys.modules["sdualkit.partitions"]
        for k, ((text, dims), got) in enumerate(zip(inp["chains"], out["chains"])):
            lam = _expected_jordan(dims)
            want = _reading(dims[-1], lam) if lam is not None else ("InconsistentChainError", "", None)
            if got != want:
                failed += 1
                notes.append(f"chain {dims}: got {got}, want {want}")
            elif k in oracle_sample and lam is not None:
                ranks = partitions.numeric_jordan_oracle(lam)
                steps = len(dims) - 1
                if any(ranks.get(j, 0) > dims[steps - j] for j in range(1, steps + 1)):
                    failed += 1
                    notes.append(f"chain {dims}: Jordan type {lam} breaks a rank condition")
        attempted = len(out["diagrams"]) + len(out["concat"]) + len(out["quivers"]) + len(out["chains"])
        return attempted, failed, notes

    def corrupt(self, out: dict) -> None:
        out["chains"][0] = ("!",) + out["chains"][0][1:]


def _chain(increments) -> tuple[str, list[int]]:
    dims = [0]
    for step in increments:
        dims.append(dims[-1] + step)
    return oracle.render("o" * len(increments), dims), dims


def _expected_jordan(dims):
    increments = [b - a for a, b in zip(dims, dims[1:])]
    if increments == sorted(increments):
        # rank(x^k) = v_{steps-k} is already a rank profile, so it is the maximum
        return oracle.transpose(list(reversed(increments)))
    return oracle.max_jordan_type(dims)


def _jordan(space):
    if space.kind == "point":
        return (1,) * space.left_group.size
    return tuple(space.partition.parts)


def _reading(n: int, lam) -> tuple[str, str, tuple]:
    """Expected text of expected_space and of its S-dual for Jordan type lam."""
    dual = oracle.transpose(lam)
    if all(p == 1 for p in lam):
        space = "point  (dim 0)"
    else:
        space = f"OrbitClosure{_ptext(lam)} in gl({n})  (dim {oracle.orbit_dim(lam)})"
    if all(p == 1 for p in dual):
        dual_text = f"T*GL({n})  (dim {2 * n * n})"
    else:
        dual_text = f"GL({n}) x Slice{_ptext(dual)}  (dim {n * n + oracle.centralizer_dim(dual)})"
    return space, dual_text, tuple(lam)


def _ptext(parts) -> str:
    return "[" + ",".join(str(p) for p in parts) + "]"


WORKLOADS = {w.name: w for w in (VerifySuite(), CoulombRing(), BraneCalculus())}
