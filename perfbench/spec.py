"""Names, units and fixed settings of the sdualkit benchmark.

Everything that ``BENCHMARK.json`` declares is defined here once; the
worker, the smoke test and ``baseline.py`` (which writes ``BENCHMARK.json``)
all read it from this module.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15
DEFAULT_SEED = 1729
# Nominal wall time of refclock.reference_loop: the machine speed that every
# reported time is scaled to. On a 2-vCPU Xeon VM the loop took 1.1-2.4 ms
# inside the workers, so reported times are close to typical wall times.
REFERENCE_LOOP_S = 0.0018

# name -> (why, tail percentile of the per-operation latency, why that percentile)
WORKLOADS = {
    "verify-suite": (
        "the 13 named checks of sdualkit verify in CHECKS order: the headline end-to-end number, "
        "mixing the Coulomb engine (~60%) with tiny-diagram construction in brane (~35%)",
        100,
        "the operation is the whole suite, one per pass, so p50 and tail are that one time",
    ),
    "coulomb-ring": (
        "seeded torus theories: structure-constant tables over a fixed rank/cutoff/weight grid "
        "(high sharing), multiply on fresh theories (low sharing), rank-one presentations",
        90,
        "300 fresh-theory products per pass and five or more passes per run leave 150+ samples above p90; "
        "p95 falls where the rank-3 products thin out and spread 0.175 over eight seeds, p90 0.061",
    ),
    "brane-calculus": (
        "long diagrams (hw walks, linking invariance, sdual laws), quiver unfolding, and all-o chain "
        "readings through chain_to_orbit fast and slow paths into spaces.sdual_pair",
        95,
        "66 chain readings per pass (40 on the fast path, so p50 is a fast-path reading) and fifteen or "
        "more passes per run leave 45+ samples above p95, all slow-path readings",
    ),
}

# (name, unit, better, bound): reported by every untraced run.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("run_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
]

# The 13 checks that exist at the commit that defined this benchmark.
VERIFY_CHECKS = [
    "coulomb-presentations",
    "coulomb-product-laws",
    "coulomb-grading",
    "orbit-chain-family",
    "orbit-rank-oracle",
    "sdual-slice-orbit-table",
    "partition-transpose-laws",
    "kostant-reduction",
    "brane-hw-properties",
    "quiver-sdual-pipeline",
    "hyperspherical-deficit",
    "coulomb-brane-crosscheck",
    "sdual-compose-dims",
]

# Left out of the smoke test's quick verify-suite pass.
VERIFY_HEAVY = ["coulomb-product-laws", "coulomb-grading", "quiver-sdual-pipeline"]

# verify.<check>.items (largest integer in the check's detail) for the default seed.
VERIFY_ITEMS_DEFAULT_SEED = {
    "coulomb-presentations": 11,
    "coulomb-product-laws": 1643121,
    "coulomb-grading": 14450,
    "orbit-chain-family": 8,
    "orbit-rank-oracle": 676,
    "sdual-slice-orbit-table": 44,
    "partition-transpose-laws": 8,
    "kostant-reduction": 1739,
    "brane-hw-properties": 500,
    "quiver-sdual-pipeline": 406900,
    "hyperspherical-deficit": 0,
    "coulomb-brane-crosscheck": 6,
    "sdual-compose-dims": 40,
}

# Counted wrappers: metric prefix -> (module, attribute path). The traced
# run reports <prefix>.calls and <prefix>.s for each (only the names listed
# in PER_LAYER are emitted).
WRAPPED = {
    "exactalg.poly_mul": ("sdualkit.exactalg", "Polynomial.__mul__"),
    "exactalg.poly_init": ("sdualkit.exactalg", "Polynomial.__init__"),
    "exactalg.eval_product": ("sdualkit.exactalg", "eval_product"),
    "exactalg.integer_kernel": ("sdualkit.exactalg", "integer_kernel"),
    "exactalg.integer_rank": ("sdualkit.exactalg", "integer_rank"),
    "abelian_coulomb.structure_constant_table": ("sdualkit.abelian_coulomb", "structure_constant_table"),
    "abelian_coulomb.multiply": ("sdualkit.abelian_coulomb", "multiply"),
    "abelian_coulomb.structure_exponents": ("sdualkit.abelian_coulomb", "structure_exponents"),
    "abelian_coulomb.present_rank1": ("sdualkit.abelian_coulomb", "present_rank1"),
    "partitions.chain_to_orbit": ("sdualkit.partitions", "chain_to_orbit"),
    "partitions.numeric_jordan_oracle": ("sdualkit.partitions", "numeric_jordan_oracle"),
    "brane.diagram_init": ("sdualkit.brane", "BraneDiagram.__init__"),
    "brane.parse": ("sdualkit.brane", "BraneDiagram.parse"),
    "brane.hw_move": ("sdualkit.brane", "hw_move"),
    "brane.sdual": ("sdualkit.brane", "sdual"),
    "brane.linking_numbers": ("sdualkit.brane", "linking_numbers"),
    "brane.quiver_to_diagram": ("sdualkit.brane", "quiver_to_diagram"),
    "brane.expected_space": ("sdualkit.brane", "expected_space"),
    "spaces.sdual_pair": ("sdualkit.spaces", "sdual_pair"),
    "spaces.compose": ("sdualkit.spaces", "compose"),
    "spaces.kostant_reduction_check": ("sdualkit.spaces", "kostant_reduction_check"),
}

COULOMB_PHASES = ["table", "multiply", "present"]


def _per_layer() -> list[tuple[str, str, str]]:
    out = [
        ("exactalg.poly_mul.calls", "count", "lower"),
        ("exactalg.poly_mul.s", "s", "lower"),
        ("exactalg.poly_init.calls", "count", "lower"),
        ("exactalg.eval_product.calls", "count", "lower"),
        ("exactalg.eval_product.s", "s", "lower"),
        ("exactalg.integer_kernel.s", "s", "lower"),
        ("exactalg.integer_rank.s", "s", "lower"),
        ("abelian_coulomb.structure_constant_table.s", "s", "lower"),
        ("abelian_coulomb.multiply.calls", "count", "lower"),
        ("abelian_coulomb.multiply.s", "s", "lower"),
        ("abelian_coulomb.structure_exponents.calls", "count", "lower"),
        ("abelian_coulomb.present_rank1.s", "s", "lower"),
        ("abelian_coulomb.repeat_factor_share", "ratio", "higher"),
    ]
    out += [(f"abelian_coulomb.repeat_factor_share.{p}", "ratio", "higher") for p in COULOMB_PHASES]
    out += [
        ("partitions.chain_to_orbit.calls", "count", "lower"),
        ("partitions.chain_to_orbit.slow_calls", "count", "lower"),
        ("partitions.chain_to_orbit.s", "s", "lower"),
        ("partitions.partitions_enumerated", "count", "lower"),
        ("partitions.numeric_jordan_oracle.s", "s", "lower"),
        ("brane.diagram_init.calls", "count", "lower"),
        ("brane.diagram_init.s", "s", "lower"),
        ("brane.parse.s", "s", "lower"),
        ("brane.hw_move.s", "s", "lower"),
        ("brane.sdual.s", "s", "lower"),
        ("brane.linking_numbers.s", "s", "lower"),
        ("brane.quiver_to_diagram.s", "s", "lower"),
        ("brane.expected_space.s", "s", "lower"),
        ("spaces.sdual_pair.calls", "count", "lower"),
        ("spaces.sdual_pair.s", "s", "lower"),
        ("spaces.compose.s", "s", "lower"),
        ("spaces.kostant_reduction_check.s", "s", "lower"),
    ]
    for check in VERIFY_CHECKS:
        out.append((f"verify.{check}.s", "s", "lower"))
        out.append((f"verify.{check}.items", "count", "higher"))
    out += [
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.import_numpy_ms", "ms", "lower"),
    ]
    out += [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The content of BENCHMARK.json, with exactly the keys the contract allows."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
