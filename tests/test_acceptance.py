"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import io
import random
import subprocess
import sys
import time
from pathlib import Path

from sdualkit import cli, spaces, verify
from sdualkit.abelian_coulomb import TorusTheory

GOLDEN = Path(__file__).parent / "golden"


def read_golden_pairs(name):
    lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("\t")) for line in lines if line]


def run_coulomb(document, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code = cli.main(["coulomb", "-"])
    out = capsys.readouterr().out
    return code, out


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_rank_one_presentations(capsys, monkeypatch):
    start = time.monotonic()
    for document, expected in read_golden_pairs("coulomb_examples.golden"):
        code, out = run_coulomb(document, capsys, monkeypatch)
        assert code == 0, document
        assert out == expected + "\n", f"{document}: {out!r} != {expected!r}"
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            "criterion-1 rank-one presentation suite",
            elapsed < 1.0,
            f"11 golden cases byte-exact in {elapsed:.2f}s",
        )


def test_criterion_2_product_laws(capsys):
    start = time.monotonic()
    passed, detail = verify.check_coulomb_product_laws(random.Random("acceptance:laws"))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            "criterion-2 product commutativity/associativity",
            passed and elapsed < 30.0,
            f"{detail} in {elapsed:.2f}s",
        )


def test_criterion_3_grading(capsys):
    passed, detail = verify.check_coulomb_grading(random.Random("acceptance:grading"))
    with capsys.disabled():
        report("criterion-3 structure-constant grading", passed, detail)


def test_criterion_4_chains_and_rank_oracle(capsys):
    start = time.monotonic()
    chains = verify.check_orbit_chain_family(random.Random("acceptance:chains"))
    ranks = verify.check_orbit_rank_oracle(random.Random("acceptance:ranks"))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            "criterion-4 chain family and rank oracle",
            chains[0] and ranks[0] and elapsed < 10.0,
            f"{chains[1]}; {ranks[1]} in {elapsed:.2f}s",
        )


def test_criterion_5_duality_table_and_transpose_laws(capsys):
    table = verify.check_sdual_slice_orbit_table(random.Random("acceptance:table"))
    laws = verify.check_partition_transpose_laws(random.Random("acceptance:transpose"))
    with capsys.disabled():
        report(
            "criterion-5 slice/orbit duality table",
            table[0] and laws[0],
            f"{table[1]}; {laws[1]}",
        )


def test_criterion_6_kostant_identity(capsys):
    passed, detail = verify.check_kostant_reduction(random.Random("acceptance:kostant"))
    with capsys.disabled():
        report("criterion-6 Kostant reduction identity", passed, detail)


def test_criterion_7_brane_calculus(capsys):
    start = time.monotonic()
    passed, detail = verify.check_brane_hw_properties(random.Random("acceptance:branes"))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            "criterion-7 brane move properties",
            passed and elapsed < 10.0,
            f"{detail} in {elapsed:.2f}s",
        )


def test_criterion_8_quiver_pipeline(capsys):
    passed, detail = verify.check_quiver_sdual_pipeline(random.Random("acceptance:quivers"))
    with capsys.disabled():
        report("criterion-8 quiver duality pipeline", passed, detail)


def test_criterion_9_hyperspherical_deficits(capsys):
    lines = []
    t1 = spaces.GroupDescriptor.torus(1)
    matter = spaces.SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, [[1]]))
    lines.append(
        f"deficit {matter._base_text()} | {t1} = {spaces.hyperspherical_deficit(matter, t1)}"
    )
    for n in range(1, 5):
        g = spaces.GroupDescriptor.gl(n)
        m = spaces.SpaceDescriptor.cotangent_of_group(g)
        lines.append(f"deficit {m._base_text()} | {g} = {spaces.hyperspherical_deficit(m, g)}")
    groups = [t1] + [spaces.GroupDescriptor.gl(n) for n in range(1, 5)]
    for g in groups:
        m = spaces.SpaceDescriptor.point(g)
        lines.append(f"deficit {m._base_text()} | {g} = {spaces.hyperspherical_deficit(m, g)}")
    expected = (GOLDEN / "deficits.golden").read_text(encoding="utf-8")
    got = "\n".join(lines) + "\n"
    with capsys.disabled():
        report(
            "criterion-9 hyperspherical deficit goldens",
            got == expected,
            "10 recorded values byte-exact",
        )


def test_criterion_10_verify_command(capsys):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "sdualkit.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    expected = (GOLDEN / "verify_default_seed.golden").read_text(encoding="utf-8")
    with capsys.disabled():
        report(
            "criterion-10 end-to-end verify",
            proc.returncode == 0 and elapsed < 120.0 and proc.stdout == expected,
            f"exit {proc.returncode} in {elapsed:.1f}s, stdout matches golden: {proc.stdout == expected}",
        )
