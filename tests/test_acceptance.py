"""Acceptance gate: one test per headline criterion, run in order.

Each test prints exactly one "[criterion NN] name: PASS/FAIL" line and then
asserts, so a verbose run shows one line per criterion.  Time limits are
asserted where stated.  Heavy m = 4 objects are built once at module scope
and shared by the later criteria; the criteria that build them carry the
`slow` marker, so `pytest -m "not slow"` skips every m = 4 construction.
"""

import time
from math import comb

import pytest
from helpers import enumerate_index_set, orbit_matrices, orbit_partition, reports_without_elapsed, shared_context

from doubled_odd.checks import RunConfig, run
from doubled_odd.checks import _RUNNERS
from doubled_odd.combinatorics import enumerate_vertices, intersection_numbers
from doubled_odd.covering import verify_intertwining
from doubled_odd.orbits import (
    BlockTag,
    build_centralizer,
    index_set,
    orbits_by_group_action,
    tuple_bijection,
)
from doubled_odd.terwilliger import (
    block_profile,
    upsilon,
    verify_equality,
    verify_sandwich_identities,
)

_timings: dict[str, float] = {}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, f"{line}  {detail}"


def test_criterion_01_vertex_counts():
    start = time.perf_counter()
    counts = [len(enumerate_vertices(m)) for m in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    ok = counts == [6, 20, 70, 252] and elapsed < 1.0
    _report(1, "vertex counts", ok, f"counts={counts} elapsed={elapsed:.3f}s")


def test_criterion_02_distance_regularity():
    elapsed3 = None
    ok = True
    for m in (1, 2, 3):
        start = time.perf_counter()
        table = intersection_numbers(build_centralizer(m))
        if m == 3:
            elapsed3 = time.perf_counter() - start
        ok = ok and table.valency == m + 1
    ok = ok and elapsed3 < 10.0
    _report(2, "distance-regularity", ok, f"m=3 elapsed={elapsed3:.3f}s")


def test_criterion_03_index_sets():
    ok = True
    for m in (1, 2, 3, 4):
        for block in BlockTag:
            closed = index_set(block, m)
            ok = ok and closed == enumerate_index_set(m, block)
            ok = ok and len(closed) == comb(m + 4, 4)
    frozen = {(1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)}
    ok = ok and index_set(BlockTag.I, 1) == frozen
    _report(3, "index sets", ok)


def test_criterion_04_bijections():
    ok = True
    for m in (1, 2, 3, 4):
        target = index_set(BlockTag.I, m)
        for block in (BlockTag.II, BlockTag.III, BlockTag.IV):
            source = index_set(block, m)
            image = {tuple_bijection(block, tup, m) for tup in source}
            ok = ok and len(image) == len(source) and image == target
    _report(4, "bijections onto block I", ok)


def test_criterion_05_orbit_oracle():
    ok = True
    detail = []
    for m in (1, 2):
        oracle = orbit_partition(orbits_by_group_action(m), len(enumerate_vertices(m)))
        closed = {
            frozenset((r, c) for r, c, _ in mat.entries())
            for mat in orbit_matrices(m).values()
        }
        detail.append(f"m={m}: {len(oracle)} orbits")
        ok = ok and len(oracle) == 4 * comb(m + 4, 4) and oracle == closed
    _report(5, "orbit oracle", ok, "; ".join(detail))


@pytest.mark.slow
def test_criterion_06_centralizer_dimension():
    dims = []
    for m in (1, 2, 3):
        dims.append(build_centralizer(m).ambient_dim)
    start = time.perf_counter()
    cent4 = shared_context(4).centralizer
    elapsed = time.perf_counter() - start
    dims.append(cent4.ambient_dim)
    ok = dims == [20, 60, 140, 280] and elapsed < 60.0
    _report(6, "centralizer dimension", ok, f"dims={dims} m=4 elapsed={elapsed:.3f}s")


@pytest.mark.slow
def test_criterion_07_centralizer_closure():
    ok = True
    detail = []
    for m in (1, 2, 3, 4):
        _, _, actual, status = _RUNNERS["centralizer-dim"](shared_context(m))
        ok = ok and actual["closure_ok"] and status == "pass"
        if m <= 2:
            d = 4 * comb(m + 4, 4)
            ok = ok and actual["pairs_checked"] == d * d
        else:
            ok = ok and actual["pairs_checked"] >= 500
        detail.append(f"m={m}: {actual['pairs_checked']} pairs")
    _report(7, "centralizer closure", ok, "; ".join(detail))


def test_criterion_08_subalgebra_checks():
    ok = True
    detail = []
    for m in (1, 2, 3):
        _, _, actual, status = _RUNNERS["subalgebra-closure"](shared_context(m))
        ok = ok and actual["I_closed"] and actual["IV_closed"]
        ok = ok and status == "finding"
        recorded = actual["mixed_closed"] or actual["mixed_first_violation"] is not None
        ok = ok and recorded
        detail.append(
            f"m={m}: mixed closed={actual['mixed_closed']}"
            f" violation={actual['mixed_first_violation']}"
        )
    _report(8, "diagonal subalgebras closed, mixed block recorded", ok, "; ".join(detail))


@pytest.mark.slow
def test_criterion_09_direct_sum():
    ok = True
    for m in (1, 2, 3, 4):
        _, _, actual, status = _RUNNERS["direct-sum"](shared_context(m))
        ok = ok and status == "pass" and actual["total"] == actual["centralizer_dim"]
    _report(9, "direct sum of block spans", ok)


@pytest.mark.slow
def test_criterion_10_sandwich_identities():
    ok = True
    for m in (1, 2, 3, 4):
        results = verify_sandwich_identities(shared_context(m).centralizer)
        ok = ok and all(results.values())
    _report(10, "dual idempotent sandwich identities", ok)


@pytest.mark.slow
def test_criterion_11_terwilliger_dimension():
    t3 = shared_context(3).terwilliger
    start = time.perf_counter()
    t4 = shared_context(4).terwilliger
    elapsed = time.perf_counter() - start
    ok = (
        t3.dimension == 140
        and t4.dimension == 280
        and t3.iterations is not None
        and t4.iterations is not None
        and elapsed < 300.0
    )
    _report(
        11,
        "Terwilliger dimension",
        ok,
        f"dims=({t3.dimension}, {t4.dimension}) m=4 elapsed={elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_12_inclusion_and_equality():
    ok = True
    for m in (3, 4):
        ctx = shared_context(m)
        _, _, _, inc = _RUNNERS["inclusion"](ctx)
        eq = verify_equality(ctx.terwilliger)
        ok = ok and inc == "pass" and all(eq.values())
    finding_status = []
    for m in (1, 2):
        reports = run(RunConfig(m=m, checks=("inclusion", "equality")))
        finding_status.extend(r.status for r in reports)
    ok = ok and finding_status == ["finding"] * 4
    _report(12, "inclusion and equality of the two algebras", ok)


@pytest.mark.slow
def test_criterion_13_center_dimension():
    z3 = shared_context(3).center.dimension
    z4 = shared_context(4).center.dimension
    ok = z3 == 6 == len(upsilon(3)) and z4 == 9 == len(upsilon(4))
    _report(13, "center dimension", ok, f"dims=({z3}, {z4})")


@pytest.mark.slow
def test_criterion_14_block_profile():
    p3, p4 = block_profile(3), block_profile(4)
    ok = (
        2 * 4 + 2 * 16 + 36 + 64 == 140
        and p3.dimension_total == 140 == shared_context(3).terwilliger.dimension
        and p3.summand_count == 6 == shared_context(3).center.dimension
        and p4.dimension_total == 280 == shared_context(4).terwilliger.dimension
        and p4.summand_count == 9 == shared_context(4).center.dimension
    )
    _report(14, "block profile", ok, f"counts m=3 {p3.counts}, m=4 {p4.counts}")


def test_criterion_15_covering_map():
    ok = True
    for m in (1, 2, 3):
        results = verify_intertwining(m)
        ok = ok and all(results.values())
    _report(15, "covering map invariants and intertwining", ok)


def test_criterion_16_determinism():
    first = run(RunConfig(m=3))
    second = run(RunConfig(m=3))
    ok = len(first) == 16 and reports_without_elapsed(first) == reports_without_elapsed(second)
    _report(16, "deterministic reports", ok)
