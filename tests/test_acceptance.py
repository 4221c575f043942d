"""Acceptance suite: one test per contract criterion, with time budgets.

Each test prints a single PASS line naming the criterion when it
succeeds; a failure reads as the criterion number in the pytest output.
Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
verdict lines, or ``-s`` to see the PASS lines inline.
"""

import time

import pytest

from qdesigns import catalog
from qdesigns.designs import (
    derived_large_set,
    dual_large_set,
    residual_large_set,
    verify_design,
    verify_large_set,
)
from qdesigns.grassmann import (
    enumerate_grassmannian,
    full_space,
    span,
    standard_flag_subspace,
)
from qdesigns.groups import act, close_group, orbit_partition, trivial_group
from qdesigns.joins import (
    avoiding_join,
    extend_by_hyperplane,
    grassmann_decomposition,
    join_chain,
    materialize_cell,
)
from qdesigns.kramer_mesner import build_km, iterated_large_set_search
from qdesigns.planner import (
    CELL_STRENGTHS_MOD6,
    LSParams,
    admissible,
    generate_table,
    plan_series,
    realizable_by_series,
)

from oracles import intersection, subspace_sum
from test_planner import GRID_ROWS, clause_form


def gauss_oracle(v: int, k: int) -> int:
    """Independent Gaussian binomial: exact integer product formula."""
    if not 0 <= k <= v:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (v - i)) - 1
        den *= (1 << (k - i)) - 1
    assert num % den == 0
    return num // den


_CACHE: dict = {}


@pytest.fixture(scope="module")
def decoded():
    if "ls" not in _CACHE:
        t0 = time.monotonic()
        _CACHE["ls"] = catalog.builtin_large_set()
        _CACHE["decode_s"] = time.monotonic() - t0
    return _CACHE["ls"]


@pytest.fixture(scope="module")
def group():
    if "group" not in _CACHE:
        _CACHE["group"] = catalog.builtin_group()
    return _CACHE["group"]


@pytest.fixture(scope="module")
def km_2_4_system(group):
    if "km84" not in _CACHE:
        _CACHE["km84"] = build_km(8, 2, 4, group)
    return _CACHE["km84"]


def test_criterion_01_decode_and_verify_base_large_set(decoded):
    t0 = time.monotonic()
    ls = decoded
    assert ls.n == 3
    sizes = [len(d.blocks) for d in ls.designs]
    assert sizes == [66929, 66929, 66929]
    union = set()
    for d in ls.designs:
        union |= d.blocks
    assert len(union) == 200787 == sum(sizes)  # pairwise disjoint, full cover
    for d in ls.designs:
        assert (d.v, d.k, d.t, d.lam) == (8, 4, 2, 217)
        verify_design(d)  # exact per-t-subspace counting
    elapsed = _CACHE["decode_s"] + time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: three disjoint 2-(8,4,217) designs, union 200787 ({elapsed:.1f}s)")


def test_criterion_02_group_closure_and_orbit_sizes(group):
    t0 = time.monotonic()
    assert group.order == 204
    regen = close_group(group.generators)
    assert set(regen.elements) == set(group.elements)
    orbits = orbit_partition(8, 4, group)
    assert sum(orbits.sizes) == 200787
    assert all(204 % size == 0 for size in orbits.sizes)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 2 PASS: closure order 204, {orbits.n_orbits} orbit sizes all divide 204 ({elapsed:.1f}s)")


def test_criterion_03_designs_invariant_under_generators(decoded, group):
    t0 = time.monotonic()
    for d in decoded.designs:
        for g in group.generators:
            assert all(act(b, g) in d.blocks for b in d.blocks)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 3 PASS: each design fixed setwise by both generators ({elapsed:.1f}s)")


def test_criterion_04_transforms(decoded):
    t0 = time.monotonic()
    der = derived_large_set(decoded)  # verified inside
    assert (der.v, der.k, der.t, der.n) == (7, 3, 1, 3)
    rep = verify_large_set(der)
    assert rep.lam == 217 and rep.blocks_per_design == (3937,) * 3

    res = residual_large_set(decoded)
    assert (res.v, res.k, res.t, res.n) == (7, 4, 1, 3)
    rep = verify_large_set(res)
    assert rep.lam == 465 and rep.blocks_per_design == (3937,) * 3

    dua = dual_large_set(decoded)
    assert (dua.v, dua.k, dua.t, dua.n) == (8, 4, 2, 3)
    rep = verify_large_set(dua)
    assert rep.lam == 217

    _CACHE["derived"], _CACHE["residual"] = der, res
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 4 PASS: derived lam=217, residual lam=465, dual verified ({elapsed:.1f}s)")


def test_criterion_05_hyperplane_extension(decoded):
    t0 = time.monotonic()
    der = _CACHE.get("derived") or derived_large_set(decoded)
    res = _CACHE.get("residual") or residual_large_set(decoded)
    ext = extend_by_hyperplane(der, res)  # verified inside
    assert (ext.v, ext.k, ext.t, ext.n) == (8, 4, 1, 3)
    rep = verify_large_set(ext)
    assert rep.lam == 3937 and rep.blocks_per_design == (66929,) * 3
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 5 PASS: extension gives verified LS(1,4,8) lam=3937 ({elapsed:.1f}s)")


def test_criterion_06_decomposition_and_join_oracles():
    t0 = time.monotonic()
    # every flag decomposition for v <= 6 partitions the full Grassmannian
    for v in range(1, 7):
        for k in range(0, v + 1):
            for s in range(0, v - k):
                cells = grassmann_decomposition(v, k, s)
                union: set = set()
                total = 0
                for cell in cells:
                    mat = materialize_cell(cell)
                    total += len(mat)
                    union |= mat
                assert total == len(union) == gauss_oracle(v, k), (v, k, s)

    # joins match brute-force predicate filtering; exhaustive operand
    # pairs for v <= 5, capped deterministic sampling at v = 6
    checked = 0
    for v in range(2, 7):
        cap = None if v <= 5 else 8
        for u1d in range(v + 1):
            for u2d in range(u1d, v + 1):
                chain = join_chain(
                    standard_flag_subspace(v, u1d), standard_flag_subspace(v, u2d)
                )
                k1s = _all_subspaces(u1d)
                for k1_local in k1s[:cap]:
                    k1 = span(v, k1_local.rows)
                    k2s = [
                        s
                        for s in _all_subspaces(v)
                        if s.dim >= u2d and _contains_flag(s, chain.u2)
                    ]
                    for k2 in k2s[:cap]:
                        got = avoiding_join([k1], [k2], chain)
                        expect_n = 1 << ((u1d - k1.dim) * (k2.dim - u1d))
                        assert len(got) == expect_n
                        brute = {
                            s
                            for s in enumerate_grassmannian(v, k1.dim + k2.dim - u1d)
                            if intersection(s, chain.u1) == k1
                            and subspace_sum(s, chain.u2) == k2
                            and subspace_sum(s, chain.u1) == subspace_sum(s, chain.u2)
                        }
                        assert got == brute
                        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 6 PASS: decompositions partition (v<=6), {checked} joins match brute force ({elapsed:.1f}s)")


_SUBSPACE_POOL: dict[int, list] = {}


def _all_subspaces(v: int) -> list:
    if v not in _SUBSPACE_POOL:
        pool = []
        for k in range(v + 1):
            pool.extend(sorted(enumerate_grassmannian(v, k), key=lambda s: s.rows))
        _SUBSPACE_POOL[v] = pool
    return _SUBSPACE_POOL[v]


def _contains_flag(s, flag) -> bool:
    return all(r in s for r in flag.rows)


def test_criterion_07_km_systems_and_spread_search(km_2_4_system):
    t0 = time.monotonic()
    systems = [
        build_km(4, 1, 2, trivial_group(4)),
        build_km(3, 1, 2, close_group([_shift3()])),
        km_2_4_system,
    ]
    for system in systems:
        want = gauss_oracle(system.v - system.t, system.k - system.t)
        for row in system.matrix:
            assert sum(row) == want
        # weighted column identity: sum_i |T_i| a_ij = |K_j| * [k over t]
        kt = gauss_oracle(system.k, system.t)
        for j in range(system.n_cols):
            lhs = sum(
                system.t_orbits.sizes[i] * system.matrix[i][j]
                for i in range(system.n_rows)
            )
            assert lhs == system.k_orbits.sizes[j] * kt

    result = iterated_large_set_search(build_km(4, 1, 2, trivial_group(4)), 7)
    assert result.status == "solved"
    ls = result.large_set
    assert ls.n == 7 and all(len(d.blocks) == 5 for d in ls.designs)
    report = verify_large_set(ls)
    assert report.lam == 1  # a parallelism: every line in exactly one spread
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 7 PASS: row sums and weighted column identity hold; parallelism 7 x 5 found ({elapsed:.1f}s)")


def _shift3():
    from qdesigns.gf2 import BitMatrix

    return BitMatrix(3, (0b010, 0b100, 0b011))


def test_criterion_08_table_columns_solve_km_system(km_2_4_system):
    t0 = time.monotonic()
    system = km_2_4_system
    selections = []
    for index in (1, 2, 3):
        reps = catalog.builtin_orbit_representatives(index)
        cols = set()
        for rec in reps:
            sub = span(8, catalog.decode_quadruple(rec).rows)
            cols.add(system.k_orbits.orbit_index(sub))
        assert len(cols) == len(reps)  # one column per listed orbit
        selections.append(cols)
    assert selections[0] | selections[1] | selections[2] == set(range(system.n_cols))
    assert not (selections[0] & selections[1])
    assert not (selections[0] & selections[2])
    assert not (selections[1] & selections[2])
    for cols in selections:
        for i in range(system.n_rows):
            hit = sum(system.matrix[i][j] for j in cols)
            assert hit == 217
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 8 PASS: three disjoint exact lambda=217 solutions covering all {system.n_cols} columns ({elapsed:.1f}s)")


def test_criterion_09_realizability_table_and_condition():
    t0 = time.monotonic()
    grid = generate_table(40)
    for v, row in GRID_ROWS.items():
        cells = row.split()
        for idx, cell in enumerate(cells):
            assert grid[(v, idx + 3)] == cell, (v, idx + 3)

    # the residue condition, restated over 2 <= vbar < kbar <= 5, matches
    # the series realizability exactly
    for v in range(0, 201):
        for k in range(0, v + 1):
            want = clause_form(k, v) if v >= 8 else False
            assert realizable_by_series(k, v) == want, (k, v)

    p = LSParams(2, 3, 2, 6, 20)
    assert admissible(p) and not realizable_by_series(6, 20)
    assert grid[(20, 6)] == "?"  # admissible but open
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 9 PASS: 35-row grid matches, condition equivalence v<=200, (2,6,20) open ({elapsed:.1f}s)")


def test_criterion_10_series_plans_are_proof_shaped():
    t0 = time.monotonic()
    # full-scale rediscovery of the base large set and materialization of
    # series members with v >= 14 are out of desk-scale scope by design;
    # the plans for them must still be complete, well-founded trees whose
    # every decompose cell carries the right strength split
    targets = [
        (k, v)
        for v in range(8, 27)
        for k in range(3, v - 2)
        if realizable_by_series(k, v)
    ]
    assert (3, 14) in targets and (9, 20) in targets
    leaves_seen = set()
    for k, v in targets:
        plan = plan_series(k, v)
        for node in _walk(plan):
            if node.kind == "decompose":
                assert node.s == 5
                kk = node.params.k
                assert len(node.cell_strengths) == kk + 1
                for i, (t1, t2) in enumerate(node.cell_strengths):
                    assert (t1, t2) == CELL_STRENGTHS_MOD6[i % 6], (k, v, i)
                    assert t1 + t2 + 1 == 2
            elif node.kind == "hyperplane_extend":
                assert node.params.v in (9, 10)
            elif node.kind == "leaf_table":
                leaves_seen.add(
                    (node.params.t, node.params.k, node.params.v)
                )
    assert leaves_seen == {(2, 3, 8), (2, 4, 8)}
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 10 PASS: {len(targets)} series plans ground out in the two base leaves with correct cell strengths ({elapsed:.1f}s)")


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)
