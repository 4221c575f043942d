from __future__ import annotations

import random
import re
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesigns import designs, grassmann, groups
from qdesigns.catalog import builtin_large_set
from qdesigns.designs import (
    Design,
    LargeSet,
    VerificationError,
    derived_large_set,
    dual_large_set,
    large_set,
    large_set_lambda,
    read_design,
    read_large_set,
    residual_large_set,
    verify_design,
    verify_large_set,
    write_design,
    write_large_set,
)
from qdesigns.gf2 import BitMatrix, rref_raw
from qdesigns.grassmann import (
    QuotientFrame,
    Subspace,
    contains,
    enumerate_grassmannian,
    full_space,
    gaussian_binomial,
    grassmannian_unrank,
    span,
    standard_flag_subspace,
)
from qdesigns.groups import close_group, orbit_partition, trivial_group
from qdesigns.kramer_mesner import build_km, iterated_large_set_search

from oracles import (
    elimination_complement,
    orbit_of,
    verify_design_checking_shapes_first,
    verify_large_set_counting_all,
    zero_subspace,
)


def sort_pack_counts(blocks, v: int, t: int) -> dict[int, int]:
    """Independent oracle for designs._incidence_counts.

    Each t-subspace of a block is listed as its sorted nonzero vectors,
    packed into one int with v bits per vector, so it never relies on the
    blocks' rows being canonical.
    """
    blocks = list(blocks)
    if t == 0:
        return {0: len(blocks)} if blocks else {}
    counts: dict[int, int] = {}
    for block in blocks:
        table = block.vectors()
        for loc in enumerate_grassmannian(block.dim, t):
            vs = sorted(table[c] for c in loc.vectors()[1:])
            key = 0
            for g in vs:
                key = (key << v) | g
            counts[key] = counts.get(key, 0) + 1
    return counts


def unpack_to_rref(key: int, v: int) -> tuple[int, ...]:
    """RREF rows of the t-subspace behind an oracle key."""
    mask = (1 << v) - 1
    vecs = []
    while key:
        vecs.append(key & mask)
        key >>= v
    return rref_raw(vecs).rows


def oracle_counts(blocks, v: int, t: int) -> dict[tuple[int, ...], int]:
    packed = sort_pack_counts(blocks, v, t)
    out = {unpack_to_rref(key, v): c for key, c in packed.items()}
    assert len(out) == len(packed)
    return out


def trivial_design(v: int, k: int, t: int) -> Design:
    """The full Grassmannian as a single design."""
    lam = gaussian_binomial(v - t, k - t)
    return Design(v, k, t, lam, frozenset(enumerate_grassmannian(v, k)))


def chunked_large_set(v: int, k: int, n: int) -> LargeSet:
    """Equal-size chunks of the Grassmannian: a valid large set at t=0."""
    blocks = list(enumerate_grassmannian(v, k))
    assert len(blocks) % n == 0
    lam = large_set_lambda(v, k, 0, n)
    size = len(blocks) // n
    designs = tuple(
        Design(v, k, 0, lam, frozenset(blocks[i * size : (i + 1) * size]))
        for i in range(n)
    )
    return LargeSet(v, k, 0, n, designs)


def test_full_grassmannian_is_a_design():
    for v, k, t in [(4, 2, 1), (4, 2, 2), (5, 2, 1), (5, 3, 2), (6, 3, 2)]:
        d = trivial_design(v, k, t)
        assert verify_design(d) == d.lam


def test_verify_design_rejects_missing_block():
    d = trivial_design(4, 2, 1)
    block = next(iter(d.blocks))
    broken = Design(d.v, d.k, d.t, d.lam, d.blocks - {block})
    with pytest.raises(VerificationError):
        verify_design(broken)


def test_verify_design_rejects_uneven_cover():
    # same block count as a trivial design but a duplicate-shifted multiset
    d = trivial_design(4, 2, 1)
    blocks = sorted(d.blocks, key=lambda s: s.rows)
    broken = Design(4, 2, 1, d.lam, frozenset(blocks[:-1]))
    with pytest.raises(VerificationError):
        verify_design(broken)


def uneven_full_cover(v: int, k: int, t: int, lam: int) -> frozenset:
    """First k-block set in enumeration order with a design's block count
    that covers every t-subspace, but not all exactly lam times."""
    grass = list(enumerate_grassmannian(v, k))
    n = lam * gaussian_binomial(v, t) // gaussian_binomial(k, t)
    for blocks in combinations(grass, n):
        counts = oracle_counts(blocks, v, t)
        if len(counts) == gaussian_binomial(v, t) and set(counts.values()) != {lam}:
            return frozenset(blocks)
    raise LookupError("no such block set")


def test_verify_design_witness_is_a_subspace():
    blocks = uneven_full_cover(4, 2, 1, 2)
    with pytest.raises(VerificationError) as info:
        verify_design(Design(4, 2, 1, 2, blocks))
    w = info.value.witness
    assert w is not None and w.v == 4 and w.dim == 1
    assert w == span(4, w.rows)
    assert oracle_counts(blocks, 4, 1)[w.rows] != 2


def test_verify_design_uncovered_witness():
    # right block count, but the first 5 lines all miss some point
    blocks = frozenset(list(enumerate_grassmannian(4, 2))[:5])
    with pytest.raises(VerificationError, match="covered") as info:
        verify_design(Design(4, 2, 1, 1, blocks))
    w = info.value.witness
    assert w is not None and w.dim == 1
    assert w.rows not in oracle_counts(blocks, 4, 1)


def test_verify_design_rejects_non_rref_block():
    # (3, 2) spans the same plane as the canonical (1, 2); counted by sorted
    # vectors the design would still pass
    d = trivial_design(4, 2, 1)
    canonical = span(4, [1, 2])
    twin = Subspace(4, (3, 2))
    assert set(twin.vectors()) == set(canonical.vectors())
    assert oracle_counts(d.blocks - {canonical} | {twin}, 4, 1) == oracle_counts(d.blocks, 4, 1)
    bad = Design(4, 2, 1, d.lam, d.blocks - {canonical} | {twin})
    with pytest.raises(VerificationError, match="RREF") as info:
        verify_design(bad)
    assert info.value.witness == twin


@pytest.mark.parametrize("rows", [
    (3, 2), (2, 1), (1, 1), (0, 1), (1, 0), (5, 4),  # rows that are not in RREF
    (0, 0), (1, 16), (1, 255), (1, -2),  # a zero row, rows outside GF(2)^4
    (1, 2 | 16),  # a canonical block of GF(2)^4 once bit 4 is dropped
])
def test_verify_design_names_a_block_that_is_not_an_rref_basis(rows):
    d = trivial_design(4, 2, 1)
    block = Subspace(4, rows)
    for bad in (Design(4, 2, 1, d.lam, d.blocks - {span(4, [1, 2])} | {block}),
                Design(4, 2, 0, len(d.blocks), d.blocks - {span(4, [1, 2])} | {block})):
        with pytest.raises(VerificationError, match="RREF") as info:
            verify_design(bad)
        assert info.value.witness is block


def test_rows_outside_the_space_are_rejected():
    # three "points" of GF(2)^2 with one of them, 4, outside it: point 3 is
    # never covered, yet counting keys alone saw three points once each
    outside = Subspace(2, (4,))
    d = Design(2, 1, 1, 1, frozenset({Subspace(2, (1,)), Subspace(2, (2,)), outside}))
    with pytest.raises(VerificationError) as info:
        verify_design(d)
    assert info.value.witness is outside
    with pytest.raises(VerificationError) as info:
        verify_large_set(LargeSet(2, 1, 1, 1, (d,)))
    assert info.value.witness is outside
    # rows of two bytes: a bit in the second above v, a third byte, a negative row
    for wide in (Subspace(9, (2 | 1 << 10,)), Subspace(9, (1 << 16,)), Subspace(9, (-2,))):
        with pytest.raises(VerificationError, match="RREF") as info:
            verify_design(Design(9, 1, 0, 2, frozenset({Subspace(9, (2,)), wide})))
        assert info.value.witness is wide


def test_witness_is_found_inside_a_chunk(monkeypatch):
    monkeypatch.setattr(designs, "_COUNT_BATCH", 4)  # chunks of 4 blocks
    d = trivial_design(6, 3, 2)
    blocks = sorted(d.blocks)
    twin = Subspace(6, (blocks[100][1] ^ blocks[100][2],) + blocks[100][2:])
    with pytest.raises(VerificationError, match="RREF") as info:
        verify_design(Design(6, 3, 2, d.lam, d.blocks - {blocks[100]} | {twin}))
    assert info.value.witness is twin


def test_t0_design_of_v17_counts_without_a_point_table(monkeypatch):
    def no_points(*args):
        pytest.fail("t = 0 builds no point table")

    monkeypatch.setattr(designs, "_point_sets", no_points)
    assert verify_design(Design(17, 17, 0, 1, frozenset([full_space(17)]))) == 1
    lines = list(islice(enumerate_grassmannian(17, 2), 3000))
    assert verify_design(Design(17, 2, 0, 3000, frozenset(lines))) == 3000
    with pytest.raises(VerificationError, match="RREF") as info:
        verify_design(Design(17, 2, 0, 3000, frozenset(lines[1:] + [Subspace(17, (1, 2 | 1 << 17))])))
    assert info.value.witness == Subspace(17, (1, 2 | 1 << 17))


@st.composite
def one_dimension_block_sets(draw):
    """Canonical k-blocks of GF(2)^v, v <= 10, a strength t <= k with [v t] <= 5000, and a chunk cap."""
    v = draw(st.integers(1, 10))
    k = draw(st.integers(0, v))
    t = draw(st.sampled_from([t for t in range(k + 1) if gaussian_binomial(v, t) <= 5000]))
    ranks = st.integers(0, gaussian_binomial(v, k) - 1)
    blocks = [grassmannian_unrank(v, k, r) for r in draw(st.lists(ranks, max_size=12))]
    return v, k, t, blocks, draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(one_dimension_block_sets())
def test_incidence_counts_match_sort_pack_oracle(case):
    v, k, t, blocks, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_COUNT_BATCH", cap)  # chunks of cap blocks, so cuts fall inside the set
        counts = designs._incidence_counts(designs._chunks(blocks), v, t, k)
    assert len(counts) == gaussian_binomial(v, t)
    got = {s.rows: c for s, c in zip(enumerate_grassmannian(v, t), counts) if c}
    assert got == oracle_counts(blocks, v, t)


def test_verify_design_shape_checks():
    with pytest.raises(VerificationError):
        verify_design(Design(4, 2, 3, 1, frozenset()))
    bad_block = span(5, [1, 2])
    with pytest.raises(VerificationError):
        verify_design(Design(4, 2, 1, 1, frozenset([bad_block])))


def test_t0_design_counts_blocks():
    blocks = list(enumerate_grassmannian(4, 2))[:7]
    d = Design(4, 2, 0, 7, frozenset(blocks))
    assert verify_design(d) == 7


def test_incidence_counts_trivial_cover():
    counts = designs._incidence_counts(designs._chunks(enumerate_grassmannian(4, 2)), 4, 1, 2)
    assert counts == [gaussian_binomial(3, 1)] * gaussian_binomial(4, 1)


@pytest.mark.parametrize("v,k,t", [(4, 2, 1), (5, 2, 2), (6, 3, 1), (7, 3, 2)])
def test_incidence_counts_of_subspace_free_columns(v, k, t):
    # one chunk of the rows of every k-subspace, from the Grassmannian's row columns: no Subspace is built
    n = gaussian_binomial(v, k)
    counts = designs._incidence_counts([[(v,) * n, *grassmann._t_columns(v, k)]], v, t, k)
    assert counts == [gaussian_binomial(v - t, k - t)] * gaussian_binomial(v, t)


def test_large_set_lambda_divisibility():
    assert large_set_lambda(8, 4, 2, 3) == 217
    assert large_set_lambda(7, 3, 1, 3) == 217
    assert large_set_lambda(7, 4, 1, 3) == 465
    assert large_set_lambda(8, 4, 1, 3) == 3937
    with pytest.raises(VerificationError):
        large_set_lambda(7, 3, 2, 3)  # 3 does not divide 31
    with pytest.raises(VerificationError, match="N >= 1"):
        large_set_lambda(4, 2, 0, 0)  # a manifest may declare N=0


def test_chunked_large_set_verifies_at_t0():
    ls = chunked_large_set(4, 2, 5)
    report = verify_large_set(ls)
    assert report.lam == 7
    assert report.blocks_per_design == (7, 7, 7, 7, 7)
    assert report.grassmannian_size == 35


def test_verify_large_set_rejects_overlap():
    ls = chunked_large_set(4, 2, 5)
    designs = list(ls.designs)
    designs[1] = designs[0]
    with pytest.raises(VerificationError, match="designs 0 and 1 overlap") as info:
        verify_large_set(LargeSet(4, 2, 0, 5, tuple(designs)))
    assert info.value.witness == min(designs[0].blocks)


def test_large_set_wraps_parts_with_lambda():
    blocks = list(enumerate_grassmannian(4, 2))
    parts = [frozenset(blocks[i * 7 : (i + 1) * 7]) for i in range(5)]
    ls = large_set(4, 2, 0, parts)
    assert ls == chunked_large_set(4, 2, 5)
    assert all(d.blocks is p for d, p in zip(ls.designs, parts))  # not copied
    assert large_set(4, 2, 0, (iter(p) for p in parts)) == ls


def test_large_set_rejects_bad_parameters():
    with pytest.raises(ValueError, match="t >= 0"):
        large_set(2, 1, -1, [frozenset()])
    with pytest.raises(VerificationError, match="N=4 does not divide"):
        large_set(4, 2, 0, [frozenset()] * 4)


def test_verify_large_set_rejects_wrong_n():
    ls = chunked_large_set(4, 2, 5)
    with pytest.raises(VerificationError):
        verify_large_set(LargeSet(4, 2, 0, 4, ls.designs))


@lru_cache(maxsize=None)
def small_large_set(name: str) -> LargeSet:
    """A valid large set to break: a parallelism LS_2[7](1,2,4), one at t = 0, or Gr(5,2) alone at t = 2."""
    if name == "t1":
        return iterated_large_set_search(build_km(4, 1, 2, trivial_group(4)), 7).large_set
    if name == "t0":
        return chunked_large_set(4, 2, 5)
    return LargeSet(5, 2, 2, 1, (trivial_design(5, 2, 2),))


def _with_design(ls: LargeSet, i: int, **fields) -> LargeSet:
    designs = list(ls.designs)
    designs[i] = replace(designs[i], **fields)
    return replace(ls, designs=tuple(designs))


def _least(ls: LargeSet, i: int) -> Subspace:
    return min(ls.designs[i].blocks)


def _swapped(ls: LargeSet, i: int, block) -> LargeSet:
    """Design i with its least block replaced by block."""
    return _with_design(ls, i, blocks=ls.designs[i].blocks - {_least(ls, i)} | {block})


def _unreduced(b: Subspace) -> Subspace:
    """The block's span with its first row replaced by the sum of its first two: not RREF."""
    return Subspace(b.v, (b[1] ^ b[2],) + b.rows[1:])


BREAKS = {
    "unbroken": lambda ls: ls,
    "last holds a block of design 1": lambda ls: _swapped(ls, -1, _least(ls, 0)),
    "last misses a block": lambda ls: _with_design(ls, -1, blocks=ls.designs[-1].blocks - {_least(ls, -1)}),
    "last holds a non-RREF tuple": lambda ls: _swapped(ls, -1, _unreduced(_least(ls, -1))),
    "last has a wrong v field": lambda ls: _with_design(ls, -1, v=ls.v + 1),
    "last holds a block of the wrong v": lambda ls: _swapped(ls, -1, Subspace(ls.v + 1, _least(ls, -1).rows)),
    "last declares a wrong lambda": lambda ls: _with_design(ls, -1, lam=ls.designs[-1].lam + 1),
    "a middle design is broken": lambda ls: _swapped(ls, ls.n // 2, _least(ls, -1)),
}


def _outcome(verify, ls):
    try:
        return verify(ls)
    except Exception as e:  # compared with the oracle's: type, message and witness
        return type(e), str(e), getattr(e, "witness", None)


@pytest.mark.parametrize("base", ["t1", "t0", "n1"])
@pytest.mark.parametrize("case", list(BREAKS))
def test_verify_large_set_fails_as_counting_every_design_does(base, case):
    # counting N - 1 designs raises what counting all N raises first, and the same report when none fails
    ls = BREAKS[case](small_large_set(base))
    want = _outcome(verify_large_set_counting_all, ls)
    assert _outcome(verify_large_set, ls) == want
    if case != "unbroken" and base != "n1":  # with N = 1 the last design is design 1, so two breaks change nothing
        assert not isinstance(want, designs.LargeSetReport), "each break must be caught"


SHAPE_BREAKS = {
    "short block": lambda b: Subspace(b.v, b.rows[:-1]),
    "long block": lambda b: Subspace(b.v, b.rows + b.rows[:1]),
    "wrong v field": lambda b: Subspace(b.v + 1, b.rows),
    "non-RREF block": _unreduced,
}


def _broken_late(d: Design, brk, chunk: int) -> Design:
    """d with one block b replaced by brk(b), which iterates at position chunk or later: in a later chunk."""
    for b in sorted(d.blocks):
        blocks = d.blocks - {b} | {brk(b)}
        if list(blocks).index(brk(b)) >= chunk:
            return replace(d, blocks=blocks)
    raise AssertionError("no replacement iterates late enough")


@pytest.mark.parametrize("base", ["t1", "t0", "n1", "gr63"])
@pytest.mark.parametrize("case", list(SHAPE_BREAKS))
def test_fused_shape_checks_fail_as_checking_shapes_first(base, case, monkeypatch):
    # shape, RREF rows and counts come from one transposition per chunk; a broken block in a later chunk, of a
    # counted design or of the uncounted last one, raises what checking every block's shape first raises
    ls = chunked_large_set(6, 3, 5) if base == "gr63" else small_large_set(base)
    chunk = 2
    monkeypatch.setattr(designs, "_COUNT_BATCH", chunk)
    counted = _broken_late(ls.designs[0], SHAPE_BREAKS[case], chunk)
    want = _outcome(verify_design_checking_shapes_first, counted)
    assert want[0] is VerificationError
    assert _outcome(verify_design, counted) == want
    broken = _with_design(ls, -1, blocks=_broken_late(ls.designs[-1], SHAPE_BREAKS[case], chunk).blocks)
    want = _outcome(verify_large_set_counting_all, broken)
    assert want[0] is VerificationError
    assert _outcome(verify_large_set, broken) == want


@pytest.mark.parametrize("case", [
    "a short block and one block too many",
    "a long block and one block too few",
    "a wrong v field and a lambda no design has",
    "every block short",
    "a non-RREF block first, a short block last",
])
def test_wrong_shape_is_named_before_any_other_failure(case, monkeypatch):
    monkeypatch.setattr(designs, "_COUNT_BATCH", 2)  # chunks of 2 blocks
    d = trivial_design(5, 2, 2)
    least = min(d.blocks)
    if case == "a short block and one block too many":
        d = replace(d, blocks=d.blocks | {Subspace(5, least.rows[:1])})
    elif case == "a long block and one block too few":
        d = replace(d, blocks=d.blocks - {least, max(d.blocks)} | {Subspace(5, least.rows + (16,))})
    elif case == "a wrong v field and a lambda no design has":
        d = replace(d, lam=2, blocks=d.blocks - {least} | {Subspace(6, least.rows)})
    elif case == "every block short":  # the right block count, and each block alike
        d = replace(d, blocks=frozenset(Subspace(5, b.rows[:1]) for b in d.blocks))
    else:  # the non-RREF block in the first chunk, the short one in a later chunk
        d = next(e for a, b in combinations(sorted(d.blocks), 2)
                 for e in [replace(d, blocks=d.blocks - {a, b} | {_unreduced(a), Subspace(5, b.rows[:1])})]
                 if list(e.blocks).index(_unreduced(a)) < 2 <= list(e.blocks).index(Subspace(5, b.rows[:1])))
    want = _outcome(verify_design_checking_shapes_first, d)
    assert want[0] is VerificationError and want[1].startswith("block has wrong shape")
    assert _outcome(verify_design, d) == want
    ls = LargeSet(5, 2, 2, 1, (d,))
    assert _outcome(verify_large_set, ls) == _outcome(verify_large_set_counting_all, ls)


def test_t_columns_built_once_per_v_and_t():
    grassmann._t_columns.cache_clear()
    d = trivial_design(5, 2, 2)
    assert verify_design(d) == verify_design(d) == d.lam
    assert grassmann._t_columns.cache_info().misses == 1


def test_every_block_stream_is_cut_at_count_batch(tmp_path, monkeypatch):
    # one chunk size for every v and k: _chunks, _incidences, read_design's lines and both orbit functions
    monkeypatch.setattr(designs, "_COUNT_BATCH", 4)
    for v, k in [(4, 1), (5, 2), (6, 4)]:
        blocks = list(islice(enumerate_grassmannian(v, k), 10))
        assert [len(cols[0]) for cols in designs._chunks(blocks)] == [4, 4, 2]
        assert [start for start, _ in designs._incidences(designs._chunks(blocks), v, 1, k)] == [0, 4, 8]
    path = tmp_path / "d.txt"
    path.write_text("q=2 v=4 k=1 t=0 lambda=10\n" + "\n".join(str(1 << i) for i in range(4)) + "\n3\n5\n")
    reads = []
    monkeypatch.setattr(designs, "_rref_chunk", lambda chunk, v, k: reads.append(len(chunk)))
    assert len(read_design(path).blocks) == 6 and reads == [4, 2]
    group = close_group([BitMatrix(4, (2, 4, 8, 1))])  # the cyclic shift of 4 coordinates: |G| = 4
    reps = list(islice(enumerate_grassmannian(4, 2), 5))
    want = [orbit_of(rep, group) for rep in reps]
    calls = []
    images = groups._images
    monkeypatch.setattr(groups, "_images", lambda reps, g: calls.append(len(reps)) or images(reps, g))
    monkeypatch.setattr(designs, "_COUNT_BATCH", 2 * group.order)  # two representatives per _images call
    assert list(groups.orbits(reps, group)) == want
    assert calls == [2, 2, 1]
    calls.clear()
    orbit_partition(4, 2, group)
    assert max(calls) == 2 and len(calls) > 2


def test_verify_large_set_counts_all_but_the_last_design(monkeypatch):
    # the base LS_2[3](2,4,8): designs 1 and 2 are counted at t = 2, design 3 only checked as RREF blocks
    ls, strengths = builtin_large_set(), []
    counts = designs._incidence_counts

    def recording(chunks, v, t, k):
        strengths.append(t)
        return counts(chunks, v, t, k)

    monkeypatch.setattr(designs, "_incidence_counts", recording)
    assert verify_large_set(ls).lam == 217
    assert strengths == [2, 2, 0]


@pytest.mark.parametrize("make", [
    lambda b: sorted(b)[1:] + [max(b)],  # repeats one block and misses another: the sizes still sum to [v k]
    tuple,
    lambda b: dict.fromkeys(b).keys(),
], ids=["list_with_a_repeat", "tuple", "keys_view"])
def test_design_blocks_must_be_a_set(make):
    # verify_large_set leaves the last design uncounted because a set's blocks are distinct
    d = trivial_design(4, 2, 0)
    with pytest.raises(TypeError, match="set or frozenset"):
        Design(4, 2, 0, d.lam, make(d.blocks))
    with pytest.raises(TypeError, match="set or frozenset"):
        replace(d, blocks=make(d.blocks))
    assert Design(4, 2, 0, d.lam, set(d.blocks)).blocks == d.blocks


def test_transforms_on_trivial_large_set():
    # N=1 large set: the full Grassmannian; transforms give full Grassmannians
    v, k, t = 6, 3, 2
    ls = LargeSet(v, k, t, 1, (trivial_design(v, k, t),))
    der = derived_large_set(ls)
    assert (der.v, der.k, der.t) == (5, 2, 1)
    assert len(der.designs[0].blocks) == gaussian_binomial(5, 2)
    res = residual_large_set(ls)
    assert (res.v, res.k, res.t) == (5, 3, 1)
    assert len(res.designs[0].blocks) == gaussian_binomial(5, 3)
    dua = dual_large_set(ls)
    assert (dua.v, dua.k, dua.t) == (6, 3, 2)
    assert len(dua.designs[0].blocks) == gaussian_binomial(6, 3)


def test_transforms_require_strength():
    ls = chunked_large_set(4, 2, 5)  # t=0 cannot drop
    with pytest.raises(ValueError):
        derived_large_set(ls)
    with pytest.raises(ValueError):
        residual_large_set(ls)


def five_chunks_of_gr52() -> LargeSet:
    # t = 1 declared and left unverified: the transforms only filter and map blocks
    v, k, n = 5, 2, 5
    blocks = sorted(enumerate_grassmannian(v, k))
    size = len(blocks) // n
    parts = [frozenset(blocks[i * size : (i + 1) * size]) for i in range(n)]
    return LargeSet(v, k, 1, n, tuple(Design(v, k, 1, 0, p) for p in parts))


@pytest.mark.parametrize("ls,chunk", [
    pytest.param(five_chunks_of_gr52(), None, id="five_chunks"),
    pytest.param(LargeSet(6, 3, 2, 1, (trivial_design(6, 3, 2),)), None, id="n1"),
    pytest.param(five_chunks_of_gr52(), 3, id="five_chunks-chunks_of_3"),
    pytest.param(LargeSet(6, 3, 2, 1, (trivial_design(6, 3, 2),)), 4, id="n1-chunks_of_4"),
])
def test_derived_and_residual_match_quotient_frame_oracle(ls, chunk, monkeypatch):
    # oracle: a contains filter, then elimination into QuotientFrame coordinates
    if chunk:  # blocks per chunk; parts of 31 and 1395 blocks end in a partial chunk
        monkeypatch.setattr(designs, "_COUNT_BATCH", chunk)
    v = ls.v
    point, hyperplane = span(v, [1]), standard_flag_subspace(v, v - 1)
    through = QuotientFrame(full_space(v), point)
    inside = QuotientFrame(hyperplane, zero_subspace(v))
    parts = [d.blocks for d in ls.designs]
    der = derived_large_set(ls, verify=False)
    assert [d.blocks for d in der.designs] == [
        {through.project(b) for b in p if contains(b, point)} for p in parts
    ]
    res = residual_large_set(ls, verify=False)
    assert [d.blocks for d in res.designs] == [
        {inside.project(b) for b in p if contains(hyperplane, b)} for p in parts
    ]
    assert sum(len(d.blocks) for d in der.designs) == gaussian_binomial(v - 1, ls.k - 1)
    assert sum(len(d.blocks) for d in res.designs) == gaussian_binomial(v - 1, ls.k)


def whole_grassmannian(v: int, k: int) -> LargeSet:
    return LargeSet(v, k, 0, 1, (trivial_design(v, k, 0),))


@pytest.mark.parametrize("chunk", [None, 3], ids=["default_chunks", "chunks_of_3"])
def test_dual_matches_elimination_oracle_on_whole_grassmannians(chunk, monkeypatch):
    # every 0 <= k <= v <= 6, the zero space and the full space included
    for v in range(7):
        for k in range(v + 1):
            if chunk:
                monkeypatch.setattr(designs, "_COUNT_BATCH", chunk)
            ls = whole_grassmannian(v, k)
            out = dual_large_set(ls)  # verified: a large set with N = 1 again
            assert (out.v, out.k, out.t, out.n) == (v, v - k, 0, 1)
            assert out.designs[0].blocks == {elimination_complement(b) for b in ls.designs[0].blocks}


@pytest.mark.parametrize("chunk", [None, 3], ids=["default_chunks", "chunks_of_3"])
def test_dual_of_a_part_mixing_dimensions(chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(designs, "_COUNT_BATCH", chunk)
    v = 5
    lines, planes = list(enumerate_grassmannian(v, 2)), list(enumerate_grassmannian(v, 3))
    part = frozenset(lines[::3] + planes[::5])  # interleaved once iterated
    ls = LargeSet(v, 2, 0, 1, (Design(v, 2, 0, gaussian_binomial(v, 2), part),))
    out = dual_large_set(ls, verify=False)
    assert out.designs[0].blocks == {elimination_complement(b) for b in part}
    with pytest.raises(VerificationError, match="block has wrong shape"):
        dual_large_set(ls)


def test_chunks_are_columns_of_one_dimension_in_stream_order(monkeypatch):
    # cuts of 4 blocks of any dimension
    monkeypatch.setattr(designs, "_COUNT_BATCH", 4)
    v = 4
    lines, points = list(enumerate_grassmannian(v, 2)), list(enumerate_grassmannian(v, 1))
    zeros = [zero_subspace(v)] * 15
    assert list(designs._chunks(lines)) == [list(zip(*lines[i:i + 4])) for i in range(0, len(lines), 4)]
    stream = [b for triple in zip(lines, points, zeros) for b in triple] + lines[15:]
    chunks = list(designs._chunks(stream))
    for cols in chunks:
        assert cols[0] == (v,) * len(cols[0]) and len(set(map(len, cols))) == 1
        assert len(cols[0]) <= 4
    for members in (lines, points, zeros):
        assert [b for cols in chunks if len(cols) == len(members[0]) for b in zip(*cols)] == members


def test_design_file_roundtrip(tmp_path):
    d = trivial_design(4, 2, 1)
    path = tmp_path / "d.txt"
    write_design(path, d)
    back = read_design(path)
    assert back == d
    first = path.read_text().splitlines()[0]
    assert first == "q=2 v=4 k=2 t=1 lambda=7"


def test_k0_design_file_roundtrip(tmp_path):
    # the one block of a k = 0 design is the zero subspace, written as 0
    d = Design(3, 0, 0, 1, frozenset([zero_subspace(3)]))
    path = tmp_path / "d.txt"
    write_design(path, d)
    assert path.read_text().splitlines()[1:] == ["0"]
    assert read_design(path) == d
    path.write_text("q=2 v=3 k=0 t=0 lambda=1\n0\n0\n")
    with pytest.raises(ValueError, match="repeats"):
        read_design(path)
    path.write_text("q=2 v=3 k=0 t=0 lambda=1\n1\n")
    with pytest.raises(ValueError, match="1 rows"):
        read_design(path)


def test_design_file_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q=2 v=4 k=2 t=1 lambda=7\n1 2 3\n")
    with pytest.raises(ValueError):
        read_design(path)
    path.write_text("q=2 v=4 k=2 t=1 lambda=7\n3 3\n")
    with pytest.raises(ValueError):
        read_design(path)
    path.write_text("q=3 v=4 k=2 t=1 lambda=7\n")
    with pytest.raises(ValueError):
        read_design(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_design(path)


@pytest.mark.parametrize("line", ["1 16", "1 -2", "-1 2", "0 2", "2 2"])
def test_design_file_rejects_rows_outside_or_dependent(tmp_path, line):
    # (1, -2) passes the RREF pivot test, so the reader must range-check
    path = tmp_path / "bad.txt"
    path.write_text(f"q=2 v=4 k=2 t=0 lambda=1\n{line}\n")
    with pytest.raises(ValueError):
        read_design(path)


def test_design_file_canonicalizes_other_bases(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("q=2 v=4 k=2 t=0 lambda=2\n3 2\n12 4\n")
    assert read_design(path).blocks == {span(4, [3, 2]), span(4, [12, 4])}
    assert {b.rows for b in read_design(path).blocks} == {(1, 2), (4, 8)}


def test_write_design_rejects_block_of_wrong_dimension(tmp_path):
    d = Design(4, 2, 0, 2, frozenset([span(4, [1, 2]), span(4, [4])]))
    with pytest.raises(ValueError, match="do not span a 2-subspace"):
        write_design(tmp_path / "d.txt", d)


def test_write_design_rejects_block_of_another_v(tmp_path):
    # its line, 8, does not fit in 3 coordinates, so read_design would refuse the file
    outside = Subspace(4, [8])
    d = Design(3, 1, 0, 2, {span(3, [1]), outside})
    with pytest.raises(ValueError, match=re.escape(f"block {outside}: its rows do not span a 1-subspace of GF(2)^3")):
        write_design(tmp_path / "d.txt", d)
    assert not (tmp_path / "d.txt").exists()


def test_design_file_rejects_repeated_block(tmp_path):
    # a 1-(5,2,15) design file with 156 block lines for its 155 blocks
    d = trivial_design(5, 2, 1)
    assert (d.lam, len(d.blocks)) == (15, 155)
    path = tmp_path / "dup.txt"
    write_design(path, d)
    lines = path.read_text().splitlines()
    lines.insert(40, lines[7])
    path.write_text("\n".join(lines) + "\n")
    assert len(lines) == 1 + 156
    with pytest.raises(ValueError, match=f"block 40 repeats block 7, the span of rows {lines[7]}$"):
        read_design(path)


def test_design_file_rejects_repeated_block_in_another_basis(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("q=2 v=3 k=2 t=0 lambda=2\n1 2\n3 2\n")
    with pytest.raises(ValueError, match="repeats block 1"):
        read_design(path)


def test_design_file_read_in_chunks(tmp_path, monkeypatch):
    # lines are read in chunks of _COUNT_BATCH, here 4096, so line 4501 is in the second
    monkeypatch.setattr(designs, "_COUNT_BATCH", 4096)
    blocks = list(islice(enumerate_grassmannian(8, 4), 5000))
    lines = [" ".join(map(str, b.rows)) for b in blocks]
    path = tmp_path / "d.txt"

    def read(changed: dict[int, str]) -> Design:
        body = [changed.get(i, ln) for i, ln in enumerate(lines)]
        path.write_text("q=2 v=8 k=4 t=0 lambda=1\n" + "\n".join(body) + "\n")
        return read_design(path)

    a, b, c, d = blocks[4500].rows
    other_basis = read({4500: f"{a ^ b} {b} {c} {d}"})  # not RREF, so canonicalized
    assert other_basis.blocks == frozenset(blocks)
    assert {s.rows for s in other_basis.blocks} == {s.rows for s in blocks}
    with pytest.raises(ValueError, match=re.escape(f"block rows are dependent: {[a, b, c, a ^ b]}")):
        read({4500: f"{a} {b} {c} {a ^ b}"})
    with pytest.raises(ValueError, match=f"block 4501 repeats block 11, the span of rows {lines[10]}$"):
        read({4500: lines[10]})


def test_design_file_reports_its_first_bad_line(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("q=2 v=4 k=2 t=0 lambda=1\n1 2\n3 3\n1 x\n")
    with pytest.raises(ValueError, match="dependent"):
        read_design(path)


def test_design_file_of_one_block_wider_than_a_chunk(tmp_path):
    # one line of 17 rows
    d = Design(17, 17, 0, 1, frozenset([full_space(17)]))
    path = tmp_path / "d.txt"
    write_design(path, d)
    assert read_design(path) == d


def test_large_set_file_roundtrip(tmp_path):
    ls = chunked_large_set(4, 2, 5)
    manifest = tmp_path / "ls.txt"
    write_large_set(manifest, ls)
    back = read_large_set(manifest)
    assert back == ls
    assert manifest.read_text().splitlines()[0] == "q=2 v=4 k=2 t=0 N=5 lambda=7"


def test_write_large_set_writes_named_members(tmp_path):
    ls = chunked_large_set(4, 2, 5)
    names = [f"member{i}.txt" for i in range(5)]
    write_large_set(tmp_path / "ls.txt", ls, names)
    assert (tmp_path / "ls.txt").read_text().splitlines()[1:] == names
    for name, d in zip(names, ls.designs):
        assert read_design(tmp_path / name) == d
    assert read_large_set(tmp_path / "ls.txt") == ls


def test_write_large_set_rejects_wrong_name_count(tmp_path):
    ls = chunked_large_set(4, 2, 5)
    with pytest.raises(ValueError, match="4 design paths given, N=5"):
        write_large_set(tmp_path / "ls.txt", ls, [f"member{i}.txt" for i in range(4)])
    assert list(tmp_path.iterdir()) == []


def test_large_set_manifest_rejects_wrong_lambda(tmp_path):
    ls = LargeSet(4, 2, 1, 1, (trivial_design(4, 2, 1),))
    manifest = tmp_path / "ls.txt"
    write_large_set(manifest, ls)
    text = manifest.read_text()
    assert text.startswith("q=2 v=4 k=2 t=1 N=1 lambda=7\n")
    manifest.write_text(text.replace("lambda=7", "lambda=997"))
    message = f"{manifest}: header declares lambda=997, N=1 needs 7"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_large_set(manifest)


def test_large_set_manifest_rejects_q_other_than_2(tmp_path):
    manifest = tmp_path / "ls.txt"
    write_large_set(manifest, chunked_large_set(4, 2, 5))
    manifest.write_text(manifest.read_text().replace("q=2", "q=3"))
    with pytest.raises(ValueError, match=re.escape(f"{manifest}: only q=2")):
        read_large_set(manifest)


@pytest.mark.parametrize("token", ["v=x", "v=", "v=4.0"])
def test_header_value_errors_name_the_file(tmp_path, token):
    manifest = tmp_path / "ls.txt"
    write_large_set(manifest, chunked_large_set(4, 2, 5))
    member = tmp_path / "ls_design1.txt"
    for path, reader in ((manifest, read_large_set), (member, read_design)):
        path.write_text(path.read_text().replace("v=4", token, 1))
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad header token {token!r}")):
            reader(path)


@pytest.mark.parametrize("fields,message", [
    pytest.param("v=4 k=5 t=0", "got t=0 k=5 v=4", id="k=5"),
    pytest.param("v=4 k=-1 t=0", "got t=0 k=-1 v=4", id="k=-1"),
    pytest.param("v=4 k=2 t=05", "got t=5 k=2 v=4", id="t=05"),
    pytest.param("v=4 k=2 t=-1", "got t=-1 k=2 v=4", id="t=-1"),
    pytest.param("v=-1 k=-1 t=-1", "got t=-1 k=-1 v=-1", id="v=-1"),
])
def test_headers_with_impossible_parameters_are_refused(tmp_path, fields, message):
    # the block line below would fail on its own; the header must fail first
    design, manifest = tmp_path / "d.txt", tmp_path / "ls.txt"
    design.write_text(f"q=2 {fields} lambda=1\nnot a block\n")
    manifest.write_text(f"q=2 {fields} N=1\nmissing.txt\n")
    for path, reader in ((design, read_design), (manifest, read_large_set)):
        with pytest.raises(ValueError, match=re.escape(f"{path}: header needs 0 <= t <= k <= v, {message}")):
            reader(path)


def test_negative_lambda_header_is_refused(tmp_path):
    design, manifest = tmp_path / "d.txt", tmp_path / "ls.txt"
    design.write_text("q=2 v=4 k=2 t=1 lambda=-7\nnot a block\n")
    manifest.write_text("q=2 v=4 k=2 t=1 N=1 lambda=-7\nmissing.txt\n")
    for path, reader in ((design, read_design), (manifest, read_large_set)):
        with pytest.raises(ValueError, match=re.escape(f"{path}: header declares lambda=-7, which is negative")):
            reader(path)


def test_unknown_header_key_is_refused(tmp_path):
    design, manifest = tmp_path / "d.txt", tmp_path / "ls.txt"
    design.write_text("q=2 v=4 k=2 t=1 lambda=7 N=1\nnot a block\n")
    manifest.write_text("q=2 v=4 k=2 t=1 N=1 lambdal=7\nmissing.txt\n")
    for path, reader, key in ((design, read_design, "N"), (manifest, read_large_set, "lambdal")):
        with pytest.raises(ValueError, match=re.escape(f"{path}: header has unknown key {key}=")):
            reader(path)


def test_repeated_header_key_names_the_file_and_key(tmp_path):
    manifest = tmp_path / "ls.txt"
    write_large_set(manifest, chunked_large_set(4, 2, 5))
    member = tmp_path / "ls_design1.txt"
    for path, reader in ((manifest, read_large_set), (member, read_design)):
        header, _, rest = path.read_text().partition("\n")
        path.write_text(f"{header} v=5\n{rest}")
        with pytest.raises(ValueError, match=re.escape(f"{path}: header repeats v=")):
            reader(path)


def test_large_set_file_header_mismatch(tmp_path):
    ls = chunked_large_set(4, 2, 5)
    manifest = tmp_path / "ls.txt"
    write_large_set(manifest, ls)
    text = manifest.read_text().replace("k=2", "k=3")
    manifest.write_text(text)
    with pytest.raises(ValueError):
        read_large_set(manifest)


def test_random_small_design_search_consistency():
    # sanity: counting by blocks agrees with counting by containment
    rng = random.Random(31)
    blocks = rng.sample(sorted(enumerate_grassmannian(5, 2), key=lambda s: s.rows), 40)
    counts = designs._incidence_counts(designs._chunks(blocks), 5, 1, 2)
    assert sum(counts) == len(blocks) * gaussian_binomial(2, 1)
