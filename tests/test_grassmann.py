from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
from functools import lru_cache, reduce
from itertools import combinations, groupby, islice, zip_longest
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdesigns.designs import Design, verify_design
from qdesigns.gf2 import rref_raw
from qdesigns.grassmann import (
    QuotientFrame,
    Subspace,
    VerificationError,
    _canonical,
    _complements,
    _nogc,
    _ranks,
    contains,
    enumerate_grassmannian,
    full_space,
    gaussian_binomial,
    grassmannian_rank,
    grassmannian_unrank,
    orthogonal_complement,
    reduce_vector,
    span,
    standard_flag_subspace,
)

from oracles import (
    elimination_complement,
    grassmannian_by_free_cells,
    intersection,
    lift_preimage,
    subspace_sum,
    zero_subspace,
)


def brute_subspace_count(v: int, k: int) -> int:
    """Count k-subspaces of GF(2)^v by brute force over row sets."""
    seen = set()
    vectors = range(1, 1 << v)
    for rows in combinations(vectors, k):
        res = rref_raw(rows)
        if len(res.rows) == k:
            seen.add(res.rows)
    return len(seen)


def random_subspace(rng: random.Random, v: int, k: int) -> Subspace:
    while True:
        s = span(v, [rng.randrange(1 << v) for _ in range(k)])
        if s.dim == k:
            return s


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(6, 2) == 651
    assert gaussian_binomial(6, 3) == 1395
    assert gaussian_binomial(7, 3) == 11811
    assert gaussian_binomial(8, 2) == 10795
    assert gaussian_binomial(8, 4) == 200787
    assert gaussian_binomial(5, 1) == 31
    assert gaussian_binomial(13, 1, q=3) == (3**13 - 1) // 2


def test_gaussian_binomial_edges():
    assert gaussian_binomial(5, 0) == 1
    assert gaussian_binomial(0, 0) == 1
    assert gaussian_binomial(5, 5) == 1
    assert gaussian_binomial(5, 6) == 0
    assert gaussian_binomial(5, -1) == 0


def test_gaussian_binomial_symmetry_and_brute_force():
    for v in range(6):
        for k in range(v + 1):
            assert gaussian_binomial(v, k) == gaussian_binomial(v, v - k)
            if 1 <= k <= 3:
                assert gaussian_binomial(v, k) == brute_subspace_count(v, k)


def test_span_canonicalizes():
    a = span(4, [0b0011, 0b0101])
    b = span(4, [0b0110, 0b0101])
    assert a == b
    assert a.dim == 2
    assert span(4, [0b0011, 0b0011]).dim == 1


def test_span_rejects_out_of_range_rows():
    with pytest.raises(ValueError):
        span(3, [0b1000])


def test_subspace_vectors_and_membership():
    s = span(4, [0b0011, 0b1100])
    vecs = s.vectors()
    assert len(vecs) == 4
    assert set(vecs) == {0, 0b0011, 0b1100, 0b1111}
    assert 0b1111 in s
    assert 0b0001 not in s


def test_enumerate_counts_match_gaussian():
    for v in range(7):
        for k in range(v + 2):
            got = list(enumerate_grassmannian(v, k))
            assert len(got) == gaussian_binomial(v, k)
            assert len(set(got)) == len(got)


def test_enumerate_yields_canonical_rows():
    for s in enumerate_grassmannian(5, 2):
        assert span(5, s.rows) == s
        assert rref_raw(s.rows).rows == s.rows


def test_enumerate_order_is_stable():
    first = list(enumerate_grassmannian(5, 2))[:5]
    again = list(enumerate_grassmannian(5, 2))[:5]
    assert first == again
    # first pivot set is (0, 1); with no free entries set, rows are e0, e1
    assert first[0] == span(5, [1, 2])


def test_rank_is_the_enumeration_position():
    for v in range(7):
        for k in range(v + 1):
            for position, s in enumerate(enumerate_grassmannian(v, k)):
                assert grassmannian_rank(v, k, s.rows) == position
                assert grassmannian_unrank(v, k, position) == s
            assert position == gaussian_binomial(v, k) - 1


@pytest.mark.parametrize(
    "v, k, n",
    [(v, k, None) for v in range(8) for k in range(v + 1)] + [(9, 4, 5000), (10, 3, 5000)],
)
def test_enumeration_rank_and_unrank_match_free_cell_oracle(v, k, n):
    """The first n blocks (all when n is None) in the oracle's order, block for block."""
    got = islice(enumerate_grassmannian(v, k), n)
    want = islice(grassmannian_by_free_cells(v, k), n)
    for position, (s, w) in enumerate(zip_longest(got, want)):
        assert s == w and type(s) is Subspace
        assert grassmannian_rank(v, k, w.rows) == position
        assert grassmannian_unrank(v, k, position) == w
    assert position + 1 == (n or gaussian_binomial(v, k))


@pytest.mark.parametrize(
    "v, k, rows",
    [
        (4, 2, (0b0010, 0b0001)),  # swapped: pivots fall
        (4, 2, (0b0011, 0b0010)),  # unreduced: row 0 has row 1's pivot
        (4, 2, (0b0101, 0b0100)),  # unreduced, later pivot not adjacent
        (4, 2, (0b0001, 0b0001)),  # repeated pivot
        (4, 2, (0b0001, 0b10000)),  # out of range
        (4, 2, (0b0001, -0b0010)),  # negative
        (4, 2, (0b0000, 0b0010)),  # zero row
        (4, 2, (0b0001,)),  # wrong dimension
        (4, 2, (0b0001, 0b0010, 0b0100)),  # wrong dimension
        (4, 0, (0b0001,)),  # wrong dimension
        (4, 2, (0b0001, 0b0010, 0b0011)),  # wrong dimension: the first two rows alone are canonical
    ],
)
def test_rank_rejects_non_canonical_rows(v, k, rows):
    with pytest.raises(ValueError):
        grassmannian_rank(v, k, rows)


@lru_cache(maxsize=None)
def free_cell_order(v: int, k: int) -> list[Subspace]:
    return list(grassmannian_by_free_cells(v, k))


@st.composite
def rref_chunks(draw):
    """(v, k, positions, blocks): blocks drawn by their position in the oracle's enumeration, repeats allowed."""
    v = draw(st.integers(0, 7))
    k = draw(st.integers(0, v))
    positions = draw(st.lists(st.integers(0, gaussian_binomial(v, k) - 1), min_size=1, max_size=80))
    return v, k, positions, [free_cell_order(v, k)[i] for i in positions]


@given(rref_chunks(), st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_ranks_are_the_enumeration_positions(chunk, data):
    v, k, positions, blocks = chunk
    cols = [[s.rows[j] for s in blocks] for j in range(k)]
    assert _ranks(v, cols, len(blocks)) == positions
    if k >= 2:  # one block with two rows swapped is no RREF basis
        at = data.draw(st.integers(0, len(blocks) - 1))
        cols[0][at], cols[1][at] = cols[1][at], cols[0][at]
        with pytest.raises(ValueError):
            _ranks(v, cols, len(blocks))


def test_unrank_rejects_out_of_range_positions():
    for bad in (-1, gaussian_binomial(4, 2)):
        with pytest.raises(ValueError):
            grassmannian_unrank(4, 2, bad)


def test_contains_sum_intersect_dimension_formula():
    rng = random.Random(11)
    for _ in range(150):
        v = rng.randrange(2, 7)
        a = random_subspace(rng, v, rng.randrange(v + 1))
        b = random_subspace(rng, v, rng.randrange(v + 1))
        u = subspace_sum(a, b)
        i = intersection(a, b)
        assert u.dim + i.dim == a.dim + b.dim
        assert contains(u, a) and contains(u, b)
        assert contains(a, i) and contains(b, i)
        assert not contains(a, b) or u == a
        assert not contains(i, a) or contains(b, a)


def test_orthogonal_complement():
    rng = random.Random(12)
    for _ in range(100):
        v = rng.randrange(1, 8)
        s = random_subspace(rng, v, rng.randrange(v + 1))
        c = orthogonal_complement(s)
        assert c.dim == v - s.dim
        for x in s.rows:
            for y in c.rows:
                assert (x & y).bit_count() % 2 == 0
        assert orthogonal_complement(c) == s


def test_flag_and_full_space():
    assert standard_flag_subspace(5, 0) == zero_subspace(5)
    assert standard_flag_subspace(5, 5) == full_space(5)
    assert standard_flag_subspace(5, 2) == span(5, [1, 2])
    with pytest.raises(ValueError):
        standard_flag_subspace(3, 4)


def test_quotient_frame_roundtrip():
    rng = random.Random(13)
    for _ in range(60):
        v = rng.randrange(2, 8)
        sup = random_subspace(rng, v, rng.randrange(1, v + 1))
        sub = random_subspace(rng, v, 0)
        # choose sub inside sup by spanning random sup vectors
        supv = sup.vectors()
        sub = span(v, [rng.choice(supv) for _ in range(rng.randrange(sup.dim + 1))])
        frame = QuotientFrame(sup, sub)
        assert frame.dim == sup.dim - sub.dim
        # project then lift recovers any intermediate subspace
        mid = span(v, list(sub.rows) + [rng.choice(supv) for _ in range(2)])
        image = frame.project(mid)
        assert image.dim == mid.dim - sub.dim
        assert lift_preimage(frame, image) == mid


def test_quotient_frame_projection_kernel_is_sub():
    frame = QuotientFrame(full_space(4), span(4, [0b0011]))
    assert frame.project_vector(0b0011) == 0
    assert frame.project_vector(0) == 0
    va = frame.project_vector(0b0100)
    vb = frame.project_vector(0b0111)  # differs from 0100 by 0011, same class
    assert va == vb != 0


def test_quotient_frame_rejects_outsiders():
    frame = QuotientFrame(span(4, [1, 2]), span(4, [1]))
    with pytest.raises(ValueError):
        frame.project_vector(0b1000)
    with pytest.raises(ValueError):
        QuotientFrame(span(4, [1]), span(4, [2]))


@st.composite
def subspace_lists(draw, count: int):
    """count subspaces of one GF(2)^v, v <= 7, each spanned by random vectors."""
    v = draw(st.integers(1, 7))
    vectors = st.lists(st.integers(0, (1 << v) - 1), max_size=v)
    return [span(v, draw(vectors)) for _ in range(count)]


@st.composite
def flags(draw):
    """sub <= mid <= sup in one GF(2)^v, v <= 7."""
    (sup,) = draw(subspace_lists(1))
    members = st.lists(st.sampled_from(sup.vectors()), max_size=sup.v)
    sub = span(sup.v, draw(members))
    mid = span(sup.v, sub.rows + tuple(draw(members)))
    return sub, mid, sup


@settings(max_examples=300, deadline=None)
@given(subspace_lists(1))
def test_orthogonal_complement_is_an_involution(single):
    (s,) = single
    perp = orthogonal_complement(s)
    assert s.dim + perp.dim == s.v
    assert orthogonal_complement(perp) == s


def test_orthogonal_complement_matches_elimination_for_v_up_to_6():
    for v in range(7):
        for k in range(v + 1):
            for s in enumerate_grassmannian(v, k):
                assert orthogonal_complement(s) == elimination_complement(s)


@st.composite
def wide_subspaces(draw):
    """One subspace of GF(2)^v, v <= 9, spanned by random vectors."""
    v = draw(st.integers(0, 9))
    return span(v, draw(st.lists(st.integers(0, (1 << v) - 1), max_size=v)))


@settings(max_examples=400, deadline=None)
@given(wide_subspaces())
def test_orthogonal_complement_matches_elimination(s):
    assert orthogonal_complement(s) == elimination_complement(s)


@settings(max_examples=100, deadline=None)
@given(st.integers(20, 40).flatmap(
    lambda v: st.tuples(st.just(v), st.lists(st.integers(0, (1 << v) - 1), max_size=v))))
def test_orthogonal_complement_matches_elimination_for_large_v(case):
    v, rows = case
    s = span(v, rows)
    assert orthogonal_complement(s) == elimination_complement(s)


@st.composite
def wide_batches(draw):
    """Random subspaces of one GF(2)^v, 7 <= v <= 12, so rows may be wider than a byte."""
    v = draw(st.integers(7, 12))
    rows = st.lists(st.integers(0, (1 << v) - 1), max_size=v)
    return v, [span(v, r) for r in draw(st.lists(rows, min_size=1, max_size=40))]


@settings(max_examples=200, deadline=None)
@given(wide_batches())
def test_complement_kernel_on_wide_batches(case):
    # the kernel takes blocks of one dimension, as the chunks of a design reach it
    v, batch = case
    for _, group in groupby(sorted(batch, key=len), len):
        blocks = list(group)
        perps = list(_complements(columns(blocks)))
        assert perps == [elimination_complement(s) for s in blocks]
        assert list(_complements(columns(perps))) == blocks
        assert all(s.dim + p.dim == v for s, p in zip(blocks, perps))


@st.composite
def row_batches(draw):
    """1-4 blocks of one GF(2)^v, v <= 20, each given by k independent rows, 0 <= k <= v.

    Rows with distinct lowest bits are independent; adding one row to
    another keeps them so and keeps their span, and the order is random.
    """
    v = draw(st.integers(1, 20))
    k = draw(st.integers(0, v))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        rows = [1 << p | draw(st.integers(0, (1 << v) - 1)) >> (p + 1) << (p + 1)
                for p in draw(st.permutations(range(v)))[:k]]
        for i, j in draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)), max_size=2 * k)):
            if i != j and max(i, j) < k:
                rows[i] ^= rows[j]
        blocks.append(rows)
    return v, blocks


def columns(blocks: list[list[int]]) -> list[list[int]]:
    return [list(c) for c in zip(*blocks)]


@settings(max_examples=300, deadline=None)
@given(row_batches())
@example((5, [[], []]))  # k = 0
@example((0, [[], []]))  # the zero space of GF(2)^0
@example((20, [[1 << i | 1 << 19 for i in range(19)] + [1 << 19]]))  # the full space, not in RREF
@example((20, [[1 << i for i in reversed(range(20))]]))  # the full space, pivots falling
@example((17, [[1 << 16, 1 << 16 | 1], [3, 1 << 16]]))  # rows wider than two bytes
def test_canonical_kernel_matches_span(batch):
    v, blocks = batch
    assert list(_canonical(v, columns(blocks), len(blocks))) == [span(v, rows) for rows in blocks]


@settings(max_examples=200, deadline=None)
@given(row_batches(), st.data())
def test_canonical_kernel_rejects_dependent_rows(batch, data):
    # one block gains a sum of some of its rows (zero for none) at some place;
    # the others gain an independent row, so that all still share a dimension
    v, blocks = batch
    rows = blocks[0]
    extra = reduce(xor, data.draw(st.lists(st.sampled_from(rows), unique=True)) if rows else [], 0)
    at = data.draw(st.integers(0, len(rows)))
    bad = rows[:at] + [extra] + rows[at:]
    others = []
    if len(rows) < v:
        for r in blocks[1:]:
            outside = next(x for x in (1 << i for i in range(v)) if reduce_vector(x, span(v, r).rows))
            others.append(r + [outside])
    batch = others[:]
    batch.insert(data.draw(st.integers(0, len(others))), bad)
    with pytest.raises(VerificationError, match="depends on the rows before it"):
        list(_canonical(v, columns(batch), len(batch)))


def random_bases(rng: random.Random, v: int, k: int, n: int) -> list[list[int]]:
    """n lists of k independent rows of GF(2)^v: random rows of full rank, then mixed and shuffled."""
    blocks = []
    for _ in range(n):
        rows = [rng.randrange(1 << v) for _ in range(k)]
        while len(rref_raw(rows).rows) < k:
            rows = [rng.randrange(1 << v) for _ in range(k)]
        for _ in range(2 * k):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                rows[i] ^= rows[j]
        rng.shuffle(rows)
        blocks.append(rows)
    return blocks


@pytest.mark.parametrize("v", [*range(13), 17])  # rows wider than a byte from v = 9, than two at 17
def test_canonical_plane_kernel_matches_span(v):
    rng = random.Random(v)
    for k in range(v + 1):
        for n in (1, 2, 47, 48, 49, 300, 512 + rng.randrange(64)):
            blocks = random_bases(rng, v, k, n)
            assert list(_canonical(v, columns(blocks), n)) == [span(v, rows) for rows in blocks]


@pytest.mark.parametrize("v, k", [(3, 2), (8, 3), (8, 7), (12, 5), (12, 11)])
def test_canonical_plane_kernel_rejects_one_dependent_row(v, k):
    # block 300 of 600 gains a sum of its rows at each place in turn; the others an independent row
    rng = random.Random(k)
    blocks = random_bases(rng, v, k + 1, 600)
    rows = random_bases(rng, v, k, 1)[0]
    for at in range(k + 1):
        blocks[300] = rows[:at] + [reduce(xor, rng.sample(rows, rng.randrange(k + 1)), 0)] + rows[at:]
        with pytest.raises(VerificationError, match="depends on the rows before it"):
            list(_canonical(v, columns(blocks), len(blocks)))


@pytest.mark.parametrize("v", [8, 16])
def test_rows_too_wide_or_negative_raise_at_whole_byte_widths(v):
    # at these v no row's top byte is scanned: bytes() and int.to_bytes refuse such a row themselves
    rng = random.Random(v)
    for bad in (1 << v, 2 | 1 << v, -1, -2):
        block = Subspace(v, (1, bad))
        with pytest.raises(VerificationError, match="RREF") as info:
            verify_design(Design(v, 2, 0, 2, frozenset({span(v, [1, 2]), block})))
        assert info.value.witness is block
        for n in (1, 48, 300):
            blocks = random_bases(rng, v, 2, n)
            blocks[n // 2] = [1, bad]
            with pytest.raises((ValueError, OverflowError)):
                list(_canonical(v, columns(blocks), n))


@pytest.mark.parametrize("v, k, size", [(7, 3, None), (10, 4, 3000)])  # all of Gr(7,3), a Gr(10,4) sample
def test_complement_plane_kernel_on_large_chunks(v, k, size):
    ranks = range(gaussian_binomial(v, k))
    blocks = [grassmannian_unrank(v, k, r) for r in (random.Random(v).sample(ranks, size) if size else ranks)]
    perps = list(_complements(columns(blocks)))
    assert perps == [elimination_complement(s) for s in blocks]
    assert list(_complements(columns(perps))) == blocks


@pytest.mark.parametrize("v", [20, 32])
def test_orthogonal_complement_of_hyperplanes(v):
    # in the second hyperplane every basis row shares the highest bit, v - 1
    for hyperplane in (standard_flag_subspace(v, v - 1),
                       span(v, [(1 << i) | (1 << (v - 1)) for i in range(v - 1)])):
        perp = orthogonal_complement(hyperplane)
        assert perp == elimination_complement(hyperplane) and perp.dim == 1
        assert orthogonal_complement(perp) == hyperplane


def greedy_transversal(sup: Subspace, sub: Subspace) -> tuple[int, ...]:
    """Each row of sup, in order, that is outside the span of sub and the rows kept so far."""
    transversal = []
    cur = list(sub.rows)
    cur_rref = rref_raw(cur).rows
    for r in sup.rows:
        if reduce_vector(r, cur_rref):
            transversal.append(r)
            cur.append(r)
            cur_rref = rref_raw(cur).rows
    return tuple(transversal)


@settings(max_examples=300, deadline=None)
@given(flags())
# greedy keeps e0 and drops e1, which is e0 plus sub's row; tags in the wrong order keep e1
@example((span(2, [3]), span(2, [3]), span(2, [1, 2])))
def test_quotient_frame_lifts_projections_back(flag):
    sub, mid, sup = flag
    frame = QuotientFrame(sup, sub)
    assert frame.transversal == greedy_transversal(sup, sub)
    image = frame.project(mid)
    assert frame.dim == sup.dim - sub.dim and image.dim == mid.dim - sub.dim
    assert lift_preimage(frame, image) == mid


def test_reduce_vector():
    s = span(4, [0b0011, 0b1100])
    assert reduce_vector(0b1111, s.rows) == 0
    assert reduce_vector(0b0111, s.rows) != 0


@pytest.fixture
def collector_on():
    was_on = gc.isenabled()
    gc.enable()
    yield
    if not was_on:
        gc.disable()


@_nogc
def _collector_state(fail: bool = False) -> bool:
    if fail:
        raise KeyError("inside")
    return gc.isenabled()


def test_nogc_pauses_and_restores_the_collector(collector_on):
    assert _collector_state() is False
    assert gc.isenabled()
    with pytest.raises(KeyError, match="inside"):
        _collector_state(fail=True)
    assert gc.isenabled()
    assert _collector_state.__name__ == "_collector_state"


def test_nogc_keeps_a_callers_disabled_collector(collector_on):
    @_nogc
    def outer() -> bool:
        inner_state = _collector_state()
        return inner_state or gc.isenabled()

    assert outer() is False and gc.isenabled()  # the inner call leaves it paused
    gc.disable()
    assert outer() is False and not gc.isenabled()
    with pytest.raises(KeyError):
        _collector_state(fail=True)
    assert not gc.isenabled()


@_nogc
def _made() -> frozenset:
    return frozenset([span(3, [1])])


def _in_generation(obj, generation: int) -> bool:
    return any(o is obj for o in gc.get_objects(generation=generation))


def test_nogc_promotes_what_the_call_made_to_the_oldest_generation(collector_on):
    made = _made()
    assert _in_generation(made, 2)
    assert gc.get_freeze_count() == 0  # nothing is left frozen


def test_nogc_keeps_a_callers_freeze(collector_on):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        made = _made()
        assert gc.get_freeze_count() == frozen
        assert _in_generation(made, 0)
    finally:
        gc.unfreeze()


def test_nogc_promotes_only_when_it_turns_the_collector_back_on(collector_on):
    @_nogc
    def outer() -> bool:
        inner = _made()
        return _in_generation(inner, 0)  # the nested call left it young

    assert outer() and gc.isenabled()
    gc.disable()
    made = _made()
    assert _in_generation(made, 0) and not gc.isenabled()


def test_nogc_refuses_generator_functions():
    def blocks():
        yield zero_subspace(2)

    with pytest.raises(TypeError, match="generator"):
        _nogc(blocks)


# ---------------------------------------------------------------------------
# the one-object block layout


LAYOUT_CASES = [zero_subspace(0), zero_subspace(3), full_space(5), span(8, [3, 5, 9, 17])]


@pytest.mark.parametrize("s", LAYOUT_CASES, ids=repr)
def test_block_is_one_object(s):
    assert not [x for x in gc.get_referents(s) if isinstance(x, tuple)]
    assert sys.getsizeof(s) == sys.getsizeof((s.v, *s.rows))
    assert len(s) == s.dim + 1 and tuple(s) == (s.v, *s.rows)


@pytest.mark.parametrize("s", LAYOUT_CASES, ids=repr)
def test_pickle_and_copy_round_trip(s):
    for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert back == s and type(back) is Subspace
        assert (back.v, back.rows) == (s.v, s.rows)


@st.composite
def mixed_subspaces(draw):
    """Subspaces of several GF(2)^v, v <= 6, of any dimension."""
    vs = st.integers(0, 6)
    return [
        span(v, draw(st.lists(st.integers(0, (1 << v) - 1), max_size=v)))
        for v in draw(st.lists(vs, max_size=12))
    ]


@settings(max_examples=300, deadline=None)
@given(mixed_subspaces())
def test_subspaces_order_like_v_then_rows(xs):
    assert sorted(xs) == sorted(xs, key=lambda s: (s.v, s.rows))
