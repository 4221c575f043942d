"""Tests for the join construction and the plan executor."""

import gc
import hashlib
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdesigns import designs, joins
from qdesigns.designs import (
    Design,
    LargeSet,
    VerificationError,
    dual_large_set,
    large_set,
    verify_large_set,
)
from qdesigns.gf2 import vec_mat
from qdesigns.grassmann import (
    QuotientFrame,
    Subspace,
    _CROSSOVER,
    contains,
    enumerate_grassmannian,
    full_space,
    gaussian_binomial,
    span,
    standard_flag_subspace,
)
from qdesigns.groups import trivial_group
from qdesigns.joins import (
    JoinChain,
    MissingLeafError,
    avoiding_join,
    compose_partitions,
    execute_plan,
    extend_by_hyperplane,
    grassmann_decomposition,
    join_chain,
    materialize_cell,
)
from qdesigns.kramer_mesner import build_km, iterated_large_set_search
from qdesigns.planner import LSParams, PlanNode, plan_series

from oracles import avoiding_join_by_spans, intersection, lift_preimage, subspace_sum, zero_subspace


def params(t: int, k: int, v: int) -> LSParams:
    return LSParams(2, 3, t, k, v)


def lines_of_plane() -> list[Subspace]:
    return sorted(enumerate_grassmannian(2, 1), key=lambda s: s.rows)


def singleton_line_partition() -> tuple[frozenset[Subspace], ...]:
    return tuple(frozenset([s]) for s in lines_of_plane())


def line_large_set() -> LargeSet:
    designs = tuple(
        Design(2, 1, 0, 1, frozenset([s])) for s in lines_of_plane()
    )
    return LargeSet(2, 1, 0, 3, designs)


def cell_size(cell: joins.DecompositionCell) -> int:
    """Factor pairs times the 2^((u1 - k1) * (k2 - u1)) = 2^((s + 1) * (k - i)) joins of each."""
    (a1, d1), (a2, d2) = cell.first_grassmannian, cell.second_grassmannian
    return gaussian_binomial(a1, d1) * gaussian_binomial(a2, d2) << (cell.s + 1) * d2


def trivial_large_set(v: int, k: int) -> LargeSet:
    blocks = frozenset(enumerate_grassmannian(v, k))
    return LargeSet(v, k, 0, 1, (Design(v, k, 0, len(blocks), blocks),))


class TestJoinChain:
    def test_requires_nesting(self):
        with pytest.raises(ValueError):
            join_chain(span(3, [0b110]), span(3, [0b001]))

    def test_mismatched_ambient(self):
        with pytest.raises(ValueError):
            join_chain(span(3, [1]), span(4, [1, 2]))

    def test_frames(self):
        u1, u2 = standard_flag_subspace(5, 1), standard_flag_subspace(5, 3)
        chain = join_chain(u1, u2)
        assert (chain.u1, chain.u2, chain.v) == (u1, u2, 5)

    def test_refuses_non_standard_flags(self):
        # joins read complements off row positions, so the chain itself
        # takes standard flags U_a <= U_b only, however it is built
        u = standard_flag_subspace(4, 2)
        for u1, u2 in ((span(4, [1, 4]), span(4, [1, 4])),  # the dimensions of U_2, not its rows
                       (u, span(4, [1, 4, 8])),
                       (span(4, [1, 4]), standard_flag_subspace(4, 3)),
                       (standard_flag_subspace(4, 3), u)):  # u1 > u2
            for make in (join_chain, JoinChain):
                with pytest.raises(ValueError, match="standard"):
                    make(u1, u2)


@st.composite
def standard_flag(draw, v: int, proper: bool):
    """U1 = U_a <= U2 = U_b in GF(2)^v, with a < b <= a + 3 when proper."""
    if proper:
        a = draw(st.integers(0, v - 1))
        b = draw(st.integers(a + 1, min(a + 3, v)))
    else:
        b = draw(st.integers(0, v))
        a = draw(st.integers(0, b))
    return standard_flag_subspace(v, a), standard_flag_subspace(v, b)


@st.composite
def join_operands(draw):
    """K1 <= U1 <= U2 <= K2 in one GF(2)^v, v <= 6: a random standard flag, K1 and K2 spanned by random vectors."""
    v = draw(st.integers(1, 6))
    u1, u2 = draw(standard_flag(v, False))
    k1 = span(v, draw(st.lists(st.integers(0, (1 << u1.dim) - 1), max_size=u1.dim)))
    k2 = span(v, u2.rows + tuple(draw(st.lists(st.integers(0, (1 << v) - 1), max_size=v))))
    return k1, k2, u1, u2


@st.composite
def proper_flag_operands(draw):
    """K1 <= U1 < U2 <= K2 in one GF(2)^v, v <= 8, the flag standard, with at most 2^10 join members."""
    v = draw(st.integers(2, 8))
    u1, u2 = draw(standard_flag(v, True))
    k1 = span(v, draw(st.lists(st.integers(0, (1 << u1.dim) - 1), max_size=u1.dim)))
    k2 = span(v, u2.rows + tuple(draw(st.lists(st.integers(0, (1 << v) - 1), max_size=2))))
    assume((u1.dim - k1.dim) * (k2.dim - u1.dim) <= 10)
    return k1, k2, u1, u2


class TestAvoidingJoin:
    def test_zero_to_full_in_dim3(self):
        chain = join_chain(standard_flag_subspace(3, 1), standard_flag_subspace(3, 1))
        out = avoiding_join([zero_subspace(3)], [full_space(3)], chain)
        assert len(out) == 4
        assert all(s.dim == 2 for s in out)

    def test_matches_brute_force_predicate(self):
        chain = join_chain(standard_flag_subspace(3, 1), standard_flag_subspace(3, 1))
        k1, k2 = zero_subspace(3), full_space(3)
        brute = {
            s
            for s in enumerate_grassmannian(3, 2)
            if intersection(s, chain.u1) == k1
            and subspace_sum(s, chain.u2) == k2
            and subspace_sum(s, chain.u1) == subspace_sum(s, chain.u2)
        }
        assert avoiding_join([k1], [k2], chain) == brute

    def test_degenerate_operands_give_u2(self):
        u = standard_flag_subspace(3, 1)
        chain = join_chain(u, u)
        assert avoiding_join([u], [u], chain) == frozenset([u])

    @settings(max_examples=300, deadline=None)
    @given(join_operands())
    @example((zero_subspace(5), span(5, [1, 2, 4, 8]), span(5, [1]), span(5, [1, 2, 4])))
    def test_proper_flag_brute_force(self, operands):
        # checked against filtering by the defining predicate; every member
        # has dimension dim K1 + dim K2 - dim U1, so only that one is searched
        k1, k2, u1, u2 = operands
        out = avoiding_join([k1], [k2], join_chain(u1, u2))
        assert len(out) == 1 << ((u1.dim - k1.dim) * (k2.dim - u1.dim))
        brute = {
            s
            for s in enumerate_grassmannian(u1.v, k1.dim + k2.dim - u1.dim)
            if intersection(s, u1) == k1
            and subspace_sum(s, u2) == k2
            and subspace_sum(s, u1) == subspace_sum(s, u2)
        }
        assert out == brute

    @pytest.mark.parametrize("s", range(4))
    def test_matches_one_span_per_member_on_cells(self, s):
        # every (k1, k2) pair that materialize_cell joins, lifted as compose_partitions lifts it
        for cell in grassmann_decomposition(7, 3, s):
            (a1, d1), (a2, d2) = cell.first_grassmannian, cell.second_grassmannian
            u1, top = cell.chain.u1, QuotientFrame(full_space(7), cell.chain.u2)
            for f in enumerate_grassmannian(a1, d1):
                k1 = span(7, [vec_mat(r, u1.rows) for r in f.rows])
                for g in enumerate_grassmannian(a2, d2):
                    k2 = lift_preimage(top, g)
                    assert avoiding_join([k1], [k2], cell.chain) == avoiding_join_by_spans(k1, k2, u1)

    @settings(max_examples=150, deadline=None)
    @given(proper_flag_operands())
    def test_proper_flags_match_one_span_per_member(self, operands):
        k1, k2, u1, u2 = operands
        assert avoiding_join([k1], [k2], join_chain(u1, u2)) == avoiding_join_by_spans(k1, k2, u1)

    def test_operand_validation(self):
        chain = join_chain(standard_flag_subspace(4, 1), standard_flag_subspace(4, 2))
        with pytest.raises(ValueError):
            avoiding_join([span(4, [2])], [full_space(4)], chain)  # not inside u1
        with pytest.raises(ValueError):
            avoiding_join([zero_subspace(4)], [span(4, [1])], chain)  # misses u2
        with pytest.raises(ValueError):
            avoiding_join([zero_subspace(3)], [full_space(3)], chain)  # wrong ambient


def lifted_cell_operands(cell: joins.DecompositionCell) -> tuple[list[Subspace], list[Subspace]]:
    """Every operand that materialize_cell joins, lifted as compose_partitions lifts it."""
    (a1, d1), (a2, d2) = cell.first_grassmannian, cell.second_grassmannian
    v, u1 = cell.chain.v, cell.chain.u1
    top = QuotientFrame(full_space(v), cell.chain.u2)  # V/U2, the slow way
    k1s = [span(v, [vec_mat(r, u1.rows) for r in f.rows]) for f in enumerate_grassmannian(a1, d1)]
    return k1s, [lift_preimage(top, g) for g in enumerate_grassmannian(a2, d2)]


class TestJoinBatches:
    """avoiding_join on operand sets, cut into kernel chunks smaller than in use."""

    @pytest.fixture(params=[3, 40, 1 << 12])
    def cap(self, request, monkeypatch):
        # chunks of max(cap >> k, 1) members of dimension k: one member per
        # chunk at cap 3 once k >= 2, chunks that cut pairs apart at 40, and
        # at 1 << 12 chunks large enough for grassmann's plane kernel
        sizes = []
        canonical = joins._canonical

        def counting(v, cols, n):
            sizes.append(n)
            return canonical(v, cols, n)

        monkeypatch.setattr(designs, "_COUNT_BATCH", request.param)
        monkeypatch.setattr(joins, "_canonical", counting)
        return request.param, sizes

    def check(self, cap, k1s, k2s, chain):
        limit, sizes = cap
        out = avoiding_join(k1s, k2s, chain)
        spans = (avoiding_join_by_spans(k1, k2, chain.u1) for k1 in k1s for k2 in k2s)
        assert out == frozenset().union(*spans)
        k = k1s[0].dim + k2s[0].dim - chain.u1.dim
        assert sum(sizes) == len(out) and max(sizes) <= max(limit >> k, 1)
        # at the large cap, a join with enough members reaches the plane kernel
        assert limit >> k < _CROSSOVER or max(sizes) >= min(len(out), _CROSSOVER)

    @pytest.mark.parametrize("s", range(4))
    def test_cells_match_one_span_per_member(self, cap, s):
        for cell in grassmann_decomposition(7, 3, s):
            cap[1].clear()
            self.check(cap, *lifted_cell_operands(cell), cell.chain)

    def test_proper_flag(self, cap):
        # U1 < U2: lines of U1 joined with the 5-spaces through U2
        chain = join_chain(standard_flag_subspace(6, 2), standard_flag_subspace(6, 4))
        k1s = [span(6, s.rows) for s in enumerate_grassmannian(2, 1)]
        k2s = [s for s in enumerate_grassmannian(6, 5) if contains(s, chain.u2)]
        assert (len(k1s), len(k2s)) == (3, 3)
        self.check(cap, k1s, k2s, chain)
        assert len(avoiding_join(k1s, k2s, chain)) == 3 * 3 * 8

    def test_empty_side(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        assert avoiding_join([], [full_space(4)], chain) == frozenset()
        assert avoiding_join([zero_subspace(4)], [], chain) == frozenset()

    def test_mixed_dimensions_rejected(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        with pytest.raises(ValueError, match="share a dimension"):
            avoiding_join([zero_subspace(4), span(4, [1])], [full_space(4)], chain)


class TestJoinSets:
    """Joins of whole operand sets: compose_partitions with one part per side."""

    def test_cardinality_formula(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        b1 = list(enumerate_grassmannian(2, 1))
        b2 = list(enumerate_grassmannian(2, 1))
        (out,) = compose_partitions([b1], [b2], chain, -1)
        assert len(out) == 3 * 3 * (1 << ((2 - 1) * (3 - 2)))
        assert all(s.v == 4 and s.dim == 2 for s in out)

    def test_empty_operand(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        out = compose_partitions([[]], [enumerate_grassmannian(2, 1)], chain, -1)
        assert out == (frozenset(),)

    def test_pairwise_disjoint_images_in_dim5(self):
        # distinct operand pairs cannot produce the same subspace
        chain = join_chain(standard_flag_subspace(5, 2), standard_flag_subspace(5, 2))
        b1 = list(enumerate_grassmannian(2, 1))
        b2 = list(enumerate_grassmannian(3, 1))
        seen = set()
        for s1 in b1:
            for s2 in b2:
                (img,) = compose_partitions([[s1]], [[s2]], chain, -1)
                assert not (seen & img)
                seen |= img
        assert len(seen) == len(compose_partitions([b1], [b2], chain, -1)[0])

    def test_no_collection_inside_compose_partitions(self):
        # like test_catalog's bulk-call test, on the largest cell of [7 3]_2:
        # 1,395 avoiding joins make 11,160 blocks.  No tracked object may be
        # allocated outside the paused call while the watch is on: with the
        # collector back on, the first one sets off a collection
        cell = grassmann_decomposition(7, 3, 0)[0]
        (a1, d1), (a2, d2) = cell.first_grassmannian, cell.second_grassmannian
        parts1 = [[Subspace(a1 + 1, s.rows) for s in enumerate_grassmannian(a1, d1)]]
        parts2 = [list(enumerate_grassmannian(a2, d2))]
        collections = []

        def watch(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        was_on = gc.isenabled()
        gc.enable()
        try:
            gc.collect()
            gc.callbacks.append(watch)
            try:
                out = compose_partitions(parts1, parts2, cell.chain, -1)
            finally:
                gc.callbacks.remove(watch)
            assert collections == [] and gc.isenabled()
            (members,) = out  # unpacking allocates, so it waits for the watch to end
            assert len(members) == cell_size(cell)
            gc.collect()
            assert materialize_cell(cell) == members
            assert gc.collect() == 0  # the join leaves no reference cycles behind
        finally:
            if not was_on:
                gc.disable()

    def test_coordinate_validation(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        with pytest.raises(ValueError, match="first operands"):
            compose_partitions([enumerate_grassmannian(3, 1)], [[zero_subspace(2)]], chain, -1)
        with pytest.raises(ValueError, match="second operands"):
            compose_partitions([[zero_subspace(2)]], [enumerate_grassmannian(3, 1)], chain, -1)
        mixed = [span(2, [1]), zero_subspace(2)]
        with pytest.raises(ValueError, match="first operands must share"):
            compose_partitions([mixed], [[zero_subspace(2)]], chain, -1)
        with pytest.raises(ValueError, match="second operands must share"):
            compose_partitions([[zero_subspace(2)]], [mixed], chain, -1)
        # one dimension across all parts, not only within each
        with pytest.raises(ValueError, match="first operands must share"):
            compose_partitions([mixed[:1], mixed[1:]], [[zero_subspace(2)], []], chain, -1)


class TestDecomposition:
    def test_cell_sizes_dim6(self):
        cells = grassmann_decomposition(6, 3, 1)
        assert [cell_size(c) for c in cells] == [960, 336, 84, 15]
        assert sum(cell_size(c) for c in cells) == gaussian_binomial(6, 3)

    def test_materialized_cells_partition_dim6(self):
        cells = grassmann_decomposition(6, 3, 1)
        union: set[Subspace] = set()
        total = 0
        for cell in cells:
            mat = materialize_cell(cell)
            assert len(mat) == cell_size(cell)
            total += len(mat)
            union |= mat
        assert total == len(union) == gaussian_binomial(6, 3)

    def test_all_offsets_partition_small_spaces(self):
        for v in range(1, 7):
            for k in range(0, v + 1):
                for s in range(0, v - k):
                    cells = grassmann_decomposition(v, k, s)
                    union: set[Subspace] = set()
                    total = 0
                    for cell in cells:
                        mat = materialize_cell(cell)
                        total += len(mat)
                        union |= mat
                    assert total == len(union) == gaussian_binomial(v, k), (v, k, s)

    def test_k_zero_single_cell(self):
        cells = grassmann_decomposition(4, 0, 2)
        assert len(cells) == 1
        assert materialize_cell(cells[0]) == frozenset([zero_subspace(4)])

    def test_membership_criterion(self):
        # cell i holds the subspaces whose intersection with the flag
        # prefix of dimension s+i+1 has dimension i and already lies in
        # the prefix one lower; that pair of facts pins the cell
        v, k, s = 5, 2, 1
        for i, cell in enumerate(grassmann_decomposition(v, k, s)):
            lower = standard_flag_subspace(v, s + i)
            upper = standard_flag_subspace(v, s + i + 1)
            for sub in materialize_cell(cell):
                assert intersection(sub, upper).dim == i
                assert intersection(sub, lower).dim == i

    def test_bad_offsets(self):
        with pytest.raises(ValueError):
            grassmann_decomposition(6, 3, 3)
        with pytest.raises(ValueError):
            grassmann_decomposition(6, 3, -1)
        with pytest.raises(ValueError):
            grassmann_decomposition(4, 5, 0)

    def test_full_dim8_offset3(self):
        cells = grassmann_decomposition(8, 4, 3)
        assert [cell_size(c) for c in cells] == [65536, 61440, 39680, 22320, 11811]
        assert sum(cell_size(c) for c in cells) == 200787

    def test_materialized_cells_are_the_pinned_ones(self):
        # one SHA-256 per cell of [8 4]_2 at s = 0, 3 and [7 3]_2 at s = 0..3,
        # in that order, over the repr of its sorted members; then one of the 26
        cells = [c for v, k, offsets in ((8, 4, (0, 3)), (7, 3, range(4)))
                 for s in offsets for c in grassmann_decomposition(v, k, s)]
        digests = "".join(hashlib.sha256(repr(sorted(materialize_cell(c))).encode()).hexdigest() for c in cells)
        assert len(cells) == 26
        assert hashlib.sha256(digests.encode()).hexdigest() == (
            "0271964655f69f04c6ec29b8dc5e788407bee007940f39eed27cab2269d211a5")


class TestPartitionedSet:
    """A partition of Gr(v, k) into parts is checked as a large set by
    verify_large_set once the ``large_set`` factory has built it."""

    def test_factory_checks_membership_shape(self):
        lines = lines_of_plane()
        parts = [frozenset([span(3, [1])]), frozenset([lines[1]]), frozenset([lines[2]])]
        with pytest.raises(VerificationError, match="wrong shape"):
            verify_large_set(large_set(2, 1, 0, parts))

    def test_factory_checks_equivalence(self):
        lines = lines_of_plane()
        parts = [frozenset(lines[:2]), frozenset(lines[2:]), frozenset()]
        with pytest.raises(VerificationError):
            verify_large_set(large_set(2, 1, 0, parts))


class TestCompose:
    def test_strengths_add(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        p = singleton_line_partition()
        out = compose_partitions(p, p, chain, 1)
        assert [len(x) for x in out] == [6, 6, 6]
        assert all(s.v == 4 and s.dim == 2 for part in out for s in part)
        # the 18 members are exactly the 2-subspaces meeting U2 in a line
        u2 = chain.u2
        expect = {
            s for s in enumerate_grassmannian(4, 2) if intersection(s, u2).dim == 1
        }
        all_members = set().union(*out)
        assert all_members == expect

    def test_trivial_times_pointed(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        trivial = (frozenset(lines_of_plane()), frozenset(), frozenset())
        out = compose_partitions(trivial, singleton_line_partition(), chain, 0)
        assert [len(x) for x in out] == [6, 6, 6]

    def test_wrong_convention_raises(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        lines = lines_of_plane()
        lying = (frozenset(lines[:2]), frozenset(lines[2:]), frozenset())
        with pytest.raises(VerificationError, match="composition"):
            compose_partitions(singleton_line_partition(), lying, chain, 1)

    def test_each_part_counted_once(self, monkeypatch):
        counted = []

        def counting(blocks, v, t):
            counted.append(blocks)
            return designs._incidence_counts(blocks, v, t)

        monkeypatch.setattr(joins, "_incidence_counts", counting)
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        p = singleton_line_partition()
        out = compose_partitions(p, p, chain, 1)
        assert counted == list(out)

    def test_overlapping_parts_raise(self):
        # the same line in parts 0 and 1 sends one join image to two
        # parts; each part alone is collision-free, and t = -1 claims no
        # equivalence, so only the pairwise disjointness check sees it
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        a = span(2, [1])
        first = (frozenset([a]), frozenset([a]), frozenset())
        second = (frozenset([a]), frozenset(), frozenset())
        with pytest.raises(VerificationError, match="overlap"):
            compose_partitions(first, second, chain, -1)

    def test_part_count_mismatch(self):
        chain = join_chain(standard_flag_subspace(4, 2), standard_flag_subspace(4, 2))
        two_parts = (frozenset(lines_of_plane()), frozenset())
        with pytest.raises(ValueError):
            compose_partitions(two_parts, singleton_line_partition(), chain, 0)

    def test_flag_must_be_standard(self):
        # the same dimensions as a standard flag, so only the rows are wrong
        p = singleton_line_partition()
        for u1, u2 in ((span(4, [1, 4]), span(4, [1, 4])),
                       (standard_flag_subspace(4, 2), span(4, [1, 2, 8])),
                       (span(4, [2]), standard_flag_subspace(4, 3)),
                       (standard_flag_subspace(4, 1), span(4, [1, 6]))):
            with pytest.raises(ValueError, match="standard"):
                compose_partitions(p, p, join_chain(u1, u2), -1)

    def test_ambient_mismatch(self):
        p = singleton_line_partition()
        tall = join_chain(standard_flag_subspace(5, 3), standard_flag_subspace(5, 3))
        with pytest.raises(ValueError):
            compose_partitions(p, p, tall, 1)  # first operand needs u1's dim 3 coords
        wide = join_chain(standard_flag_subspace(5, 2), standard_flag_subspace(5, 2))
        with pytest.raises(ValueError):
            compose_partitions(p, p, wide, 1)  # second operand needs dim 3 quotient coords


def chunked_large_set(v: int, k: int, n: int) -> LargeSet:
    """Equal chunks of Gr(v, k) in enumeration order: a large set at t = 0."""
    blocks = list(enumerate_grassmannian(v, k))
    size = len(blocks) // n
    return large_set(v, k, 0, [blocks[i * size : (i + 1) * size] for i in range(n)])


def quotient_frame_lifts(small: LargeSet, same: LargeSet) -> list[frozenset[Subspace]]:
    """Oracle for the parts of extend_by_hyperplane.

    Each block B of the first operand is lifted by B plus e_(v-1) plus
    each vector in the span of a transversal of H/B, where H is the
    hyperplane of the first v - 1 coordinates; every lift is eliminated.
    """
    v_out = small.v + 1
    h = standard_flag_subspace(v_out, v_out - 1)
    outside = 1 << (v_out - 1)
    parts = []
    for small_d, same_d in zip(small.designs, same.designs):
        blocks = {Subspace(v_out, b.rows) for b in same_d.blocks}
        for b in small_d.blocks:
            inside = Subspace(v_out, b.rows)
            frame = QuotientFrame(h, inside)
            for shift in span(v_out, frame.transversal).vectors():
                blocks.add(span(v_out, inside.rows + (shift | outside,)))
        parts.append(frozenset(blocks))
    return parts


class TestExtendByHyperplane:
    def test_single_part_trivial(self):
        out = extend_by_hyperplane(trivial_large_set(3, 1), trivial_large_set(3, 2))
        assert (out.v, out.k, out.t, out.n) == (4, 2, 0, 1)
        assert len(out.designs[0].blocks) == gaussian_binomial(4, 2)

    @pytest.mark.parametrize(
        "v,k", [(v, k) for v in range(1, 6) for k in range(1, v + 1)]
    )
    def test_trivial_operands_match_quotient_frame_lifts(self, v, k):
        # k = 1 lifts 0-dimensional blocks: the points outside the hyperplane
        small, same = trivial_large_set(v, k - 1), trivial_large_set(v, k)
        out = extend_by_hyperplane(small, same)
        assert [d.blocks for d in out.designs] == quotient_frame_lifts(small, same)

    @pytest.mark.parametrize("v,k,n,count_batch", [
        pytest.param(3, 2, 7, None, id="3-2-7"),
        pytest.param(4, 2, 5, None, id="4-2-5"),
        # chunks of 2 first-operand blocks and 1 second-operand block: the
        # chunks cut through pivot groups, and parts end in partial chunks
        pytest.param(4, 2, 5, 4, id="4-2-5-small_chunks"),
        pytest.param(5, 3, 5, 8, id="5-3-5-small_chunks"),
    ])
    def test_chunked_operands_match_quotient_frame_lifts(self, v, k, n, count_batch, monkeypatch):
        if count_batch:
            monkeypatch.setattr(designs, "_COUNT_BATCH", count_batch)
        small, same = chunked_large_set(v, k - 1, n), chunked_large_set(v, k, n)
        out = extend_by_hyperplane(small, same)
        assert [d.blocks for d in out.designs] == quotient_frame_lifts(small, same)

    @pytest.mark.parametrize("v,k,n", [(5, 3, 5), (3, 2, 7), (4, 2, 1)])
    def test_parts_are_no_larger_than_frozensets_of_lists(self, v, k, n):
        # (5, 3, 5) gives parts of 279 blocks, a size at which a frozenset
        # copied from a set is twice as large as one filled from a list
        out = extend_by_hyperplane(chunked_large_set(v, k - 1, n), chunked_large_set(v, k, n))
        for d in out.designs:
            assert sys.getsizeof(d.blocks) <= sys.getsizeof(frozenset(list(d.blocks)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            extend_by_hyperplane(trivial_large_set(3, 1), trivial_large_set(3, 3))
        with pytest.raises(ValueError):
            extend_by_hyperplane(trivial_large_set(3, 1), trivial_large_set(4, 2))
        with pytest.raises(ValueError):
            extend_by_hyperplane(line_large_set(), trivial_large_set(2, 2))


def small_plan() -> PlanNode:
    leaf_t = PlanNode("leaf_trivial", params(-1, 0, 1))
    leaf = PlanNode("leaf_table", params(0, 1, 2))
    return PlanNode(
        "decompose",
        params(0, 1, 4),
        s=1,
        cell_strengths=((-1, 0), (0, -1)),
        children=(leaf_t, leaf, leaf, leaf_t),
    )


def mixed_plan() -> PlanNode:
    """(0,3,6) by offset-1 decomposition; the dim-4 factors are built
    in-plan as duals of the (0,1,4) decomposition result."""
    dual_node = PlanNode("dual", params(0, 3, 4), children=(small_plan(),))
    leaf_t = lambda t, k, v: PlanNode("leaf_trivial", params(t, k, v))
    leaf = PlanNode("leaf_table", params(0, 1, 2))
    return PlanNode(
        "decompose",
        params(0, 3, 6),
        s=1,
        cell_strengths=((-1, 0), (0, -1), (-1, 0), (0, -1)),
        children=(
            leaf_t(-1, 0, 1),
            dual_node,
            leaf,
            leaf_t(-1, 2, 3),
            leaf_t(-1, 2, 3),
            leaf,
            dual_node,
            leaf_t(-1, 0, 1),
        ),
    )


class TestExecutePlan:
    def test_leaf_passthrough(self):
        plan = PlanNode("leaf_table", params(0, 1, 2))
        out = execute_plan(plan, [line_large_set()])
        assert verify_large_set(out).lam == 1

    def test_small_decompose(self):
        ls = execute_plan(small_plan(), [line_large_set()])
        assert (ls.v, ls.k, ls.t, ls.n) == (4, 1, 0, 3)
        assert verify_large_set(ls).lam == 5

    def test_mixed_kind_tree(self):
        ls = execute_plan(mixed_plan(), [line_large_set()])
        assert (ls.v, ls.k, ls.t, ls.n) == (6, 3, 0, 3)
        assert verify_large_set(ls).lam == 465

    def test_shared_leaf_built_once(self, monkeypatch):
        # small_plan's one leaf_trivial object is a factor of cells 0 and 1
        calls = []

        def counting(v, k):
            calls.append((v, k))
            return enumerate_grassmannian(v, k)

        monkeypatch.setattr(joins, "enumerate_grassmannian", counting)
        ls = execute_plan(small_plan(), [line_large_set()])
        assert calls == [(1, 0)]
        assert verify_large_set(ls).lam == 5

    def test_shared_subplan_built_once(self, monkeypatch):
        # mixed_plan's one dual node, over a decompose subplan, is a factor
        # of cells 0 and 3
        calls = []
        dual = joins.TRANSFORMS["dual"]

        def counting(ls, verify):
            calls.append((ls.k, ls.v))
            return dual(ls, verify=verify)

        monkeypatch.setitem(joins.TRANSFORMS, "dual", counting)
        ls = execute_plan(mixed_plan(), [line_large_set()])
        assert calls == [(1, 4)]
        assert verify_large_set(ls).lam == 465

    def test_each_operand_lifted_once(self, monkeypatch):
        # mixed_plan's decompose nodes lift 30 distinct (flag, operand)
        # pairs; each compose_partitions call lifts each one once, not once
        # per part it is paired with
        calls = []
        lifted = joins._lifted

        def counting(parts, width, head, v, what):
            parts = [list(part) for part in parts]
            if what == "second":  # the operands read as V/U2, after U2's rows
                calls.extend((width, head, s) for part in parts for s in part)
            return lifted(parts, width, head, v, what)

        monkeypatch.setattr(joins, "_lifted", counting)
        ls = execute_plan(mixed_plan(), [line_large_set()])
        assert len(calls) == len(set(calls)) == 30
        assert verify_large_set(ls).lam == 465

    def test_decompose_at_positive_strength(self):
        # LS_2[7](1,2,7) from two searched leaves, LS_2[7](1,2,4) and
        # LS_2[7](0,1,3); each cell's parts are checked 1-equivalent
        searches = [
            iterated_large_set_search(build_km(v, t, k, trivial_group(v)), 7)
            for t, k, v in ((1, 2, 4), (0, 1, 3))
        ]
        assert [(r.status, r.nodes) for r in searches] == [("solved", 11), ("solved", 6)]
        node = lambda kind, t, k, v: PlanNode(kind, LSParams(2, 7, t, k, v))
        trivial = node("leaf_trivial", -1, 0, 2)
        ls124, ls013 = node("leaf_table", 1, 2, 4), node("leaf_table", 0, 1, 3)
        plan = PlanNode(
            "decompose",
            LSParams(2, 7, 1, 2, 7),
            s=2,
            cell_strengths=((-1, 1), (0, 0), (1, -1)),
            children=(trivial, ls124, ls013, ls013, ls124, trivial),
        )
        ls = execute_plan(plan, [r.large_set for r in searches])
        assert verify_large_set(ls).lam == 9
        assert [len(d.blocks) for d in ls.designs] == [381] * 7
        # pinned: one SHA-256 per design over the repr of its sorted blocks, then one of the seven
        digests = "".join(hashlib.sha256(repr(sorted(d.blocks)).encode()).hexdigest() for d in ls.designs)
        assert hashlib.sha256(digests.encode()).hexdigest() == (
            "fd2d5837b29cd78a0e45078fab95a8f5129047e15c5b6c8e7d016044dddd6d46")

    def test_missing_leaves_reported_upfront(self):
        plan = plan_series(4, 9)
        with pytest.raises(MissingLeafError) as exc:
            execute_plan(plan)
        msg = str(exc.value)
        assert "LS_2[3](2,3,8)" in msg and "LS_2[3](2,4,8)" in msg

    def test_size_guard(self):
        plan = PlanNode("leaf_trivial", params(0, 1, 4))
        with pytest.raises(ValueError, match="size guard"):
            execute_plan(plan, size_guard=10)

    def test_size_guard_on_decompose(self):
        leaves = [line_large_set()]
        with pytest.raises(ValueError, match="decompose node .* would materialize 15"):
            execute_plan(small_plan(), leaves, size_guard=10)
        assert execute_plan(small_plan(), leaves, size_guard=15).n == 3

    def test_size_guard_covers_every_node(self, monkeypatch):
        # (2,5,10) is a hyperplane_extend root over Gr(10, 5); stand-ins for its two
        # v = 8 leaves pass the leaf check, and nothing is evaluated before the guard
        evaluated = []
        monkeypatch.setattr(joins, "_eval_node", lambda node, *args: evaluated.append(node))
        stand_ins = [LargeSet(8, k, 2, 3, ()) for k in (3, 4)]
        with pytest.raises(ValueError, match="hyperplane_extend node .* would materialize 109221651 subspaces"):
            execute_plan(plan_series(5, 10), stand_ins)
        assert evaluated == []

    def test_root_needs_a_strength(self):
        with pytest.raises(ValueError, match="t >= 0"):
            execute_plan(PlanNode("leaf_trivial", LSParams(2, 1, -1, 1, 2)))

    def test_leaf_of_other_parameters_is_missing(self):
        # a leaf serves only the plan leaf with its own parameters
        plan = PlanNode("leaf_table", params(0, 1, 2))
        with pytest.raises(MissingLeafError, match=r"LS_2\[3\]\(0,1,2\)"):
            execute_plan(plan, [trivial_large_set(3, 1)])

    def test_two_leaves_of_one_parameter_set_are_refused(self):
        # a dict keyed by parameters would let the later leaf win unnoticed
        leaf = line_large_set()
        swapped = LargeSet(2, 1, 0, 3, leaf.designs[::-1])
        with pytest.raises(ValueError, match=r"two leaves given for LS_2\[3\]\(0,1,2\)"):
            execute_plan(PlanNode("leaf_table", params(0, 1, 2)), [leaf, swapped])

    def test_dual_of_registry_leaf(self):
        plan = PlanNode(
            "dual", params(0, 1, 2), children=(PlanNode("leaf_table", params(0, 1, 2)),)
        )
        out = execute_plan(plan, [line_large_set()])
        assert out == dual_large_set(line_large_set())

    def test_hyperplane_root_verified_once(self, monkeypatch):
        calls = []

        def counting_verify(ls):
            calls.append((ls.v, ls.k))
            return verify_large_set(ls)

        monkeypatch.setattr(joins, "verify_large_set", counting_verify)
        leaf = lambda k: PlanNode("leaf_table", LSParams(2, 1, 0, k, 3))
        plan = PlanNode(
            "hyperplane_extend", LSParams(2, 1, 0, 2, 4), children=(leaf(1), leaf(2))
        )
        out = execute_plan(plan, [trivial_large_set(3, 1), trivial_large_set(3, 2)])
        assert len(out.designs[0].blocks) == gaussian_binomial(4, 2)
        assert calls == [(4, 2)]
