"""Incidence system construction and exact search."""

import hashlib
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesigns import designs, kramer_mesner
from qdesigns.designs import verify_design, verify_large_set
from qdesigns.gf2 import BitMatrix, rank_raw, vec_mat
from qdesigns.grassmann import enumerate_grassmannian, gaussian_binomial, span
from qdesigns.groups import close_group, trivial_group
from qdesigns.kramer_mesner import (
    BudgetExceeded,
    SolveResult,
    Selection,
    _Search,
    build_km,
    design_from_selection,
    iterated_large_set_search,
    selection_blocks,
    solve_exact,
    write_km_system,
)

from oracles import intersection

# order-7 companion matrix of x^3 + x + 1, transitive on nonzero vectors
SHIFT3 = BitMatrix(3, (0b010, 0b100, 0b011))
# Singer cycle of x^7 + x + 1: e_i -> e_{i+1}, e_6 -> 1 + x
SINGER7 = BitMatrix(7, tuple(1 << (i + 1) for i in range(6)) + (0b11,))


_UNDECIDED, _IN, _OUT = 0, 1, 2


class DictSearch:
    """Oracle for _Search: the same tree, with its state in dicts and lists.

    DFS over columns with row-count propagation.  Columns are ordered
    largest orbit first, ties by index.  Each node branches on the
    tightest unsatisfied row (least slack between its reachable mass and
    lam, ties by row index) and decides that row's first undecided column
    in the column order, include before exclude.  Decisions are undone
    from a trail.  It has no subset-sum check before the first node.
    """

    def __init__(self, system, lam, forbidden, node_budget):
        self.lam = lam
        self.budget = node_budget
        self.nodes = 0
        sizes = system.k_orbits.sizes
        self.order = sorted(
            (j for j in range(system.n_cols) if j not in forbidden),
            key=lambda j: (-sizes[j], j),
        )
        tau = system.n_rows
        self.col_rows = {}
        row_cols = [[] for _ in range(tau)]
        for j in self.order:
            entries = []
            for i in range(tau):
                a = system.matrix[i][j]
                if a:
                    entries.append((i, a))
                    row_cols[i].append((j, a))
            self.col_rows[j] = tuple(entries)
        self.row_cols = [tuple(e) for e in row_cols]
        self.cnt = [0] * tau
        self.avail = [sum(a for _, a in cols) for cols in self.row_cols]
        self.state = {j: _UNDECIDED for j in self.order}
        self.n_undecided = len(self.order)
        self.trail = []

    def _apply(self, j, kind, touched):
        self.state[j] = kind
        self.n_undecided -= 1
        self.trail.append((j, kind))
        for i, a in self.col_rows[j]:
            if kind == _IN:
                self.cnt[i] += a
            self.avail[i] -= a
            touched.append(i)

    def _undo_to(self, mark):
        while len(self.trail) > mark:
            j, kind = self.trail.pop()
            self.state[j] = _UNDECIDED
            self.n_undecided += 1
            for i, a in self.col_rows[j]:
                if kind == _IN:
                    self.cnt[i] -= a
                self.avail[i] += a

    def _propagate(self, touched):
        lam = self.lam
        while touched:
            i = touched.pop()
            c = self.cnt[i]
            if c > lam or c + self.avail[i] < lam:
                return False
            if c == lam or c + self.avail[i] == lam:
                kind = _OUT if c == lam else _IN
                for j, _ in self.row_cols[i]:
                    if self.state[j] == _UNDECIDED:
                        self._apply(j, kind, touched)
        return True

    def solutions(self):
        if not self._propagate(list(range(len(self.cnt)))):
            return
        frames = []  # (column, phase, trail mark before the decision)

        def backtrack():
            while frames:
                j, phase, mark = frames.pop()
                self._undo_to(mark)
                if phase == 0:
                    frames.append((j, 1, mark))
                    touched = []
                    self._apply(j, _OUT, touched)
                    if self._propagate(touched):
                        return True
            return False

        while True:
            if self.n_undecided == 0:
                yield frozenset(c for c, st in self.state.items() if st == _IN)
                if not backtrack():
                    return
                continue
            j = self._branch_column()
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded(self.nodes)
            frames.append((j, 0, len(self.trail)))
            touched = []
            self._apply(j, _IN, touched)
            if not self._propagate(touched) and not backtrack():
                return

    def _branch_column(self):
        lam = self.lam
        slack, best_i = min(
            (self.cnt[i] + self.avail[i] - lam, i)
            for i in range(len(self.cnt))
            if self.cnt[i] < lam
        )
        return next(j for j, _ in self.row_cols[best_i] if self.state[j] == _UNDECIDED)


class LowBitSearch(_Search):
    """Oracle for _Search._propagate: the same rules, each mask walked from its lowest bit with x & -x."""

    def _propagate(self, cnt, tot, undecided, included, full_done, tight_done):
        g = self.guards
        lam_rows, lam1_rows = self.lam_rows, self.lam1_rows
        cols_at, vec_at = self.row_cols_at, self.vec_at
        while True:
            c, t = cnt | g, tot | g
            if (c - lam1_rows) & g or (t - lam_rows) & g != g:
                return None
            full = (c - lam_rows) & g
            tight = g ^ ((t - lam1_rows) & g)
            new_full, new_tight = full & ~full_done, tight & ~tight_done
            if not new_full | new_tight:
                return cnt, tot, undecided, included, full, tight
            full_done, tight_done = full, tight
            out = inn = 0
            while new_full:
                low = new_full & -new_full
                out |= cols_at[low.bit_length()]
                new_full ^= low
            while new_tight:
                low = new_tight & -new_tight
                inn |= cols_at[low.bit_length()]
                new_tight ^= low
            out &= undecided
            inn &= undecided
            if out & inn:
                return None
            undecided ^= out | inn
            included |= inn
            while out:
                low = out & -out
                tot -= vec_at[low.bit_length()]
                out ^= low
            while inn:
                low = inn & -inn
                cnt += vec_at[low.bit_length()]
                inn ^= low


def oracle_solve_exact(system, lam, forbidden=(), node_budget=2_000_000):
    search = DictSearch(system, lam, frozenset(forbidden), node_budget)
    try:
        sel = next(search.solutions(), None)
    except BudgetExceeded as e:
        return SolveResult("unknown", None, e.nodes)
    if sel is None:
        return SolveResult("infeasible", None, search.nodes)
    return SolveResult("solved", Selection(sel), search.nodes)


def all_solutions(search):
    """Every solution the search yields, then how it ended and its node count."""
    found = []
    try:
        for sel in search.solutions():
            found.append(sel)
    except BudgetExceeded as e:
        return found, e.nodes, search.nodes
    return found, None, search.nodes


@lru_cache(maxsize=None)
def small_system(v, t, k, generator_rows):
    group = close_group([BitMatrix(v, generator_rows)]) if generator_rows else trivial_group(v)
    return build_km(v, t, k, group)


@st.composite
def small_searches(draw):
    """A real system for v <= 5 under a trivial or random cyclic group, and search arguments."""
    v = draw(st.integers(2, 5))
    k = draw(st.integers(1, v))
    t = draw(st.integers(0, k))
    gen = ()
    if draw(st.booleans()):
        rows = tuple(draw(st.lists(st.integers(1, (1 << v) - 1), min_size=v, max_size=v)))
        if rank_raw(rows) == v:
            gen = rows
    system = small_system(v, t, k, gen)
    lam = draw(st.integers(0, system.lambda_max))
    forbidden = frozenset(draw(st.sets(st.integers(0, system.n_cols - 1), max_size=system.n_cols // 3)))
    budget = draw(st.integers(0, 400))
    return system, lam, forbidden, budget


@settings(max_examples=200, deadline=None)
@given(small_searches())
def test_search_matches_dict_oracle(case):
    system, lam, forbidden, budget = case
    got = _Search(system, lam, forbidden, budget)
    want = DictSearch(system, lam, forbidden, budget)
    if got.unreachable_row() is None:
        assert all_solutions(got) == all_solutions(want)
        assert solve_exact(system, lam, forbidden, budget) == oracle_solve_exact(
            system, lam, forbidden, budget
        )
    else:
        # proved infeasible before the first node; the oracle finds nothing either
        assert all_solutions(got) == ([], None, 0)
        assert all_solutions(want)[0] == []


def test_singer_first_solution_node_counts():
    system = build_km(7, 2, 3, close_group([SINGER7]))
    assert (system.n_rows, system.n_cols) == (21, 93)
    for lam, nodes in ((3, 1442), (4, 2050)):
        res = solve_exact(system, lam)
        assert res.status == "solved"
        assert res.nodes == nodes
        assert res == oracle_solve_exact(system, lam)
        design = design_from_selection(system, res.selection, lam, verify=False)
        assert verify_design(design) == lam


def test_top_bit_walks_match_the_low_bit_oracle(monkeypatch):
    # the G204 lambda = 217 system on a 20,000-node budget, and the Singer (7,2,3) systems at lambda = 2..6
    from qdesigns.catalog import builtin_group

    cases = [(build_km(8, 2, 4, builtin_group()), 217, 20_000)]
    cases += [(build_km(7, 2, 3, close_group([SINGER7])), lam, 2_000_000) for lam in range(2, 7)]
    got = [solve_exact(system, lam, node_budget=budget) for system, lam, budget in cases]
    monkeypatch.setattr(kramer_mesner, "_Search", LowBitSearch)
    want = [solve_exact(system, lam, node_budget=budget) for system, lam, budget in cases]
    assert got == want
    assert [r.status for r in got] == ["unknown", "infeasible", "solved", "solved", "solved", "solved"]


def gf256_normalizer():
    """The Singer normalizer GammaL(1, 2^8) of order 2040 on GF(2)^8.

    GF(2^8) = GF(2)[x]/(x^8 + x^4 + x^3 + x^2 + 1) in the basis 1, x, ..., x^7;
    the generators are multiplication by x and the Frobenius map a -> a^2.
    """
    poly = 0b100011101

    def times_x(a):
        a <<= 1
        return a ^ poly if a >> 8 else a

    def square_of_basis(i):
        a = 1
        for _ in range(2 * i):
            a = times_x(a)
        return a

    singer = BitMatrix(8, tuple(times_x(1 << i) for i in range(8)))
    frobenius = BitMatrix(8, tuple(square_of_basis(i) for i in range(8)))
    return close_group([singer, frobenius])


def test_unreachable_row_proves_infeasible_at_the_root():
    group = gf256_normalizer()
    assert group.order == 2040
    system = build_km(8, 2, 3, group)
    lam = 21
    rows = [i for i, row in enumerate(system.matrix) if sorted(a for a in row if a) == [3, 12, 24, 24]]
    assert rows
    assert _Search(system, lam, frozenset(), 0).unreachable_row() == rows[0]
    assert solve_exact(system, lam) == SolveResult("infeasible", None, 0)
    # without the check the same tree runs out of a budget that large
    assert oracle_solve_exact(system, lam, node_budget=2000).status == "unknown"
    res = iterated_large_set_search(system, system.lambda_max // lam)
    assert res.status == "exhausted" and res.nodes == 0


def test_reachable_rows_keep_the_tree():
    system = build_km(7, 2, 3, close_group([SINGER7]))
    for lam in range(2, 7):
        assert _Search(system, lam, frozenset(), 0).unreachable_row() is None


def test_build_trivial_group_4_1_2():
    sys = build_km(4, 1, 2, trivial_group(4))
    assert sys.n_rows == 15 and sys.n_cols == 35
    assert sys.lambda_max == 7
    for row in sys.matrix:
        assert sum(row) == 7
        assert set(row) <= {0, 1}


def test_build_weighted_column_identity():
    for sys in (
        build_km(4, 1, 2, trivial_group(4)),
        build_km(3, 1, 2, close_group([SHIFT3])),
    ):
        kt = gaussian_binomial(sys.k, sys.t)
        for j in range(sys.n_cols):
            weighted = sum(
                sys.t_orbits.sizes[i] * sys.matrix[i][j] for i in range(sys.n_rows)
            )
            assert weighted == sys.k_orbits.sizes[j] * kt


def test_build_transitive_group_collapses_to_one_cell():
    sys = build_km(3, 1, 2, close_group([SHIFT3]))
    assert sys.n_rows == 1 and sys.n_cols == 1
    assert sys.matrix == ((3,),)


def test_build_t_equals_k_is_permutation_like():
    sys = build_km(4, 2, 2, trivial_group(4))
    assert sys.n_rows == sys.n_cols == 35
    for j in range(35):
        col = [sys.matrix[i][j] for i in range(35)]
        assert sorted(col) == [0] * 34 + [1]


def oracle_matrix(system) -> tuple[tuple[int, ...], ...]:
    """The incidence matrix of a system, each local t-subspace of a k-orbit
    representative mapped into GF(2)^v row by row and reduced by span."""
    v, t_orbits, k_orbits = system.v, system.t_orbits, system.k_orbits
    local = [s.rows for s in enumerate_grassmannian(system.k, system.t)]
    matrix = [[0] * k_orbits.n_orbits for _ in range(t_orbits.n_orbits)]
    for j, krep in enumerate(k_orbits.representatives):
        counts = Counter(
            t_orbits.orbit_index(span(v, [vec_mat(mask, krep.rows) for mask in loc_rows]))
            for loc_rows in local
        )
        for i, c in counts.items():
            matrix[i][j] = k_orbits.sizes[j] * c // t_orbits.sizes[i]
    return tuple(map(tuple, matrix))


@pytest.mark.parametrize(
    "v,t,k,group",
    [
        (8, 2, 4, "builtin"),
        (7, 2, 3, "singer"),
        (7, 0, 3, "singer"),
        (5, 0, 2, "trivial"),
        (5, 3, 3, "trivial"),
        (4, 2, 2, "trivial"),
        (6, 2, 3, "trivial"),
    ],
)
def test_build_matches_mapped_local_subspaces(v, t, k, group):
    if group == "builtin":
        from qdesigns.catalog import builtin_group

        g = builtin_group()
    else:
        g = close_group([SINGER7]) if group == "singer" else trivial_group(v)
    system = build_km(v, t, k, g)
    assert system.matrix == oracle_matrix(system)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
@pytest.mark.parametrize("v,group", [(6, "trivial"), (7, "singer")])
def test_build_in_small_chunks_matches_mapped_local_subspaces(monkeypatch, v, group, chunk):
    # designs._incidences cuts the representatives into chunks of max((_COUNT_BATCH << 5) >> v, 1)
    monkeypatch.setattr(designs, "_COUNT_BATCH", (chunk << v) >> 5)
    system = build_km(v, 2, 3, close_group([SINGER7]) if group == "singer" else trivial_group(v))
    assert system.matrix == oracle_matrix(system)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_km(4, 3, 2, trivial_group(4))


def test_solve_spread_of_pg32():
    sys = build_km(4, 1, 2, trivial_group(4))
    res = solve_exact(sys, 1)
    assert res.status == "solved"
    assert len(res.selection.chosen) == 5
    blocks = selection_blocks(sys, res.selection)
    assert len(blocks) == 5
    for a in blocks:
        for b in blocks:
            if a != b:
                assert intersection(a, b).dim == 0
    verify_design(design_from_selection(sys, res.selection, 1, verify=False))


def test_solve_is_deterministic():
    sys = build_km(4, 1, 2, trivial_group(4))
    first = solve_exact(sys, 1)
    second = solve_exact(sys, 1)
    assert first == second


def test_solve_full_lambda_selects_everything():
    sys = build_km(4, 1, 2, trivial_group(4))
    res = solve_exact(sys, sys.lambda_max)
    assert res.status == "solved"
    assert res.selection.chosen == frozenset(range(35))


def test_solve_all_columns_forbidden_is_infeasible():
    sys = build_km(4, 1, 2, trivial_group(4))
    res = solve_exact(sys, 1, forbidden=range(35))
    assert res.status == "infeasible"
    assert res.selection is None


def test_solve_counting_obstruction_is_infeasible():
    # 7 points, 3 per block: no 1-(3,2,1) design exists
    sys = build_km(3, 1, 2, trivial_group(3))
    res = solve_exact(sys, 1)
    assert res.status == "infeasible"


def test_solve_budget_zero_reports_unknown():
    sys = build_km(4, 1, 2, trivial_group(4))
    res = solve_exact(sys, 1, node_budget=0)
    assert res.status == "unknown"
    assert res.selection is None


def test_solve_rejects_bad_arguments():
    sys = build_km(4, 1, 2, trivial_group(4))
    with pytest.raises(ValueError):
        solve_exact(sys, sys.lambda_max + 1)
    with pytest.raises(ValueError):
        solve_exact(sys, 1, forbidden=[99])


def test_parallelism_of_pg32():
    sys = build_km(4, 1, 2, trivial_group(4))
    res = iterated_large_set_search(sys, 7)
    assert res.status == "solved"
    assert len(res.selections) == 7
    assert all(len(sel.chosen) == 5 for sel in res.selections)
    report = verify_large_set(res.large_set)
    assert report.lam == 1
    assert report.blocks_per_design == (5,) * 7


def test_iterated_n1_returns_trivial_design():
    sys = build_km(4, 1, 2, trivial_group(4))
    res = iterated_large_set_search(sys, 1)
    assert res.status == "solved"
    assert res.selections[0].chosen == frozenset(range(35))
    assert len(res.large_set.designs[0].blocks) == 35


def test_iterated_rejects_nondividing_n():
    sys = build_km(4, 1, 2, trivial_group(4))
    with pytest.raises(ValueError):
        iterated_large_set_search(sys, 2)


def test_iterated_infeasible_round_gives_trace():
    sys = build_km(3, 1, 2, trivial_group(3))
    res = iterated_large_set_search(sys, 3)
    assert res.status == "exhausted"
    assert res.large_set is None
    assert res.selections == ()
    assert any("round 0" in line for line in res.trace)


def test_exhausted_search_counts_its_nodes():
    system = build_km(5, 2, 3, trivial_group(5))
    assert solve_exact(system, 1) == SolveResult("infeasible", None, 55)
    res = iterated_large_set_search(system, 7)
    assert (res.status, res.nodes) == ("exhausted", 55)


def test_dropped_rounds_keep_their_nodes(monkeypatch):
    made = []

    class RecordedSearch(_Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(kramer_mesner, "_Search", RecordedSearch)
    system = build_km(6, 1, 2, trivial_group(6))
    res = iterated_large_set_search(system, 31, node_budget=20_000, retry_budget=20)
    assert res.status == "retry_limit" and res.retries == 21
    assert res.nodes == sum(s.nodes for s in made) == 3780


def test_retry_limit_search_keeps_its_whole_trace():
    system = build_km(6, 1, 2, trivial_group(6))
    res = iterated_large_set_search(system, 31, node_budget=20_000, retry_budget=20)
    assert (len(res.trace), len(res.selections)) == (90, 26)
    assert res.trace[-1] == "retry budget 20 exhausted"
    digest = hashlib.sha256("\n".join(res.trace).encode()).hexdigest()
    assert digest == "c3b1526961f93620b16409d6ea14dbae4b8395661eaf6128015e77b0405cbe92"


def test_more_rounds_than_the_recursion_limit():
    # LS_2[1395](0,3,6): one round per 3-subspace of GF(2)^6, and 1395
    # rounds is deeper than Python's default recursion limit of 1000
    system = build_km(6, 0, 3, trivial_group(6))
    res = iterated_large_set_search(system, system.lambda_max)
    assert (res.status, res.nodes, res.retries) == ("solved", 1394, 0)
    assert len(res.selections) == len(res.large_set.designs) == 1395


def test_iterated_budget_exhaustion_is_reported():
    sys = build_km(4, 1, 2, trivial_group(4))
    res = iterated_large_set_search(sys, 7, node_budget=0)
    assert res.status == "budget"
    assert res.large_set is None


def test_iterated_seeded_rounds_are_respected():
    sys = build_km(4, 1, 2, trivial_group(4))
    seed = solve_exact(sys, 1).selection.chosen
    res = iterated_large_set_search(sys, 7, seed_selections=[seed])
    assert res.status == "solved"
    assert res.selections[0].chosen == seed


def test_iterated_rejects_bad_seeds():
    sys = build_km(4, 1, 2, trivial_group(4))
    with pytest.raises(ValueError):
        iterated_large_set_search(sys, 7, seed_selections=[{0, 1, 2, 3, 4}])
    seed = solve_exact(sys, 1).selection.chosen
    with pytest.raises(ValueError):
        iterated_large_set_search(sys, 7, seed_selections=[seed, seed])


def test_iterated_rejects_seed_columns_outside_the_system():
    # column -1 must not be read as the last column, nor 35 past the end
    sys = build_km(4, 1, 2, trivial_group(4))
    with pytest.raises(ValueError, match=r"out of range: \[-1\]"):
        iterated_large_set_search(sys, 7, seed_selections=[{-1, 0, 7, 9, 14}])
    with pytest.raises(ValueError, match=r"out of range: \[35\]"):
        iterated_large_set_search(sys, 7, seed_selections=[{0, 7, 9, 14, 35}])


def test_seeded_tables_force_third_round():
    # with two of the three shipped solutions fixed, the third is the
    # complement and propagation finds it without branching
    from qdesigns.catalog import (
        builtin_group,
        builtin_orbit_representatives,
        decode_quadruple,
    )

    sys = build_km(8, 2, 4, builtin_group())
    cols = []
    for idx in (1, 2, 3):
        cols.append({
            sys.k_orbits.orbit_index(span(8, decode_quadruple(rec).rows))
            for rec in builtin_orbit_representatives(idx)
        })
    res = iterated_large_set_search(sys, 3, seed_selections=cols[:2])
    assert res.status == "solved"
    assert res.nodes == 0
    assert res.selections[2].chosen == frozenset(cols[2])


def test_dump_round_trip(tmp_path):
    sys = build_km(4, 1, 2, trivial_group(4))
    path = tmp_path / "system.km"
    write_km_system(sys, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "15 35 7"
    assert [tuple(map(int, line.split())) for line in lines[1:]] == list(sys.matrix)
    for suffix, dim, orbits in (("treps", 1, sys.t_orbits), ("kreps", 2, sys.k_orbits)):
        header, *reps = (tmp_path / f"system.km.{suffix}").read_text().splitlines()
        assert header == f"v=4 dim={dim} count={orbits.n_orbits}"
        assert [tuple(map(int, line.split())) for line in reps] == [
            s.rows for s in orbits.representatives
        ]


def test_selection_blocks_expands_orbits():
    sys = build_km(3, 1, 2, close_group([SHIFT3]))
    blocks = selection_blocks(sys, solve_exact(sys, 3).selection)
    assert blocks == frozenset(span(3, [r for r in (p.rows)]) for p in blocks)
    assert len(blocks) == 7


def test_wide_row_fields_match_dict_oracle():
    # t = 0: one row holding every orbit size, lambda_max = [8 3]_2 = 97155,
    # too large for 16-bit row fields
    from qdesigns.catalog import builtin_group

    system = build_km(8, 0, 3, builtin_group())
    assert system.lambda_max == 97155
    row = system.matrix[0]
    for lam in (0, sum(row[:3]), sum(row[: system.n_cols // 2]), system.lambda_max):
        got = _Search(system, lam, frozenset(), 300)
        assert got.width > 16 and got.unreachable_row() is None
        assert all_solutions(got) == all_solutions(DictSearch(system, lam, frozenset(), 300))
