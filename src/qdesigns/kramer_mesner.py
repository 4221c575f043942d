"""Orbit incidence systems and exact 0/1 design search.

For a group G acting on GF(2)^v, the incidence system has one row per
G-orbit of t-subspaces and one column per G-orbit of k-subspaces; entry
a[i][j] counts the blocks of orbit j through a fixed member of orbit i.
A column selection J solves A*x = lam*1 exactly when the union of the
selected orbits is a t-(v,k,lam) design, and repeating the search with
previously used columns forbidden partitions the Grassmannian into a
large set.

The solver is a deterministic depth-first search with unit propagation
on the row counts, held in packed integers: every row count is a field
of one int, so one addition updates all rows a column touches and one
subtraction compares all rows with lambda.  Before the first node, a
row with no subset of entries summing to lambda proves the system
infeasible.  Search effort is metered by an explicit node budget;
running out of budget is reported as "unknown", which is never
conflated with a proven "infeasible".
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .designs import Design, LargeSet, _chunks, _incidences, large_set, verify_design, verify_large_set
from .grassmann import Subspace, gaussian_binomial
from .groups import Group, OrbitPartition, orbit_partition

__all__ = [
    "BudgetExceeded",
    "KMSystem",
    "LargeSetSearchResult",
    "Selection",
    "SolveResult",
    "SolverInvariantError",
    "build_km",
    "design_from_selection",
    "iterated_large_set_search",
    "selection_blocks",
    "solve_exact",
    "write_km_system",
]

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_RETRY_BUDGET = 64


class SolverInvariantError(RuntimeError):
    """Raised when the search reaches a state its own rules rule out."""


class BudgetExceeded(Exception):
    """Raised when a search runs out of its node budget."""

    def __init__(self, nodes: int):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class KMSystem:
    """Incidence system A for (group, t, k): rows t-orbits, columns k-orbits."""

    v: int
    t: int
    k: int
    group: Group
    t_orbits: OrbitPartition
    k_orbits: OrbitPartition
    matrix: tuple[tuple[int, ...], ...]
    lambda_max: int

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return self.k_orbits.n_orbits


class Selection(NamedTuple):
    chosen: frozenset[int]


class SolveResult(NamedTuple):
    status: str  # "solved" | "infeasible" | "unknown"
    selection: Optional[Selection]
    nodes: int


class LargeSetSearchResult(NamedTuple):
    status: str  # "solved" | "exhausted" | "budget" | "retry_limit"
    large_set: Optional[LargeSet]
    selections: tuple[Selection, ...]
    trace: tuple[str, ...]
    nodes: int
    retries: int


def build_km(v: int, t: int, k: int, group: Group) -> KMSystem:
    """Build the orbit incidence matrix by counting on the k-side.

    One pass of designs._incidences over the k-orbit representatives gives,
    for each t-subspace by rank, the representatives that hold it; its
    t-orbit is read from the rank.  The count c of t-orbit i in the
    representative of k-orbit j satisfies |T_i| * a[i][j] = |K_j| * c, and
    the division must be exact.
    """
    if not 0 <= t <= k <= v:
        raise ValueError(f"need 0 <= t <= k <= v, got t={t} k={k} v={v}")
    t_orbits = orbit_partition(v, t, group)
    k_orbits = orbit_partition(v, k, group)
    matrix = [[0] * k_orbits.n_orbits for _ in range(t_orbits.n_orbits)]
    row_of = t_orbits._orbit_of_rank
    for start, held in _incidences(_chunks(k_orbits.representatives), v, t, k):
        for rank, bits in enumerate(held):
            row = matrix[row_of[rank]]
            while bits:
                low = bits & -bits
                row[start + low.bit_length() - 1] += 1
                bits ^= low
    for i, row in enumerate(matrix):
        for j in filter(row.__getitem__, range(len(row))):  # the nonzero counts
            a, r = divmod(k_orbits.sizes[j] * row[j], t_orbits.sizes[i])
            if r:
                raise ArithmeticError(f"orbit count reconciliation not integral at row {i}, column {j}")
            row[j] = a

    lam_max = gaussian_binomial(v - t, k - t)
    for i, row in enumerate(matrix):
        if sum(row) != lam_max:
            raise ArithmeticError(f"row {i} sums to {sum(row)}, expected {lam_max}")
    return KMSystem(v, t, k, group, t_orbits, k_orbits, tuple(map(tuple, matrix)), lam_max)


# array typecodes by item width in bits, for reading packed row fields
_FIELD_TYPES = {array(tc).itemsize * 8: tc for tc in "QLIH"}


class _Search:
    """DFS over columns with row-count propagation, on packed integers.

    Columns are ordered largest orbit first, ties by index.  Each node
    branches on the tightest unsatisfied row (least slack between its
    reachable mass and lam, ties by row index) and decides that row's
    first undecided column in the column order, include before exclude.
    A row whose count hits lam excludes every undecided column through
    it; a row whose count plus undecided mass exactly meets lam includes
    them all; a row that can no longer reach lam fails the branch.  When
    no row fails, these rules reach one fixpoint in any order of
    application, so they are applied to all rows at once.

    Row i's count is the field at bits [i*w, (i+1)*w) of the int cnt, and
    its reachable total (count plus undecided mass) the same field of
    tot; the top bit of each field is a guard that stays clear, so one
    subtraction compares every row with lam.  Columns are positions in
    the column order: including one adds its packed column to cnt,
    excluding it subtracts that from tot.  The undecided and included
    columns are bitmasks over positions, and so is each row's column set.
    A node is six ints: cnt, tot, undecided, included, and the guards of
    the rows at count lam and at total lam.  A backtracking frame holds
    them, so undoing a decision is one restore.
    Before the first node, a row whose entries have no subset summing to
    lam proves the system infeasible.
    """

    def __init__(self, system: KMSystem, lam: int, forbidden: frozenset[int], node_budget: int):
        if lam < 0 or lam > system.lambda_max:
            raise ValueError(f"lambda {lam} outside [0, {system.lambda_max}]")
        if node_budget < 0:
            raise ValueError(f"node budget {node_budget} is negative")
        self.lam = lam
        self.budget = node_budget
        self.nodes = 0
        sizes = system.k_orbits.sizes
        self.order = sorted((j for j in range(system.n_cols) if j not in forbidden), key=lambda j: (-sizes[j], j))
        fits = [w for w in _FIELD_TYPES if system.lambda_max + 1 < 1 << (w - 1)]
        if not fits:
            raise ValueError(f"lambda_max {system.lambda_max} does not fit a packed row field")
        w = self.width = min(fits)
        tau = system.n_rows
        one = sum(1 << (i * w) for i in range(tau))
        self.guards = one << (w - 1)
        self.lam_rows = lam * one
        self.lam1_rows = (lam + 1) * one
        # column vectors, row column sets and the bits themselves, each indexed
        # by the bit length of the column's bit or the row's guard bit
        self.vec_at = [0]
        self.row_cols = [0] * tau
        self.row_entries: list[list[int]] = [[] for _ in range(tau)]
        for p, j in enumerate(self.order):
            vec = 0
            for i in range(tau):
                a = system.matrix[i][j]
                if a:
                    vec |= a << (i * w)
                    self.row_cols[i] |= 1 << p
                    self.row_entries[i].append(a)
            self.vec_at.append(vec)
        self.row_cols_at = {(i + 1) * w: cols for i, cols in enumerate(self.row_cols)}
        self.bit_at = [0] + [1 << b for b in range(max(len(self.order), tau * w))]

    def _propagate(
        self, cnt: int, tot: int, undecided: int, included: int, full_done: int, tight_done: int
    ) -> Optional[tuple[int, int, int, int, int, int]]:
        """Fixpoint of the row rules as a node, or None if a row fails.

        Rows in full_done (count lam) and tight_done (total lam) have had
        their rule applied already and keep no undecided column.
        """
        g = self.guards
        lam_rows, lam1_rows = self.lam_rows, self.lam1_rows
        cols_at, vec_at, bit_at = self.row_cols_at, self.vec_at, self.bit_at
        while True:
            c, t = cnt | g, tot | g
            if (c - lam1_rows) & g or (t - lam_rows) & g != g:
                return None  # a count above lam, or a total below it
            full = (c - lam_rows) & g
            tight = g ^ ((t - lam1_rows) & g)
            new_full, new_tight = full & ~full_done, tight & ~tight_done
            if not new_full | new_tight:
                return cnt, tot, undecided, included, full, tight
            full_done, tight_done = full, tight
            out = inn = 0
            while new_full:  # each mask is walked from its top bit: one lookup and one XOR per bit
                b = new_full.bit_length()
                out |= cols_at[b]
                new_full ^= bit_at[b]
            while new_tight:
                b = new_tight.bit_length()
                inn |= cols_at[b]
                new_tight ^= bit_at[b]
            out &= undecided
            inn &= undecided
            if out & inn:
                return None
            undecided ^= out | inn
            included |= inn
            while out:
                b = out.bit_length()
                tot -= vec_at[b]
                out ^= bit_at[b]
            while inn:
                b = inn.bit_length()
                cnt += vec_at[b]
                inn ^= bit_at[b]

    def _branch(self, full: int, tot: int, undecided: int) -> int:
        """Bit of the first undecided column of the unsatisfied row with least slack."""
        w = self.width
        low = full >> (w - 1)
        # slack of every row, all ones in the field of a satisfied row
        slack = (tot - self.lam_rows) | ((low << w) - low)
        fields = array(_FIELD_TYPES[w], slack.to_bytes(len(self.row_cols) * w // 8, sys.byteorder))
        least = min(fields)
        if least == (1 << w) - 1:
            raise SolverInvariantError("undecided column with all-zero entries")
        cols = self.row_cols[fields.index(least)] & undecided
        if not cols:
            raise SolverInvariantError("unsatisfied row with no undecided column")
        return cols & -cols

    def unreachable_row(self) -> Optional[int]:
        """First row none of whose entry subsets sums to lam, or None."""
        lam = self.lam
        keep = (2 << lam) - 1
        for i, entries in enumerate(self.row_entries):
            reach = 1  # bit s: some subset sums to s
            for a in entries:
                reach = (reach | reach << a) & keep
            if not reach >> lam:
                return i
        return None

    def solutions(self) -> Iterator[frozenset[int]]:
        """Yield solutions in deterministic DFS order; raises BudgetExceeded."""
        if self.unreachable_row() is not None:
            return
        vec_at = self.vec_at
        state = self._propagate(0, sum(vec_at), (1 << (len(vec_at) - 1)) - 1, 0, 0, 0)
        frames: list[tuple[int, tuple[int, ...]]] = []  # (column bit branched on, node)

        def backtrack() -> Optional[tuple[int, ...]]:
            while frames:
                bit, (cnt, tot, undecided, included, full, tight) = frames.pop()
                nxt = self._propagate(cnt, tot - vec_at[bit.bit_length()], undecided ^ bit, included, full, tight)
                if nxt is not None:
                    return nxt
            return None

        while state is not None:
            cnt, tot, undecided, included, full, tight = state
            if not undecided:
                yield frozenset(self.order[p] for p in range(len(self.order)) if included >> p & 1)
                state = backtrack()
                continue
            bit = self._branch(full, tot, undecided)
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded(self.nodes)
            frames.append((bit, state))
            cnt += vec_at[bit.bit_length()]
            state = self._propagate(cnt, tot, undecided ^ bit, included | bit, full, tight)
            if state is None:
                state = backtrack()


def solve_exact(system: KMSystem, lam: int, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """First exact 0/1 solution of A*x = lam*1.

    "infeasible" means the search space was exhausted; "unknown" means
    the node budget ran out first.
    """
    search = _Search(system, lam, frozenset(), node_budget)
    try:
        sel = next(search.solutions(), None)
    except BudgetExceeded as e:
        return SolveResult("unknown", None, e.nodes)
    if sel is None:
        return SolveResult("infeasible", None, search.nodes)
    return SolveResult("solved", Selection(sel), search.nodes)


def selection_blocks(system: KMSystem, selection: Selection) -> frozenset[Subspace]:
    return frozenset(chain.from_iterable(map(system.k_orbits.members, selection.chosen)))


def design_from_selection(system: KMSystem, selection: Selection, lam: int, verify: bool = True) -> Design:
    d = Design(system.v, system.k, system.t, lam, selection_blocks(system, selection))
    if verify:
        verify_design(d)
    return d


def _check_seed(system: KMSystem, lam: int, chosen: frozenset[int]) -> None:
    bad = [j for j in chosen if not 0 <= j < system.n_cols]
    if bad:
        raise ValueError(f"seed column out of range: {sorted(bad)}")
    for i in range(system.n_rows):
        got = sum(system.matrix[i][j] for j in chosen)
        if got != lam:
            raise ValueError(f"seed selection gives row {i} count {got}, expected {lam}")


def iterated_large_set_search(
    system: KMSystem,
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    retry_budget: int = DEFAULT_RETRY_BUDGET,
    seed_selections: Optional[Sequence[Iterable[int]]] = None,
) -> LargeSetSearchResult:
    """Search for a large set by solving N rounds with column removal.

    Each round solves with lam = lambda_max/N against the columns used so
    far.  When a round comes up empty the previous searched round is
    advanced to its next solution; every such advance costs one retry.
    Seed rounds are fixed: they are validated, never revisited.  A solved
    search's large set is verified.
    """
    if n < 1:
        raise ValueError(f"a large set needs N >= 1 members, got N={n}")
    if node_budget < 0:
        raise ValueError(f"node budget {node_budget} is negative")
    if retry_budget < 0:
        raise ValueError(f"retry budget {retry_budget} is negative")
    lam, rem = divmod(system.lambda_max, n)
    if rem:
        raise ValueError(f"{n} does not divide lambda_max = {system.lambda_max}")

    rounds: list[frozenset[int]] = []  # the seed rounds, then each searched round's solution
    for raw in seed_selections or ():
        chosen = frozenset(raw)
        if chosen & frozenset().union(*rounds):
            raise ValueError("seed selections overlap")
        _check_seed(system, lam, chosen)
        rounds.append(chosen)
    n_seeds = len(rounds)
    if n_seeds > n:
        raise ValueError(f"{n_seeds} seed rounds for an N={n} search")

    trace: list[str] = []
    pending: list[Iterator[frozenset[int]]] = []  # per searched round, then the round being searched
    searches: list[_Search] = []  # every round's search, dropped ones included
    retries = 0
    status = "solved"
    while len(rounds) < n:
        r = len(rounds)
        if len(pending) == r - n_seeds:  # round r has no search yet
            searches.append(_Search(system, lam, frozenset().union(*rounds), node_budget))
            pending.append(searches[-1].solutions())
        try:
            rounds.append(next(pending[-1]))
            trace.append(f"round {r}: solved")
        except StopIteration:
            trace.append(f"round {r}: solutions exhausted")
            pending.pop()
            if not pending:
                trace.append("no searched round left to advance; giving up")
                status = "exhausted"
                break
            rounds.pop()
            retries += 1
            trace.append(f"advancing round {r - 1} (retry {retries})")
            if retries > retry_budget:
                trace.append(f"retry budget {retry_budget} exhausted")
                status = "retry_limit"
                break
        except BudgetExceeded as e:
            trace.append(f"round {r}: {e}")
            status = "budget"
            break

    selections = tuple(map(Selection, rounds))
    ls = None
    if status == "solved":
        missing = sorted(set(range(system.n_cols)).difference(*rounds))
        if missing:
            raise SolverInvariantError(f"rounds leave columns uncovered: {missing[:10]}")
        ls = large_set(system.v, system.k, system.t, (selection_blocks(system, s) for s in selections))
        verify_large_set(ls)
    return LargeSetSearchResult(status, ls, selections, tuple(trace), sum(s.nodes for s in searches), retries)


# ---------------------------------------------------------------------------
# matrix dump format
#
# Matrix file: first line "tau kappa lambda_max", then tau lines of kappa
# space-separated integers.  Representative sidecars (suffixes .treps and
# .kreps) start with "v=<v> dim=<d> count=<n>" and then give one orbit
# representative per line as its basis rows, the same row encoding design
# files use.


def _write_reps(path: Path, v: int, d: int, reps: Sequence[Subspace]) -> None:
    lines = [f"v={v} dim={d} count={len(reps)}", *(" ".join(map(str, s.rows)) or "0" for s in reps)]
    path.write_text("\n".join(lines) + "\n")


def write_km_system(system: KMSystem, path) -> None:
    p = Path(path)
    head = f"{system.n_rows} {system.n_cols} {system.lambda_max}"
    p.write_text("\n".join([head, *(" ".join(map(str, row)) for row in system.matrix)]) + "\n")
    _write_reps(p.with_name(p.name + ".treps"), system.v, system.t, system.t_orbits.representatives)
    _write_reps(p.with_name(p.name + ".kreps"), system.v, system.k, system.k_orbits.representatives)
