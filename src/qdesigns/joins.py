"""Join construction for subspaces and the recursion it supports.

Two subspaces living at opposite ends of a flag U1 <= U2 can be joined
into a family of subspaces of the ambient space that meet U1 exactly in
the first operand and project onto the second modulo U2.  Applied to
whole partitions of Grassmannians, the join turns two partitions with
equivalence strengths t1 and t2 into one of strength t1 + t2 + 1, which
is the engine behind building large sets in high dimension from a fixed
stock of small ones.

The ambient Grassmannian splits along a flag into cells indexed by the
intersection dimension with a fixed prefix subspace; each cell is
exactly the image of one join.  ``grassmann_decomposition`` produces
the cells, ``compose_partitions`` runs one join at the partition level,
and ``execute_plan`` walks a plan tree from :mod:`.planner` bottom-up,
materializing an actual large set.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby, repeat
from operator import and_, eq, le, lshift, mul, neg, or_, xor
from typing import Callable, Iterable, Iterator, Sequence

from .designs import (
    TRANSFORMS,
    LargeSet,
    VerificationError,
    _batched,
    _chunks,
    _frozen,
    _incidence_counts,
    _within,
    check_disjoint,
    large_set,
    verify_large_set,
)
from .gf2 import span_table
from .grassmann import (
    Subspace,
    _canonical,
    _from_columns,
    _nogc,
    enumerate_grassmannian,
    gaussian_binomial,
    standard_flag_subspace,
)
from .planner import LSParams, PlanNode

__all__ = [
    "JoinChain",
    "DecompositionCell",
    "MissingLeafError",
    "join_chain",
    "avoiding_join",
    "grassmann_decomposition",
    "materialize_cell",
    "compose_partitions",
    "extend_by_hyperplane",
    "execute_plan",
]


@dataclass(frozen=True)
class JoinChain:
    """Standard flag U1 = <e_0 .. e_(a-1)> <= U2 = <e_0 .. e_(b-1)> inside GF(2)^v; other pairs raise ValueError."""

    u1: Subspace
    u2: Subspace

    def __post_init__(self) -> None:
        v, a, b = self.u2.v, self.u1.dim, self.u2.dim
        if a > b or (self.u1, self.u2) != (standard_flag_subspace(v, a), standard_flag_subspace(v, b)):
            raise ValueError("a join's flag must be standard: U1 = <e_0 .. e_(a-1)> <= U2 = <e_0 .. e_(b-1)>")

    @property
    def v(self) -> int:
        return self.u1.v


join_chain = JoinChain  # the flag's constructor under a function's name


def avoiding_join(k1s: Iterable[Subspace], k2s: Iterable[Subspace], chain: JoinChain) -> frozenset[Subspace]:
    """Every K meeting U1 exactly in some K1 of ``k1s``, with K + U2 = K2 = K + U1 for some K2 of ``k2s``.

    Each K1 must sit inside U1 = <e_0 .. e_(a-1)> by its rows alone: one of
    any GF(2)^w, w <= a, is the subspace of U1 with the same rows.  Each K2
    must contain U2; each side's operands share a dimension.  Each pair
    (K1, K2) gives exactly 2^((u1 - dim K1) * (dim K2 - u1)) members, of
    dimension dim K1 + dim K2 - u1, and distinct pairs give disjoint families.
    """
    k1s, k2s, v, a, u2 = list(k1s), list(k2s), chain.v, chain.u1.dim, chain.u2.rows
    if any(s.v != v for s in k2s) or len(set(map(len, k1s))) > 1 or len(set(map(len, k2s))) > 1:
        raise ValueError("operands must live in the chain's ambient space and share a dimension per side")
    if any(r >> a for k1 in k1s for r in k1.rows):
        raise ValueError("first operand must be contained in u1")
    if any(k2.rows[:len(u2)] != u2 for k2 in k2s):
        raise ValueError("second operand must contain u2")
    if not (k1s and k2s):
        return frozenset()
    d1, d2 = len(k1s[0]) - 1, len(k2s[0]) - 1
    # A member meets each coset c_j + U1, c_j over a complement of U1 in K2,
    # in c_j + x_j + K1 for exactly one x_j of a complement of K1 in U1: its
    # rows are K1's and each c_j + x_j.  As the flag is standard, K2's rows
    # after its first a, e_0 .. e_(a-1), span the first complement, and the
    # unit vectors below a at K1's non-pivot columns the second.  Headed by
    # v like a block, the members are cut and transposed by _chunks, then
    # made canonical.
    k1_pivots = [sum(r & -r for r in k1.rows) for k1 in k1s]  # K1s of one pivot mask share a complement in U1
    shifts = {p: span_table([e for e in chain.u1.rows if not e & p]) if d2 > a else () for p in set(k1_pivots)}
    members = itertools.chain.from_iterable(
        itertools.product((v,), *zip(k1.rows), *[[c ^ x for x in xs] for c in cs])
        for k2 in k2s for cs in [k2[a + 1:]] for k1, xs in zip(k1s, map(shifts.get, k1_pivots))
    )
    out = frozenset(itertools.chain.from_iterable(
        _canonical(v, cols[1:], len(cols[0])) for cols in _chunks(members)
    ))
    expect = len(k1s) * len(k2s) << ((a - d1) * (d2 - a))
    if len(out) != expect:
        raise VerificationError(f"avoiding join has {len(out)} members, expected {expect}")
    return out


@dataclass(frozen=True)
class DecompositionCell:
    """One cell of the flag decomposition of a Grassmannian.

    Cell ``i`` holds the k-subspaces whose intersection with the flag
    prefix of dimension s + i + 1 has dimension exactly i while the
    prefix of dimension s + i misses them.  It is the join image of the
    Grassmannian of i-subspaces of GF(2)^(s+i) with the Grassmannian of
    (k-i)-subspaces of GF(2)^(v-s-i-1), along the degenerate flag
    U1 = U2 = prefix of dimension s + i + 1.
    """

    i: int
    s: int
    first_grassmannian: tuple[int, int]
    second_grassmannian: tuple[int, int]
    chain: JoinChain


def grassmann_decomposition(v: int, k: int, s: int) -> list[DecompositionCell]:
    """Cells splitting the k-subspaces of GF(2)^v along a flag, offset s.

    Valid for 0 <= s <= v - k - 1; cell i ranges over 0 <= i <= k.  The
    cells are pairwise disjoint and their union is the full
    Grassmannian.
    """
    if not 0 <= k <= v:
        raise ValueError("need 0 <= k <= v")
    if not 0 <= s <= v - k - 1:
        raise ValueError("need 0 <= s <= v - k - 1")
    cells = []
    for i in range(k + 1):
        u = standard_flag_subspace(v, s + i + 1)
        cells.append(DecompositionCell(
            i=i, s=s, first_grassmannian=(s + i, i),
            second_grassmannian=(v - s - i - 1, k - i), chain=join_chain(u, u)))
    return cells


def materialize_cell(cell: DecompositionCell) -> frozenset[Subspace]:
    """Enumerate one decomposition cell explicitly via its join."""
    (a1, d1), (a2, d2) = cell.first_grassmannian, cell.second_grassmannian
    return compose_partitions([enumerate_grassmannian(a1, d1)], [enumerate_grassmannian(a2, d2)], cell.chain, -1)[0]


def _checked(parts: Iterable[Iterable[Subspace]], fits: Callable, width: int, what: str) -> list[list[Subspace]]:
    """Each part's operands as a list, once fits(s.v, width) holds for each and all share a dimension."""
    local = [list(part) for part in parts]
    if not all(fits(s.v, width) for part in local for s in part):
        raise ValueError(f"{what} operands must have ambient dimension {'at most ' if fits is le else ''}{width}")
    if len({len(s) for part in local for s in part}) > 1:
        raise ValueError(f"{what} operands must share a dimension")
    return local


def _lifted(cols: Sequence[Sequence[int]], head: tuple[int, ...], v: int) -> Iterator[Subspace]:
    """A chunk's operands read into GF(2)^v, rows shifted left past the head rows, which come first; both stay RREF."""
    rows = [repeat(h) for h in head] + [map(lshift, c, repeat(len(head))) for c in cols[1:]]
    return _from_columns(v, rows, len(cols[0]))


@_nogc
def compose_partitions(
    parts1: Sequence[Iterable[Subspace]],
    parts2: Sequence[Iterable[Subspace]],
    chain: JoinChain,
    t: int,
) -> tuple[frozenset[Subspace], ...]:
    """Join two partitions part-by-part, adding indices modulo n.

    Part m of the result is the union of the avoiding joins of every
    member of part i of ``parts1`` with every member of part j of
    ``parts2``, over all i + j = m (mod n).  The flag must be standard:
    U1 = <e_0 .. e_{a-1}> <= U2 = <e_0 .. e_{b-1}>.  Members of ``parts1``
    live in GF(2)^w, w <= a, inside U1 with the same rows, and are joined as
    given.  Members of ``parts2`` live in GF(2)^(v-b), which is V/U2 through
    e_b .. e_{v-1}, so K2 is U2 plus their rows shifted left by b bits; each
    is lifted into GF(2)^v once.
    Distinct pairs yield disjoint join families, so part m has exactly
    sum_i |part i| * |part j| * 2^((u1 - k1) * (k2 - u1)) members.
    ``t`` is the strength t1 + t2 + 1 the parts should share
    (t = -1 claims none).  It is checked, not assumed; a failure here
    means the composition convention is wrong for the operands, so it
    raises rather than returning a bad partition.  The parts are also
    checked to be pairwise disjoint: counting within each part cannot
    see a subspace that lands in two parts.
    """
    n = len(parts1)
    if len(parts2) != n:
        raise ValueError("operands must have the same number of parts")
    v, a, b = chain.v, chain.u1.dim, chain.u2.dim
    first = _checked(parts1, le, a, "first")
    second = [list(_batched(_lifted, part, chain.u2.rows, v)) for part in _checked(parts2, eq, v - b, "second")]
    parts = []
    for m in range(n):  # pieces of one part overlap iff the part is smaller than their sum
        pieces = [avoiding_join(first[i], second[(m - i) % n], chain) for i in range(n)]
        parts.append(pieces[0] if n == 1 else frozenset().union(*pieces))
        expect = sum(map(len, pieces))
        if len(parts[m]) != expect:
            raise VerificationError(f"part {m} has {len(parts[m])} members, expected {expect}")
    check_disjoint(parts)
    if t >= 0:
        k = next((len(s) - 1 for part in parts for s in part), 0)  # the one dimension of every part's members
        counts = _incidence_counts(_chunks(parts[0]), v, t, k)
        for i in range(1, n):
            if _incidence_counts(_chunks(parts[i]), v, t, k) != counts:
                raise VerificationError(
                    f"composition failed the {t}-equivalence check (wrong part-index"
                    f" convention or operands): parts 0 and {i} are not {t}-equivalent"
                )
    return tuple(parts)


def _lifts(cols: Sequence[Sequence[int]], v: int) -> Iterator[Iterator[Subspace]]:
    """The lifts into GF(2)^v of a chunk's blocks inside the hyperplane x_{v-1} = 0, in batches.

    A block with pivot columns P lifts once for each w = e_{v-1} + x, x in the span of
    the unit vectors at the columns below v - 1 outside P.  w has no bit in P, so the
    lift's RREF is the block's rows, with w added to each row that has w's lowest bit,
    and w inserted by that bit: one map per row column for all blocks that share P.
    """
    n, cols = len(cols[0]), cols[1:]
    pivots = list(reduce(partial(map, or_), (map(and_, c, map(neg, c)) for c in cols), repeat(0, n)))
    for mask, members in groupby(sorted(range(n), key=pivots.__getitem__), pivots.__getitem__):
        members = list(members)
        group = [list(map(c.__getitem__, members)) for c in cols]
        for x in span_table([1 << f for f in range(v - 1) if not mask >> f & 1]):
            w = 1 << (v - 1) | x
            low = w & -w
            rows = [map(xor, c, map(mul, map(and_, c, repeat(low)), repeat(w // low))) for c in group]
            rows.insert((mask & (low - 1)).bit_count(), repeat(w))
            yield _from_columns(v, rows, len(members))


@_nogc
def extend_by_hyperplane(ls_small_k: LargeSet, ls_same_k: LargeSet) -> LargeSet:
    """Merge LS(t, k-1, v-1) with LS(t, k, v-1) into LS(t, k, v).

    The second operand's blocks are reread inside the hyperplane of the
    first v - 1 coordinates; each block B of the first operand lifts to
    the k-subspaces that meet the hyperplane exactly in B, each spanned
    by B and one vector outside the hyperplane (see _lifts).
    Pairing is part i with part i.  The result is verified before it is
    returned.
    """
    if ls_small_k.n != ls_same_k.n:
        raise ValueError("operands must have the same number of parts")
    if ls_small_k.v != ls_same_k.v:
        raise ValueError("operands must share an ambient dimension")
    if ls_small_k.t != ls_same_k.t:
        raise ValueError("operands must share a strength")
    if ls_small_k.k != ls_same_k.k - 1:
        raise ValueError("first operand's block dimension must be one less")

    v_out = ls_small_k.v + 1
    out = large_set(v_out, ls_same_k.k, ls_same_k.t, (
        itertools.chain(_batched(_within, same_d.blocks, v_out),
                        itertools.chain.from_iterable(_batched(_lifts, small_d.blocks, v_out)))
        for small_d, same_d in zip(ls_small_k.designs, ls_same_k.designs)
    ))
    try:
        verify_large_set(out)
    except VerificationError as e:
        raise VerificationError(f"hyperplane extension failed verification (operand pairing?): {e}",
                                witness=e.witness) from e
    return out


class MissingLeafError(LookupError):
    """A plan needs external large sets that were not supplied."""

    def __init__(self, missing: list[LSParams]):
        self.missing = tuple(missing)
        names = ", ".join(str(p) for p in missing)
        super().__init__(f"plan requires external data for: {names}")


DEFAULT_SIZE_GUARD = 10_000_000


def _postorder(node: PlanNode, seen: dict[int, PlanNode]) -> dict[int, PlanNode]:
    """Each node object of the plan once, by id, after its children."""
    if id(node) not in seen:
        for child in node.children:
            _postorder(child, seen)
        seen[id(node)] = node
    return seen


def execute_plan(
    plan: PlanNode,
    leaves: Iterable[LargeSet] = (),
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> LargeSet:
    """Materialize the large set a plan tree describes.

    ``leaves`` supplies the external leaves, one per LS_2[N](t,k,v); each
    serves the leaf_table nodes with its parameters.  Every node's parts
    hold a whole Grassmannian, so a node of one larger than ``size_guard``
    raises before anything is built.  Each node object is evaluated once,
    and the root is verified as a large set before it is returned.
    """
    known: dict[LSParams, LargeSet] = {}
    for ls in leaves:
        key = LSParams(2, ls.n, ls.t, ls.k, ls.v)
        if known.setdefault(key, ls) is not ls:
            raise ValueError(f"two leaves given for {key}")
    nodes = _postorder(plan, {}).values()
    missing = [n.params for n in nodes if n.kind == "leaf_table" and n.params not in known]
    if missing:
        raise MissingLeafError(list(dict.fromkeys(missing)))
    for n in nodes:
        total = gaussian_binomial(n.params.v, n.params.k)
        if total > size_guard:
            raise ValueError(f"{n.kind} node for {n.params} would materialize {total} subspaces; "
                             "raise the size guard to proceed")

    # each node's parts are dropped once the last parent has read them
    reads = Counter(id(c) for n in nodes for c in n.children)
    parts: dict[int, tuple[frozenset[Subspace], ...]] = {}
    for n in nodes:
        parts[id(n)] = _eval_node(n, [parts[id(c)] for c in n.children], known)
        for c in n.children:
            reads[id(c)] -= 1
            if not reads[id(c)]:
                del parts[id(c)]
    p = plan.params
    out = large_set(p.v, p.k, p.t, parts.pop(id(plan)))
    if plan.kind != "hyperplane_extend":  # extend_by_hyperplane verified it
        verify_large_set(out)
    return out


def _eval_node(
    node: PlanNode, children: list[tuple], known: dict[LSParams, LargeSet]
) -> tuple[frozenset[Subspace], ...]:
    """The node's N parts, each a frozenset of k-subspaces of GF(2)^v, from its children's."""
    p = node.params
    if node.kind == "leaf_table":
        return tuple(d.blocks for d in known[p].designs)
    if node.kind == "leaf_trivial":
        return (frozenset(enumerate_grassmannian(p.v, p.k)),) + (frozenset(),) * (p.n - 1)
    if node.kind in TRANSFORMS or node.kind == "hyperplane_extend":
        operands = [large_set(c.params.v, c.params.k, c.params.t, parts)
                    for c, parts in zip(node.children, children)]
        if node.kind == "hyperplane_extend":
            out = extend_by_hyperplane(*operands)
        else:
            # unverified here: the plan root is verified, and so is every hyperplane extension node
            out = TRANSFORMS[node.kind](*operands, verify=False)
        return tuple(d.blocks for d in out.designs)
    if node.kind == "decompose":
        cells = grassmann_decomposition(p.v, p.k, node.s)
        buckets: list[set[Subspace]] = [set() for _ in range(p.n)]
        for cell, (t1, t2), first, second in zip(cells, node.cell_strengths, children[::2], children[1::2]):
            composed = compose_partitions(first, second, cell.chain, t1 + t2 + 1)
            for bucket, part in zip(buckets, composed):
                bucket |= part
        return tuple(_frozen(buckets.pop(0)) for _ in range(p.n))
    raise ValueError(f"unhandled plan node kind {node.kind!r}")
