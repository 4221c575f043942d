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
from operator import and_, mul, neg, or_, xor
from typing import Iterable, Iterator, Sequence

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
from .gf2 import span_table, vec_mat
from .grassmann import (
    QuotientFrame,
    Subspace,
    _canonical,
    _from_columns,
    _nogc,
    contains,
    enumerate_grassmannian,
    full_space,
    gaussian_binomial,
    reduce_vector,
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
    """Flag U1 <= U2 inside GF(2)^v, with the quotient frame of V/U2.

    ``top`` coordinatizes the full quotient V/U2.  Second join operands
    live in its coordinates.
    """

    u1: Subspace
    u2: Subspace
    top: QuotientFrame

    @property
    def v(self) -> int:
        return self.u1.v


def join_chain(u1: Subspace, u2: Subspace) -> JoinChain:
    if u1.v != u2.v:
        raise ValueError("flag members must share an ambient space")
    if not contains(u2, u1):
        raise ValueError("need u1 <= u2")
    return JoinChain(u1, u2, QuotientFrame(full_space(u1.v), u2))


def _complement(sup: Subspace, pivots: int) -> tuple[int, ...]:
    """RREF rows of ``sup`` spanning a complement of ``sub <= sup``, given sub's pivot mask.

    A nonzero sum of RREF rows has the least of their pivots (lowest set
    bits) as its lowest bit.  So a subspace's pivots are the lowest bits
    of its nonzero vectors, sub's pivots are among sup's, and no sum of
    the sup rows whose pivot sub lacks lies in sub.
    """
    return tuple(r for r in sup.rows if not r & -r & pivots)


def avoiding_join(k1s: Iterable[Subspace], k2s: Iterable[Subspace], chain: JoinChain) -> frozenset[Subspace]:
    """Every K meeting U1 exactly in some K1 of ``k1s``, with K + U2 = K2 = K + U1 for some K2 of ``k2s``.

    Each K1 must sit inside U1 and each K2 must contain U2; each side's
    operands share a dimension.  Each pair (K1, K2) gives exactly
    2^((u1 - dim K1) * (dim K2 - u1)) members, of dimension
    dim K1 + dim K2 - u1, and distinct pairs give disjoint families.
    """
    k1s, k2s, u1, v = list(k1s), list(k2s), chain.u1, chain.v
    if any(s.v != v for s in k1s + k2s) or len({s.dim for s in k1s}) > 1 or len({s.dim for s in k2s}) > 1:
        raise ValueError("operands must live in the chain's ambient space and share a dimension per side")
    if any(reduce_vector(r, u1.rows) for r in {r for k1 in k1s for r in k1.rows}):
        raise ValueError("first operand must be contained in u1")
    if not all(contains(k2, chain.u2) for k2 in k2s):
        raise ValueError("second operand must contain u2")
    if not (k1s and k2s):
        return frozenset()
    # A member meets each coset c_j + U1, c_j over a complement of U1 in K2,
    # in c_j + x_j + K1 for exactly one x_j of a complement of K1 in U1: its
    # rows are K1's and each c_j + x_j.  Headed by v like a block, the
    # members' rows are cut into chunks by _chunks, then made canonical.
    u1_pivots = sum(r & -r for r in u1.rows)
    k1_pivots = (sum(r & -r for r in k1.rows) for k1 in k1s)
    shifts = (span_table(_complement(u1, p)) if k2s[0].dim > u1.dim else () for p in k1_pivots)
    members = itertools.chain.from_iterable(
        itertools.product((v,), *zip(k1.rows), *[[c ^ x for x in xs] for c in _complement(k2, u1_pivots)])
        for k1, xs in zip(k1s, shifts) for k2 in k2s
    )
    out = frozenset(itertools.chain.from_iterable(
        _canonical(v, list(zip(*chunk))[1:], len(chunk)) for chunk in _chunks(members)
    ))
    expect = len(k1s) * len(k2s) << ((u1.dim - k1s[0].dim) * (k2s[0].dim - u1.dim))
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
    a1, d1 = cell.first_grassmannian
    a2, d2 = cell.second_grassmannian
    # First factors live one dimension below U1; pad the ambient space so
    # the flag prefix of dimension a1 inside U1 carries them.
    first = (Subspace(a1 + 1, s.rows) for s in enumerate_grassmannian(a1, d1))
    return compose_partitions([first], [enumerate_grassmannian(a2, d2)], cell.chain, -1)[0]


def _lifted(
    parts: Iterable[Iterable[Subspace]], basis: Sequence[int], extra: Sequence[int], v: int, what: str
) -> list[list[Subspace]]:
    """Each part's operands, once their local coordinates are checked, read into GF(2)^v.

    Each distinct row is mapped through the basis rows once; the extra rows are added.
    """
    local = [list(part) for part in parts]
    if any(s.v != len(basis) for part in local for s in part):
        raise ValueError(f"{what} operands must use {len(basis)}-dimensional local coordinates")
    if len({s.dim for part in local for s in part}) > 1:
        raise ValueError(f"{what} operands must share a dimension")
    image = {x: vec_mat(x, basis) for x in {x for part in local for s in part for x in s.rows}}.__getitem__
    return [list(itertools.chain.from_iterable(
        _canonical(v, [map(image, c) for c in list(zip(*chunk))[1:]]
                   + [repeat(r, len(chunk)) for r in extra], len(chunk))
        for chunk in _chunks(part)
    )) for part in local]


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
    ``parts2``, over all i + j = m (mod n).  Members of ``parts1`` live
    in GF(2)^dim(U1) (they are read through U1's basis); members of
    ``parts2`` live in the quotient coordinates of V/U2.  Each is lifted
    into GF(2)^v once.  Distinct pairs yield disjoint join families, so
    part m has exactly sum_i |part i| * |part j| * 2^((u1 - k1) * (k2 - u1))
    members.  ``t`` is the strength t1 + t2 + 1 the parts should share
    (t = -1 claims none).  It is checked, not assumed; a failure here
    means the composition convention is wrong for the operands, so it
    raises rather than returning a bad partition.  The parts are also
    checked to be pairwise disjoint: counting within each part cannot
    see a subspace that lands in two parts.
    """
    n = len(parts1)
    if len(parts2) != n:
        raise ValueError("operands must have the same number of parts")
    first = _lifted(parts1, chain.u1.rows, (), chain.v, "first")
    second = _lifted(parts2, chain.top.transversal, chain.u2.rows, chain.v, "second")
    parts = []
    for m in range(n):  # pieces of one part overlap iff the part is smaller than their sum
        pieces = [avoiding_join(first[i], second[(m - i) % n], chain) for i in range(n)]
        parts.append(pieces[0] if n == 1 else frozenset().union(*pieces))
        expect = sum(map(len, pieces))
        if len(parts[m]) != expect:
            raise VerificationError(f"part {m} has {len(parts[m])} members, expected {expect}")
    check_disjoint(parts)
    if t >= 0:
        counts = _incidence_counts(parts[0], chain.v, t)
        for i in range(1, n):
            if _incidence_counts(parts[i], chain.v, t) != counts:
                raise VerificationError(
                    f"composition failed the {t}-equivalence check (wrong part-index"
                    f" convention or operands): parts 0 and {i} are not {t}-equivalent"
                )
    return tuple(parts)


def _lifts(chunk: list[Subspace], v: int) -> Iterator[Iterator[Subspace]]:
    """The lifts into GF(2)^v of a chunk's blocks inside the hyperplane x_{v-1} = 0, in batches.

    A block with pivot columns P lifts once for each w = e_{v-1} + x, x in the span of
    the unit vectors at the columns below v - 1 outside P.  w has no bit in P, so the
    lift's RREF is the block's rows, with w added to each row that has w's lowest bit,
    and w inserted by that bit: one map per row column for all blocks that share P.
    """
    cols = list(zip(*chunk))[1:]
    pivots = list(reduce(partial(map, or_), (map(and_, c, map(neg, c)) for c in cols), repeat(0, len(chunk))))
    for mask, members in groupby(sorted(range(len(chunk)), key=pivots.__getitem__), pivots.__getitem__):
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
        raise VerificationError(
            f"hyperplane extension failed verification (operand pairing?): {e}"
        ) from e
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
    serves the leaf_table nodes with its parameters.  Nodes that would
    enumerate a Grassmannian larger than ``size_guard`` raise before
    anything is built.  Each node object is evaluated once, and the root
    is verified as a large set before it is returned.
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
        if n.kind in ("leaf_trivial", "decompose") and total > size_guard:
            raise ValueError(
                f"{n.kind} node for {n.params} would materialize {total} subspaces; "
                f"raise the size guard to proceed"
            )

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
            # verification happens once, at the plan root
            out = TRANSFORMS[node.kind](*operands, verify=False)
        return tuple(d.blocks for d in out.designs)
    if node.kind == "decompose":
        cells = grassmann_decomposition(p.v, p.k, node.s)
        buckets: list[set[Subspace]] = [set() for _ in range(p.n)]
        for cell, (t1, t2), first, second in zip(
            cells, node.cell_strengths, children[::2], children[1::2]
        ):
            a1 = cell.first_grassmannian[0]
            padded = [(Subspace(a1 + 1, s.rows) for s in part) for part in first]
            composed = compose_partitions(padded, second, cell.chain, t1 + t2 + 1)
            for bucket, part in zip(buckets, composed):
                bucket |= part
        return tuple(_frozen(buckets.pop(0)) for _ in range(p.n))
    raise ValueError(f"unhandled plan node kind {node.kind!r}")
