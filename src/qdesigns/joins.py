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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Union

from .designs import (
    TRANSFORMS,
    LargeSet,
    VerificationError,
    check_disjoint,
    large_set,
    t_equivalent,
    verify_large_set,
)
from .gf2 import span_table, vec_mat
from .grassmann import (
    QuotientFrame,
    Subspace,
    _nogc,
    contains,
    enumerate_grassmannian,
    full_space,
    gaussian_binomial,
    span,
    standard_flag_subspace,
)
from .planner import LSParams, PlanNode

__all__ = [
    "JoinChain",
    "PartitionedSet",
    "DecompositionCell",
    "MissingLeafError",
    "join_chain",
    "avoiding_join",
    "join_sets",
    "grassmann_decomposition",
    "materialize_cell",
    "compose_partitions",
    "partitioned_set",
    "partition_from_large_set",
    "extend_by_hyperplane",
    "execute_plan",
]


@dataclass(frozen=True)
class JoinChain:
    """Flag U1 <= U2 inside GF(2)^v, with quotient frames for both gaps.

    ``mid`` coordinatizes U2/U1 and ``top`` coordinatizes the full
    quotient V/U2.  Second join operands live in ``top``'s coordinates.
    """

    u1: Subspace
    u2: Subspace
    mid: QuotientFrame
    top: QuotientFrame

    @property
    def v(self) -> int:
        return self.u1.v


def join_chain(u1: Subspace, u2: Subspace) -> JoinChain:
    if u1.v != u2.v:
        raise ValueError("flag members must share an ambient space")
    if not contains(u2, u1):
        raise ValueError("need u1 <= u2")
    return JoinChain(u1, u2, QuotientFrame(u2, u1), QuotientFrame(full_space(u1.v), u2))


def _complements(ambient_dim: int, sub: Subspace) -> Iterator[Subspace]:
    """All complements of ``sub`` in the full space of ``ambient_dim``.

    There are 2^(dim * codim) of them; each is produced once, as the
    graph of a linear map from a fixed complement into ``sub``.
    """
    frame = QuotientFrame(full_space(ambient_dim), sub)
    base = frame.transversal
    if not base:
        yield Subspace(ambient_dim, ())
        return
    shifts = sub.vectors()
    for offset in itertools.product(shifts, repeat=len(base)):
        yield span(ambient_dim, [r ^ o for r, o in zip(base, offset)])


def avoiding_join(k1: Subspace, k2: Subspace, chain: JoinChain) -> frozenset[Subspace]:
    """All K meeting U1 exactly in ``k1``, with K + U2 = ``k2`` = K + U1.

    ``k1`` must sit inside U1 and ``k2`` must contain U2.  Every member
    has dimension dim K1 + dim K2 - dim U1, and there are exactly
    2^((u1 - dim K1) * (dim K2 - u1)) of them.
    """
    if k1.v != chain.v or k2.v != chain.v:
        raise ValueError("operands must live in the chain's ambient space")
    if not contains(chain.u1, k1):
        raise ValueError("first operand must be contained in u1")
    if not contains(k2, chain.u2):
        raise ValueError("second operand must contain u2")

    u1, u2 = chain.u1, chain.u2
    out = set()
    # Stage one: subspaces W with K1 <= W <= U2, W complementary to U1 over K1.
    over_k1 = QuotientFrame(u2, k1)
    u1_bar = over_k1.project(u1)
    for c_bar in _complements(over_k1.dim, u1_bar):
        w = over_k1.lift_preimage(c_bar)
        # Stage two: inside K2, complements of U2 over W give the joins.
        over_w = QuotientFrame(k2, w)
        u2_bar = over_w.project(u2)
        for d_bar in _complements(over_w.dim, u2_bar):
            out.add(over_w.lift_preimage(d_bar))

    expect = 1 << ((u1.dim - k1.dim) * (k2.dim - u1.dim))
    if len(out) != expect:
        raise VerificationError(f"avoiding join has {len(out)} members, expected {expect}")
    want_dim = k1.dim + k2.dim - u1.dim
    for s in out:
        if s.dim != want_dim:
            raise VerificationError(
                f"avoiding join member has dimension {s.dim}, expected {want_dim}", witness=s
            )
    return frozenset(out)


def join_sets(
    b1: Iterable[Subspace], b2: Iterable[Subspace], chain: JoinChain
) -> frozenset[Subspace]:
    """Union of joins over all pairs, operands given in local coordinates.

    Members of ``b1`` live in GF(2)^dim(U1) (they are read through U1's
    basis); members of ``b2`` live in the quotient coordinates of V/U2.
    Distinct pairs yield disjoint join families, so the result size is
    exactly |b1| * |b2| * 2^((u1 - k1) * (k2 - u1)).
    """
    b1 = list(b1)
    b2 = list(b2)
    if not b1 or not b2:
        return frozenset()
    u1, top = chain.u1, chain.top
    if any(s.v != u1.dim for s in b1):
        raise ValueError("first operands must use u1's local coordinates")
    if any(s.v != top.dim for s in b2):
        raise ValueError("second operands must use the top quotient's coordinates")
    k1 = b1[0].dim
    if any(s.dim != k1 for s in b1):
        raise ValueError("first operands must share a dimension")
    k2 = b2[0].dim + chain.u2.dim
    if any(s.dim + chain.u2.dim != k2 for s in b2):
        raise ValueError("second operands must share a dimension")

    globals1 = [span(chain.v, [vec_mat(r, u1.rows) for r in s.rows]) for s in b1]
    globals2 = [top.lift_preimage(s) for s in b2]
    out: set[Subspace] = set()
    for g1 in globals1:
        for g2 in globals2:
            out |= avoiding_join(g1, g2, chain)
    expect = len(b1) * len(b2) * (1 << ((u1.dim - k1) * (k2 - u1.dim)))
    if len(out) != expect:
        raise VerificationError(f"joined set has {len(out)} members, expected {expect}")
    return frozenset(out)


@dataclass(frozen=True)
class PartitionedSet:
    """Subspaces of one Grassmannian split into n mutually t-equivalent parts.

    ``t = -1`` means no equivalence is claimed beyond the parts being a
    partition.  A large set is the special case where every part is the
    block set of a design.
    """

    parts: tuple[frozenset[Subspace], ...]
    t: int
    ambient_dim: int
    k: int

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(len(p) for p in self.parts)


def partitioned_set(
    parts: Iterable[frozenset[Subspace]],
    t: int,
    ambient_dim: int,
    k: int,
) -> PartitionedSet:
    """Build a PartitionedSet, verifying member shapes, disjointness and t-equivalence."""
    pts = tuple(map(frozenset, parts))
    if not pts:
        raise ValueError("need at least one part")
    for p in pts:
        for s in p:
            if s.v != ambient_dim or s.dim != k:
                raise VerificationError(
                    f"member {s} is not a {k}-subspace of GF(2)^{ambient_dim}"
                )
    check_disjoint(pts)
    if t >= 0:
        for i in range(1, len(pts)):
            if not t_equivalent(pts[0], pts[i], t):
                raise VerificationError(
                    f"parts 0 and {i} are not {t}-equivalent"
                )
    return PartitionedSet(pts, t, ambient_dim, k)


def partition_from_large_set(ls: LargeSet) -> PartitionedSet:
    return PartitionedSet(tuple(d.blocks for d in ls.designs), ls.t, ls.v, ls.k)


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

    @property
    def size(self) -> int:
        (a1, d1), (a2, d2) = self.first_grassmannian, self.second_grassmannian
        # join multiplicity is 2^((u1 - k1) * (k2 - u1)) = 2^((s + 1) * (k - i))
        return (
            gaussian_binomial(a1, d1)
            * gaussian_binomial(a2, d2)
            * (1 << ((self.s + 1) * d2))
        )


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
        cells.append(
            DecompositionCell(
                i=i,
                s=s,
                first_grassmannian=(s + i, i),
                second_grassmannian=(v - s - i - 1, k - i),
                chain=join_chain(u, u),
            )
        )
    return cells


def materialize_cell(cell: DecompositionCell) -> frozenset[Subspace]:
    """Enumerate one decomposition cell explicitly via its join."""
    a1, d1 = cell.first_grassmannian
    a2, d2 = cell.second_grassmannian
    # First factors live one dimension below U1; pad the ambient space so
    # the flag prefix of dimension a1 inside U1 carries them.
    b1 = [Subspace(a1 + 1, s.rows) for s in enumerate_grassmannian(a1, d1)]
    b2 = list(enumerate_grassmannian(a2, d2))
    return join_sets(b1, b2, cell.chain)


def compose_partitions(
    p1: PartitionedSet, p2: PartitionedSet, chain: JoinChain
) -> PartitionedSet:
    """Join two partitioned sets part-by-part, adding indices modulo n.

    Part m of the result collects the joins of part i of ``p1`` with
    part j of ``p2`` over all i + j = m (mod n).  The equivalence
    strength adds as t1 + t2 + 1 and is checked, not assumed; a failure
    here means the composition convention is wrong for the operands, so
    it raises rather than returning a bad partition.
    """
    if p1.n != p2.n:
        raise ValueError("operands must have the same number of parts")
    if p1.ambient_dim != chain.u1.dim:
        raise ValueError("first operand must live in u1's local coordinates")
    if p2.ambient_dim != chain.top.dim:
        raise ValueError("second operand must live in the top quotient's coordinates")
    n = p1.n
    k_out = p1.k + (p2.k + chain.u2.dim) - chain.u1.dim
    buckets: list[set[Subspace]] = [set() for _ in range(n)]
    placed = 0
    for i in range(n):
        if not p1.parts[i]:
            continue
        for j in range(n):
            if not p2.parts[j]:
                continue
            joined = join_sets(p1.parts[i], p2.parts[j], chain)
            buckets[(i + j) % n] |= joined
            placed += len(joined)
    if sum(len(b) for b in buckets) != placed:
        raise VerificationError("join images collided")
    t_out = p1.t + p2.t + 1
    try:
        return partitioned_set(buckets, t_out, chain.v, k_out)
    except VerificationError as e:
        raise VerificationError(
            f"composition failed the {t_out}-equivalence check "
            f"(wrong part-index convention or operands): {e}"
        ) from e


@lru_cache(maxsize=None)
def _hyperplane_lifts(v: int, pivots: int) -> tuple[tuple[int, int, int], ...]:
    """How to lift a block inside the hyperplane x_{v-1} = 0 with these pivot columns.

    One triple (w, lowest bit of w, number of pivots below it) per lift:
    w is e_{v-1} plus a vector of the span of the unit vectors at the
    block's non-pivot columns below v - 1, which is a complement of the
    block inside the hyperplane.  w has no bit in a pivot column, so the
    lifted block's RREF is the block's rows, with w added to each row
    that has w's lowest bit, and w inserted among them by that bit.
    """
    outside = 1 << (v - 1)
    units = [1 << f for f in range(v - 1) if not pivots >> f & 1]
    out = []
    for shift in span_table(units):
        w = outside | shift
        low = w & -w
        out.append((w, low, (pivots & (low - 1)).bit_count()))
    return tuple(out)


@_nogc
def extend_by_hyperplane(ls_small_k: LargeSet, ls_same_k: LargeSet) -> LargeSet:
    """Merge LS(t, k-1, v-1) with LS(t, k, v-1) into LS(t, k, v).

    The second operand's blocks are reread inside the hyperplane of the
    first v - 1 coordinates; each block B of the first operand lifts to
    the k-subspaces that meet the hyperplane exactly in B, each spanned
    by B and one vector outside the hyperplane (see _hyperplane_lifts).
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
    parts = []
    for small_d, same_d in zip(ls_small_k.designs, ls_same_k.designs):
        blocks = {Subspace(v_out, b.rows) for b in same_d.blocks}
        for b in small_d.blocks:
            rows = b.rows
            for w, low, at in _hyperplane_lifts(v_out, sum(r & -r for r in rows)):
                lifted = [r ^ w if r & low else r for r in rows]
                lifted.insert(at, w)
                blocks.add(Subspace(v_out, tuple(lifted)))
        parts.append(frozenset(blocks))
    out = large_set(v_out, ls_same_k.k, ls_same_k.t, parts)
    try:
        verify_large_set(out)
    except VerificationError as e:
        raise VerificationError(
            f"hyperplane extension failed verification (operand pairing?): {e}"
        ) from e
    return out


class MissingLeafError(LookupError):
    """A plan needs external large sets that the registry does not hold."""

    def __init__(self, missing: list[LSParams]):
        self.missing = tuple(missing)
        names = ", ".join(str(p) for p in missing)
        super().__init__(f"plan requires external data for: {names}")


RegistryKey = Union[LSParams, tuple]
Registry = Mapping[RegistryKey, Union[LargeSet, PartitionedSet]]

DEFAULT_SIZE_GUARD = 10_000_000


def _normalize_registry(registry: Registry) -> dict[LSParams, PartitionedSet]:
    out: dict[LSParams, PartitionedSet] = {}
    for key, value in registry.items():
        params = key if isinstance(key, LSParams) else LSParams(*key)
        if isinstance(value, LargeSet):
            pset = partition_from_large_set(value)
        elif isinstance(value, PartitionedSet):
            pset = value
        else:
            raise TypeError(f"registry value for {params} must be a LargeSet or PartitionedSet")
        if (pset.ambient_dim, pset.k, pset.n) != (params.v, params.k, params.n):
            raise ValueError(f"registry entry for {params} has mismatched shape")
        if pset.t < params.t:
            raise ValueError(f"registry entry for {params} only certifies t={pset.t}")
        out[params] = pset
    return out


def _missing_leaves(plan: PlanNode, known: dict[LSParams, PartitionedSet]) -> list[LSParams]:
    missing = []

    def walk(node: PlanNode) -> None:
        if node.kind == "leaf_table" and node.params not in known:
            if node.params not in missing:
                missing.append(node.params)
        for child in node.children:
            walk(child)

    walk(plan)
    return missing


def execute_plan(
    plan: PlanNode,
    registry: Optional[Registry] = None,
    size_guard: int = DEFAULT_SIZE_GUARD,
    force: bool = False,
) -> LargeSet:
    """Materialize the large set a plan tree describes.

    ``registry`` supplies the external leaves, keyed by their parameter
    tuples.  Nodes that would enumerate a Grassmannian larger than
    ``size_guard`` raise unless ``force`` is set.  The root is verified
    as a large set before it is returned.
    """
    known = _normalize_registry(registry or {})
    missing = _missing_leaves(plan, known)
    if missing:
        raise MissingLeafError(missing)

    pset = _eval_node(plan, known, size_guard, force)
    p = plan.params
    out = large_set(p.v, p.k, p.t, pset.parts)
    verify_large_set(out)
    return out


def _eval_node(
    node: PlanNode,
    known: dict[LSParams, PartitionedSet],
    size_guard: int,
    force: bool,
) -> PartitionedSet:
    p = node.params
    if node.kind == "leaf_table":
        return known[p]
    if node.kind in ("leaf_trivial", "decompose"):
        total = gaussian_binomial(p.v, p.k)
        if total > size_guard and not force:
            raise ValueError(
                f"{node.kind} node for {p} would materialize {total} subspaces; "
                f"raise the size guard or pass force to proceed"
            )
    children = [_eval_node(c, known, size_guard, force) for c in node.children]
    if node.kind == "leaf_trivial":
        full = frozenset(enumerate_grassmannian(p.v, p.k))
        empty = frozenset()
        parts = (full,) + (empty,) * (p.n - 1)
        return PartitionedSet(parts, -1, p.v, p.k)
    if node.kind in TRANSFORMS or node.kind == "hyperplane_extend":
        operands = [
            large_set(c.params.v, c.params.k, c.params.t, child.parts)
            for c, child in zip(node.children, children)
        ]
        if node.kind == "hyperplane_extend":
            return partition_from_large_set(extend_by_hyperplane(*operands))
        # verification happens once, at the plan root
        return partition_from_large_set(TRANSFORMS[node.kind](*operands, verify=False))
    if node.kind == "decompose":
        cells = grassmann_decomposition(p.v, p.k, node.s)
        buckets: list[set[Subspace]] = [set() for _ in range(p.n)]
        for cell, first, second in zip(cells, children[::2], children[1::2]):
            a1 = cell.first_grassmannian[0]
            lifted = PartitionedSet(
                tuple(
                    frozenset(Subspace(a1 + 1, s.rows) for s in part)
                    for part in first.parts
                ),
                first.t,
                a1 + 1,
                first.k,
            )
            composed = compose_partitions(lifted, second, cell.chain)
            for m in range(p.n):
                buckets[m] |= composed.parts[m]
        return PartitionedSet(
            tuple(frozenset(b) for b in buckets), p.t, p.v, p.k
        )
    raise ValueError(f"unhandled plan node kind {node.kind!r}")
