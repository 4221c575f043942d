"""Matrix groups over GF(2) acting on subspaces.

Vectors act on the right (v -> v*A), so subspace images are row-space
images.  Groups are closed by breadth-first products of the generators;
element order is the discovery order, identity first.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence

from .gf2 import BitMatrix, identity, mat_mul, rank_raw, rref_raw, span_table, vec_mat
from .grassmann import (
    Subspace,
    _canonical,
    _ranker,
    gaussian_binomial,
    grassmannian_rank,
    grassmannian_unrank,
)

__all__ = [
    "Group",
    "GroupElement",
    "OrbitPartition",
    "act",
    "close_group",
    "orbit_of",
    "orbit_partition",
    "parse_generator_text",
    "read_generator_file",
    "trivial_group",
]

GroupElement = BitMatrix

_CLOSURE_CAP = 10_000_000
_TABLE_DIM_MAX = 16  # build full vector-image tables up to this dimension
_ELEMENT_TABLES_MAX = 1 << 22  # total entries of one group's per-element tables


@dataclass(frozen=True)
class Group:
    v: int
    generators: tuple[GroupElement, ...]
    elements: tuple[GroupElement, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def element_image_tables(self) -> Optional[tuple[list[int], ...]]:
        """Vector-image table of every element, built on first use.

        Entry x of an element's table is x times that element.  None when
        v exceeds _TABLE_DIM_MAX or the tables would hold more than
        _ELEMENT_TABLES_MAX entries in total.
        """
        if self.v > _TABLE_DIM_MAX or self.order << self.v > _ELEMENT_TABLES_MAX:
            return None
        return tuple(span_table(g.rows) for g in self.elements)


def close_group(generators: Sequence[GroupElement]) -> Group:
    """BFS closure of invertible generators under multiplication, up to _CLOSURE_CAP elements."""
    if not generators:
        raise ValueError("need at least one generator")
    v = generators[0].ncols
    for g in generators:
        if g.ncols != v or g.nrows != v:
            raise ValueError("generators must be square matrices of equal size")
        if rank_raw(g.rows) != v:
            raise ValueError("generator is singular")
    ident = identity(v)
    seen = {ident.rows: ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                p = mat_mul(m, g)
                if p.rows not in seen:
                    if len(seen) >= _CLOSURE_CAP:
                        raise RuntimeError(f"group closure exceeded cap {_CLOSURE_CAP}")
                    seen[p.rows] = p
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return Group(v, tuple(generators), tuple(order))


def trivial_group(v: int) -> Group:
    """The one-element group on GF(2)^v; every subspace is its own orbit."""
    if v < 0:
        raise ValueError("dimension must be non-negative")
    return Group(v, (), (identity(v),))


def act(s: Subspace, g: GroupElement) -> Subspace:
    """Image of a subspace under the right action of g."""
    if s.v != g.nrows:
        raise ValueError("subspace and matrix dimensions differ")
    grows = g.rows
    return Subspace(s.v, rref_raw([vec_mat(r, grows) for r in s.rows]).rows)


def orbit_of(s: Subspace, group: Group) -> set[Subspace]:
    """Orbit of s: its image under every element of the group.

    Row r's images under all elements form one column, read from the
    vector-image tables if the group has them, made canonical together.
    """
    if s.v != group.v:
        raise ValueError("subspace and group dimensions differ")
    tables = group.element_image_tables
    if tables is None:
        cols = [[vec_mat(r, g.rows) for g in group.elements] for r in s.rows]
    else:
        cols = [map(itemgetter(r), tables) for r in s.rows]
    return set(_canonical(s.v, cols, group.order))


@dataclass
class OrbitPartition:
    """Orbits of the group on all k-subspaces of GF(2)^v.

    Orbits are numbered in first-encounter order of the subspace
    enumeration; each representative is the orbit's lexicographically
    smallest basis-row tuple.  Subspaces are held by Grassmannian rank
    (their position in the enumeration): one array maps each rank to its
    orbit, and one flat array lists the member ranks, orbit by orbit,
    ascending within an orbit.
    """

    v: int
    k: int
    group: Group
    representatives: list[Subspace]
    sizes: list[int]
    _orbit_of_rank: array = field(repr=False)
    _member_ranks: array = field(repr=False)
    _starts: list[int] = field(repr=False)  # orbit i's members: _starts[i] .. _starts[i+1]

    @property
    def n_orbits(self) -> int:
        return len(self.representatives)

    def orbit_index(self, s: Subspace) -> int:
        try:
            if s.v != self.v:
                raise ValueError(f"ambient dimension {s.v}, not {self.v}")
            return self._orbit_of_rank[grassmannian_rank(self.v, self.k, s.rows)]
        except ValueError as e:
            raise KeyError(f"subspace not in the partitioned Grassmannian: {s}") from e

    def members(self, i: int) -> list[Subspace]:
        v, k = self.v, self.k
        ranks = self._member_ranks[self._starts[i] : self._starts[i + 1]]
        return [grassmannian_unrank(v, k, r) for r in ranks]


def orbit_partition(v: int, k: int, group: Group) -> OrbitPartition:
    """Partition by orbit_of, started at the lowest rank no orbit holds yet."""
    if group.v != v:
        raise ValueError("group dimension differs from ambient dimension")
    n = gaussian_binomial(v, k)
    orbit_of_rank = array("i", [-1]) * n
    member_ranks = array("I")
    representatives: list[Subspace] = []
    sizes: list[int] = []
    starts = [0]
    rank = _ranker(v, k)
    r = -1
    while True:
        try:
            r = orbit_of_rank.index(-1, r + 1)
        except ValueError:
            break
        orbit = orbit_of(grassmannian_unrank(v, k, r), group)
        oid = len(sizes)
        ranks = sorted(rank(s.rows) for s in orbit)
        for x in ranks:
            orbit_of_rank[x] = oid
        member_ranks.extend(ranks)
        representatives.append(min(orbit))
        sizes.append(len(ranks))
        starts.append(len(member_ranks))
    # overlapping orbits, or one that missed its start, break the sum
    if sum(sizes) != n:
        raise ArithmeticError(f"orbit sizes sum to {sum(sizes)}, not [{v} {k}]_2 = {n}")
    return OrbitPartition(v, k, group, representatives, sizes, orbit_of_rank, member_ranks, starts)


def parse_generator_text(text: str) -> list[GroupElement]:
    """Parse blank-line-separated blocks of '0'/'1' rows into matrices."""
    mats = []
    for nonblank, block in groupby(map(str.strip, text.splitlines()), bool):
        if not nonblank:
            continue
        lines = list(block)
        v = len(lines[0])
        rows = []
        for ln in lines:
            if len(ln) != v or set(ln) - {"0", "1"}:
                raise ValueError(f"bad generator row: {ln!r}")
            rows.append(sum(1 << i for i, c in enumerate(ln) if c == "1"))
        if len(rows) != v:
            raise ValueError(f"generator block is {len(rows)}x{v}, expected square")
        mats.append(BitMatrix(v, tuple(rows)))
    if not mats:
        raise ValueError("no generator blocks found")
    return mats


def read_generator_file(path) -> list[GroupElement]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_generator_text(fh.read())
