"""Matrix groups over GF(2) acting on subspaces.

Vectors act on the right (v -> v*A), so subspace images are row-space
images.  Groups are closed by breadth-first products of the generators;
element order is the discovery order, identity first.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, groupby, islice
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from . import designs
from .gf2 import BitMatrix, identity, mat_mul, rank_raw, rref_raw, span_table, vec_mat
from .grassmann import (
    Subspace,
    _from_columns,
    _gauss_jordan,
    _ranks,
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
    "orbit_partition",
    "orbits",
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
    seen, order = {ident.rows}, [ident]
    for m in order:  # the list grows while it is walked, so it is the BFS queue
        for g in generators:
            p = mat_mul(m, g)
            if p.rows not in seen:
                if len(seen) >= _CLOSURE_CAP:
                    raise RuntimeError(f"group closure exceeded cap {_CLOSURE_CAP}")
                seen.add(p.rows)
                order.append(p)
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


def _images(reps: Sequence[Subspace], group: Group) -> list[Sequence[int]]:
    """RREF row columns of the images of representatives of one v and k under every element, |G| of each in turn."""
    tables, rows = group.element_image_tables, range(1, len(reps[0]))
    if tables is None:
        cols = [[vec_mat(s[j], g.rows) for s in reps for g in group.elements] for j in rows]
    else:
        cols = [list(chain.from_iterable(map(itemgetter(s[j]), tables) for s in reps)) for j in rows]
    return _gauss_jordan(cols, group.v, len(reps) * group.order, False)


def orbits(reps: Sequence[Subspace], group: Group) -> Iterator[set[Subspace]]:
    """The orbit of each representative in turn: its image under every element of the group.

    The representatives share one dimension k; each _images call expands max((_COUNT_BATCH >> k) // |G|, 1) of them.
    """
    v, order = group.v, group.order
    if any(s.v != v or len(s) != len(reps[0]) for s in reps):
        raise ValueError("representatives must share the group's dimension and one subspace dimension")
    size = max((designs._COUNT_BATCH >> reps[0].dim) // order, 1) if reps else 1
    for i in range(0, len(reps), size):
        cols = _images(reps[i:i + size], group)
        for lo in range(0, min(size, len(reps) - i) * order, order):
            yield set(_from_columns(v, [c[lo:lo + order] for c in cols], order))


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
    """Partition the k-subspaces of GF(2)^v into orbits, numbered by their lowest rank.

    Each round takes the lowest ranks no orbit holds yet as starts and expands them in one _images call: one start
    in the first round, then twice as many as the last round opened orbits, at least 1 and at most
    max((_COUNT_BATCH >> k) // |G|, 1), since the lowest ranks often share an orbit.  The starts are walked in rank
    order: one that an earlier start of the round has claimed opens no orbit, and each other one's |G| images are
    ranked in one grassmann._ranks call.
    """
    if group.v != v:
        raise ValueError("group dimension differs from ambient dimension")
    n, order, cap = gaussian_binomial(v, k), group.order, max((designs._COUNT_BATCH >> k) // group.order, 1)
    size = 1
    orbit_of_rank, member_ranks = array("i", [-1]) * n, array("I")
    representatives, sizes, starts = [], [], [0]
    unclaimed = compress(count(), map((-1).__eq__, orbit_of_rank))  # read lazily, so it skips ranks claimed since
    for batch in iter(lambda: list(islice(unclaimed, size)), []):
        opened = len(sizes)
        cols = _images([grassmannian_unrank(v, k, r) for r in batch], group)
        for lo, start in zip(range(0, len(batch) * order, order), batch):
            if orbit_of_rank[start] >= 0:  # an earlier start of the batch claimed it
                continue
            images = [c[lo:lo + order] for c in cols]
            oid, orbit = len(sizes), sorted(set(_ranks(v, images, order)))
            for x in orbit:
                orbit_of_rank[x] = oid
            member_ranks.extend(orbit)
            representatives.append(Subspace(v, min(zip(*images), default=())))
            sizes.append(len(orbit))
            starts.append(len(member_ranks))
        size = min(max(2 * (len(sizes) - opened), 1), cap)
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
