"""Subspaces of GF(2)^v: canonical forms, enumeration, quotients.

A Subspace is identified by its reduced row echelon basis, so equal
subspaces compare equal and hash alike.  Enumeration order is fixed:
pivot-column sets in lexicographic order, then free entries counted in
binary with the (row-major) first free cell as the least significant bit.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from functools import lru_cache, partial, reduce, wraps
from inspect import isgeneratorfunction
from itertools import chain, combinations, product, repeat
from operator import add, and_, itemgetter, lshift, neg, or_, rshift, xor
from typing import Iterable, Iterator, Optional, Sequence

from .gf2 import rref_raw, span_table

__all__ = [
    "QuotientFrame",
    "Subspace",
    "contains",
    "enumerate_grassmannian",
    "full_space",
    "gaussian_binomial",
    "grassmannian_rank",
    "grassmannian_unrank",
    "orthogonal_complement",
    "reduce_vector",
    "span",
    "standard_flag_subspace",
]


@lru_cache(maxsize=None)
def gaussian_binomial(v: int, k: int, q: int = 2) -> int:
    """Number of k-dimensional subspaces of an v-dimensional space over GF(q)."""
    if k < 0 or k > v:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (v - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise ArithmeticError(f"[{v} {k}]_{q} is not an integer: {num}/{den}")
    return num // den


class Subspace(tuple):
    """Subspace of GF(2)^v held as its canonical RREF basis rows.

    A block is one flat tuple (v, row_0, ..., row_{k-1}), so len(s) is
    dim + 1 and s[1] is the first row, not the rows tuple.  Subspaces
    order like the pairs (v, rows): a row tuple that is a prefix of
    another sorts first in both layouts.
    """

    __slots__ = ()

    def __new__(cls, v: int, rows: Iterable[int]) -> Subspace:
        return tuple.__new__(cls, (v, *rows))

    def __getnewargs__(self) -> tuple[int, tuple[int, ...]]:  # for pickle and copy
        return self[0], self[1:]

    v = property(itemgetter(0), doc="Dimension of the ambient space.")
    rows = property(itemgetter(slice(1, None)), doc="The canonical RREF basis rows.")

    @property
    def dim(self) -> int:
        return len(self) - 1

    def vectors(self) -> list[int]:
        """All 2^dim vectors of the subspace; bits of the index pick the rows."""
        return span_table(self.rows)

    def __contains__(self, vector: int) -> bool:
        return reduce_vector(vector, self.rows) == 0

    def __repr__(self) -> str:  # compact, unambiguous
        return f"Subspace({self.v}, {list(self.rows)})"


def _nogc(func):
    """Run func with the cyclic garbage collector paused.

    CPython never untracks a tuple subclass such as Subspace, so every
    full collection walks every live block; a call that makes or counts
    tens of thousands of blocks would set off several.  Blocks hold no
    reference cycles, so reference counting alone frees them.  The
    collector is turned back on afterwards, also after an exception,
    only if it was on at the call, so nested calls and a caller's own
    gc.disable() are kept.  gc.freeze() then gc.unfreeze() first moves
    every tracked object to the oldest generation in O(1), so young
    collections skip the call's blocks and full ones still find every
    cycle; a caller's own freeze is kept.  Calling a generator function
    only makes the generator, whose body would then run unpaused, so
    those are refused.
    """
    if isgeneratorfunction(func):
        raise TypeError(f"_nogc cannot wrap the generator function {func.__qualname__}")

    @wraps(func)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if was_on:
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()

    return paused


def reduce_vector(x: int, rref_rows: Iterable[int]) -> int:
    """Remainder of x after elimination by RREF rows (0 iff x in the span)."""
    for r in rref_rows:
        if x & (r & -r):
            x ^= r
    return x


def span(v: int, rows: Iterable[int]) -> Subspace:
    rows = tuple(rows)
    for r in rows:
        if r < 0 or r >> v:
            raise ValueError(f"row {r} does not fit in {v} coordinates")
    return Subspace(v, rref_raw(rows).rows)


def full_space(v: int) -> Subspace:
    return Subspace(v, tuple(1 << i for i in range(v)))


def standard_flag_subspace(v: int, d: int) -> Subspace:
    """The subspace spanned by the first d unit vectors."""
    if not 0 <= d <= v:
        raise ValueError(f"flag dimension {d} out of range for v={v}")
    return Subspace(v, tuple(1 << i for i in range(d)))


def contains(outer: Subspace, inner: Subspace) -> bool:
    """Whether inner is a subspace of outer."""
    if outer.v != inner.v:
        raise ValueError("ambient dimensions differ")
    rows = outer.rows
    return all(reduce_vector(r, rows) == 0 for r in inner.rows)


def _from_columns(v: int, cols: Sequence[Iterable[int]], n: int) -> Iterator[Subspace]:
    """The n blocks of GF(2)^v whose rows are the columns' entries, already in RREF."""
    return map(tuple.__new__, repeat(Subspace), zip(repeat(v, n), *cols))


class VerificationError(Exception):
    """A claimed design property failed an exhaustive check."""

    def __init__(self, message: str, witness: Optional[Subspace] = None):
        super().__init__(message)
        self.witness = witness


# entry x of _DIGIT[b] is the ASCII digit of bit b of the byte x: runs of 2^b zeros, then 2^b ones
_DIGIT = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]
_BIT = [bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8)]  # the ASCII digits 0 and 1 to the bytes 0 and 2^b


def _bit_planes(col: Iterable[int], v: int) -> list[int]:
    """The v bit planes of a column of rows, each at most v bits wide: plane b has bit i set iff row i has bit b.

    bytes.translate turns one byte per row, last row first, into binary digits that int() reads in base 2.
    A row below 0 or too wide raises ValueError or OverflowError: bytes() and int.to_bytes refuse one that
    does not fit in w bytes, so only a v that is no multiple of 8 needs the scan of each row's top byte.
    """
    w = (v + 7) >> 3  # bytes per row
    raw = (bytes(col) if w == 1 else b"".join(map(int.to_bytes, col, repeat(w), repeat("little"))))[::-1]
    if v & 7 and max(raw[::w]) >> (v - 8 * w + 8):  # a row's top byte has a bit at v or above
        raise ValueError(f"a row does not fit in {v} coordinates")
    return [int(raw[w - 1 - (b >> 3)::w].translate(_DIGIT[b & 7]), 2) for b in range(v)]


def _plane_rows(planes: Sequence[int], n: int) -> Sequence[int]:
    """The n rows whose bit planes these are (see _bit_planes), a byte of each row from the digits of 8 planes."""
    digits, rows = f"0{n}b", bytes(n)
    for g in range(0, len(planes), 8):
        byte = sum(int.from_bytes(format(p, digits).encode().translate(_BIT[b]), "big")
                   for b, p in enumerate(planes[g:g + 8])).to_bytes(n, "little")
        rows = byte if not g else list(map(or_, rows, map(lshift, byte, repeat(g))))
    return rows


def _gauss_jordan(cols: Sequence[Iterable[int]], v: int, n: int, top: bool) -> list[Sequence[int]]:
    """The n blocks' k row columns in reduced echelon form, pivots at lowest bits, or highest if top, in sweep order.

    The planes are swept from the pivot end.  At each plane, each block's first row that has the bit and is no pivot
    row yet becomes the block's pivot row there, and is added to its other rows with the bit: one AND, OR or XOR of
    n-bit ints does so for all n blocks.  A row that never becomes a pivot row depends on the others.
    """
    k, full, step = len(cols), (1 << n) - 1, -1 if top else 1
    rows = [_bit_planes(c, v)[::step] for c in cols]  # rows[j][i]: row j's plane of the i-th bit swept
    free, ranks = [full] * k, [full] + [0] * k  # the blocks whose row j is no pivot row yet; with r pivots so far
    places = [[0] * k for _ in rows]  # places[j][r]: the blocks whose r-th pivot row is row j
    for i in range(v):
        picks, untaken = [], full  # untaken: the blocks with no pivot at i yet
        for row, f in zip(rows, free):
            picks.append(row[i] & f & untaken)
            untaken ^= picks[-1]
        if untaken == full:
            continue
        # a row that is no pivot row yet has no bit swept before i
        pivot = list(reduce(partial(map, or_), [map(and_, row[i:], repeat(p)) for row, p in zip(rows, picks) if p]))
        for j, (row, pick) in enumerate(zip(rows, picks)):
            hit = row[i] & (full ^ untaken ^ pick)
            if hit:
                row[i:] = map(xor, row[i:], map(and_, pivot, repeat(hit)))
            if pick:
                places[j] = list(map(or_, places[j], map(and_, ranks, repeat(pick))))
                free[j] ^= pick
        ranks = list(map(or_, map(and_, ranks, repeat(untaken)), map(and_, [0] + ranks, repeat(full ^ untaken))))
    if any(free):
        raise VerificationError("a block's row depends on the rows before it")
    return [_plane_rows(list(reduce(partial(map, or_), [map(and_, row, repeat(place[r]))
                                                        for row, place in zip(rows, places)]))[::step], n)
            for r in range(k)]


def _canonical(v: int, cols: Sequence[Iterable[int]], n: int) -> Iterator[Subspace]:
    """The n blocks of GF(2)^v spanned by k row columns of independent rows, in any basis; dependent rows raise."""
    return _from_columns(v, _gauss_jordan(cols, v, n, False), n)


# entry x < 256 has bit 8*(f + 1) + t for each bit f of x, 2^t being x's highest bit
_TOP_SPREAD = [s << (7 + x.bit_length()) for x, s in enumerate(span_table([1 << 8 * f for f in range(8)]))]


def _complements(cols: Sequence[Sequence[int]]) -> Iterator[Subspace]:
    """Orthogonal complements of blocks that share v and k, made from their columns, v column first.

    _gauss_jordan first reduces each block's rows on their highest bits.  For
    reduced rows h_j, u_f = e_f + sum of top(h_j) over the h_j with bit f is
    orthogonal to each h_j, zero when f is a highest bit and of lowest bit f
    otherwise: the nonzero u_f, by f, are the complement's RREF.  One int per
    block holds v, then each u_f, in fields a byte wide when v <= 8.
    """
    v, n = cols[0][0], len(cols[0])
    if not v:
        return _from_columns(v, (), n)  # the zero space of GF(2)^0, its own complement
    cols = _gauss_jordan(cols[1:], v, n, True)
    w = max(v, 8)
    packed = repeat(v | sum(1 << (f + w * (f + 1)) for f in range(v)), n)  # v, then each e_f
    for h in cols:
        if v <= 8:
            term = map(_TOP_SPREAD.__getitem__, h)
        else:  # bit f of h to bit f*w: w - 1 zeros between binary digits, then times top(h)
            term = map(int, map(("0" * (w - 1)).join, map(format, h, repeat("b"))), repeat(2))
            term = map(lshift, term, map(add, map(int.bit_length, h), repeat(w - 1)))
        packed = map(xor, packed, term)
    if w == 8:
        fields = map(int.to_bytes, packed, repeat(v + 1), repeat("little"))
    else:
        packed, mask = list(packed), (1 << w) - 1
        fields = zip(*[map(and_, map(rshift, packed, repeat(f * w)), repeat(mask)) for f in range(v + 1)])
    return map(tuple.__new__, repeat(Subspace), map(filter, repeat(None), fields))


def orthogonal_complement(s: Subspace) -> Subspace:
    """All vectors orthogonal to s under the standard bilinear form (see _complements)."""
    return next(_complements(list(zip(s))))


@lru_cache(maxsize=None)
def _pivot_sets(v: int, k: int) -> tuple[tuple[int, tuple[list[int], ...], tuple[int, ...]], ...]:
    """Each pivot-column set of the enumeration, in order, as (offset, rows, shifts).

    offset is the rank of its first subspace; per row, rows holds its values
    indexed by its free-cell bits and shifts where those bits start in rank - offset.
    """
    out = []
    offset = 0
    for pivots in combinations(range(v), k):
        rows, shifts, shift = [], [], 0
        for p in pivots:
            # the row's free cells: columns after its pivot that are not pivot columns
            free = [1 << j for j in range(p + 1, v) if j not in pivots]
            rows.append([1 << p | x for x in span_table(free)])
            shifts.append(shift)
            shift += len(free)
        out.append((offset, tuple(rows), tuple(shifts)))
        offset += 1 << shift
    return tuple(out)


@lru_cache(maxsize=None)
def _t_columns(v: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The row columns of enumerate_grassmannian(v, t): column j holds row j of each t-subspace, in order.

    Each column is read off its own enumeration, so the t-subspaces are never all held at once.
    """
    return tuple(tuple(map(itemgetter(j), enumerate_grassmannian(v, t))) for j in range(1, t + 1))


def enumerate_grassmannian(v: int, k: int) -> Iterator[Subspace]:
    """All k-subspaces of GF(2)^v in a fixed documented order."""
    if k < 0 or k > v:
        return iter(())
    # product varies its last factor fastest, so rows go in last first and come out reversed
    return chain.from_iterable(
        map(tuple.__new__, repeat(Subspace), map(reversed, product(*reversed(rows), (v,))))
        for _, rows, _ in _pivot_sets(v, k)
    )


@lru_cache(maxsize=None)
def _rank_tables(v: int, k: int) -> tuple[dict[int, int], ...]:
    """Per row j of a k-subspace, a dict from (row value << v | the block's pivot mask) to the row's part of the rank.

    The part is the row's free-cell bits shifted into place, and for row 0 also its pivot set's offset.
    """
    tables = tuple({} for _ in range(k))
    for offset, rows, shifts in _pivot_sets(v, k):
        mask = sum(row[0] for row in rows)  # row[0] is the row with no free bit set: 1 << pivot
        for j, (table, row, shift) in enumerate(zip(tables, rows, shifts)):
            table.update((r << v | mask, (x << shift) + (0 if j else offset)) for x, r in enumerate(row))
    return tables


def _ranks(v: int, cols: Sequence[Sequence[int]], n: int) -> list[int]:
    """grassmannian_rank of n blocks at once, given as their k row columns: a sum of one lookup per row.

    A row out of order, unreduced, repeated, zero, negative or too wide misses its table, so it raises ValueError.
    """
    masks = list(reduce(partial(map, or_), [map(and_, c, map(neg, c)) for c in cols], repeat(0, n)))
    ranks = [0] * n
    try:
        for c, table in zip(cols, _rank_tables(v, len(cols))):
            ranks = list(map(add, ranks, map(table.__getitem__, map(or_, map(lshift, c, repeat(v)), masks))))
    except KeyError:
        raise ValueError(f"a block's rows are not an RREF basis in GF(2)^{v}") from None
    return ranks


def grassmannian_rank(v: int, k: int, rows: Sequence[int]) -> int:
    """Position of the k-subspace with RREF basis rows in enumerate_grassmannian(v, k).

    The rank is its pivot set's offset plus its free-cell bits: the one-block case of
    _ranks.  Rows that are not the canonical basis of a k-subspace of GF(2)^v raise ValueError.
    """
    # _ranks reads k from the number of rows
    if len(rows) != k:
        raise ValueError(f"{len(rows)} rows given for a {k}-subspace")
    return _ranks(v, [(r,) for r in rows], 1)[0]


def grassmannian_unrank(v: int, k: int, rank: int) -> Subspace:
    """The k-subspace at position rank of enumerate_grassmannian(v, k)."""
    if not 0 <= rank < gaussian_binomial(v, k):
        raise ValueError(f"rank {rank} outside [0, [{v} {k}]_2)")
    sets = _pivot_sets(v, k)
    offset, rows, shifts = sets[bisect_right(sets, rank, key=itemgetter(0)) - 1]
    return Subspace(v, [row[(rank - offset) >> shift & len(row) - 1] for row, shift in zip(rows, shifts)])


class QuotientFrame:
    """Linear coordinates for the quotient sup/sub inside GF(2)^v.

    The transversal rows extend sub's basis to a basis of sup; quotient
    coordinate j corresponds to transversal row j.
    """

    __slots__ = ("sub", "sup", "transversal", "dim", "_basis")

    def __init__(self, sup: Subspace, sub: Subspace):
        if sup.v != sub.v:
            raise ValueError("ambient dimensions differ")
        v, n = sup.v, len(sup.rows)
        # sup row i is tagged with bit v + n - 1 - i, so each pivot at or above
        # bit v, a dependency's lowest tag, names its latest row: the rows that
        # extending sub's basis greedily, in sup's order, drops
        pivots = rref_raw(sub.rows + tuple(r | 1 << (v + n - 1 - i) for i, r in enumerate(sup.rows))).pivots
        if bisect_right(pivots, v - 1) != n:
            raise ValueError("sub is not contained in sup")
        self.sub = sub
        self.sup = sup
        self.transversal = tuple(r for i, r in enumerate(sup.rows) if v + n - 1 - i not in pivots)
        self.dim = len(self.transversal)
        # with transversal row j tagged by bit v + j, reducing x leaves its coordinates above bit v
        self._basis = rref_raw(sub.rows + tuple(r | 1 << (v + j) for j, r in enumerate(self.transversal))).rows

    def project_vector(self, x: int) -> int:
        """Quotient coordinates of x + sub; x must lie in sup."""
        v = self.sup.v
        y = reduce_vector(x, self._basis)
        if x >> v or y & (1 << v) - 1:
            raise ValueError("vector lies outside the frame's superspace")
        return y >> v

    def project(self, s: Subspace) -> Subspace:
        """Image of s in the quotient; requires sub <= s <= sup."""
        if not contains(s, self.sub):
            raise ValueError("subspace does not contain the factored-out space")
        rows = [self.project_vector(r) for r in s.rows]
        out = Subspace(self.dim, rref_raw(rows).rows)
        if out.dim != s.dim - self.sub.dim:
            raise ArithmeticError("projection lost rank unexpectedly")
        return out
