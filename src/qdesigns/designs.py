"""Subspace designs, large sets, verification, and the classical transforms.

A t-(v, k, lambda) subspace design over GF(2) is a set of k-subspaces
(blocks) such that every t-subspace lies in exactly lambda blocks.  A
large set splits the full Grassmannian of k-subspaces into N disjoint
designs.  Verification is always by exhaustive counting; nothing here
trusts a construction.

Counting reads bit planes, a chunk of blocks at a time: plane b of row
column j is the int whose bit i is bit b of block i's row j.  The planes
alone show whether each block is an RREF basis of GF(2)^v.  They give the
point set S_x of every vector x, the blocks that hold x, by the block's
complement, with one XOR per plane per x in Gray code order.  The
t-subspace with RREF rows a_1..a_t lies in popcount(S_a1 & ... & S_at)
blocks.  A chunk holds max(2^21 >> v, 8192) blocks, so up to v = 8 its 2^v
point sets hold about 2^21 bits.  Shape, RREF rows and counts come from
one strict transposition of the chunk, its only pass over the blocks.
_incidences yields the intersections chunk by chunk: verify_design sums
their popcounts, and build_km reads from their bits which k-orbit
representatives hold each t-subspace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import add, and_, invert, itemgetter, not_, or_, rshift, xor
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .grassmann import (
    Subspace,
    VerificationError,
    _bit_planes,
    _complements,
    _from_columns,
    _nogc,
    _t_columns,
    gaussian_binomial,
    grassmannian_unrank,
    span,
)

__all__ = [
    "Design",
    "LargeSet",
    "LargeSetReport",
    "TRANSFORMS",
    "VerificationError",
    "check_disjoint",
    "derived_large_set",
    "dual_large_set",
    "large_set",
    "large_set_lambda",
    "read_design",
    "read_large_set",
    "residual_large_set",
    "verify_design",
    "verify_large_set",
    "write_design",
    "write_large_set",
]


@dataclass(frozen=True)
class Design:
    v: int
    k: int
    t: int
    lam: int
    blocks: frozenset[Subspace]

    def __post_init__(self) -> None:
        if not isinstance(self.blocks, (set, frozenset)):  # blocks are distinct only in a set
            raise TypeError(f"a design's blocks must be a set or frozenset, not {type(self.blocks).__name__}")


@dataclass(frozen=True)
class LargeSet:
    v: int
    k: int
    t: int
    n: int
    designs: tuple[Design, ...]


@dataclass(frozen=True)
class LargeSetReport:
    v: int
    k: int
    t: int
    n: int
    lam: int
    blocks_per_design: tuple[int, ...]
    grassmannian_size: int


_COUNT_BATCH = 1 << 16  # span-table entries per _chunks chunk; 1/32 of the point-set bits per _incidences chunk


def _rref_planes(cols: Iterable[Iterable[int]], v: int, n: int) -> Optional[tuple[list[list[int]], list[list[int]]]]:
    """The bit planes (grassmann._bit_planes) and pivot planes of n blocks' row columns, or None unless each block
    is an RREF basis of GF(2)^v.  Pivot plane b: the blocks whose row has its lowest bit at b.
    """
    full, planes, pivots = (1 << n) - 1, [], []
    earlier, below, bad = [0] * v, [-1] * v, 0  # below: every block has a bit below b in the row before the first
    for c in cols:
        try:
            plane = _bit_planes(c, v)
        except (ValueError, OverflowError):  # a row below 0 or wider than v bits
            return None
        *low, seen = accumulate(plane, or_, initial=0)  # low[b]: the blocks whose row has a bit below b
        pivot = list(map(and_, plane, map(invert, low)))
        # a row must not be zero, and its pivot must lie above the previous row's and be clear in every earlier row
        bad |= full ^ seen | reduce(or_, map(and_, pivot, map(or_, earlier, map(invert, below))), 0)
        earlier, below = list(map(or_, earlier, plane)), low
        planes.append(plane)
        pivots.append(pivot)
    return None if bad else (planes, pivots)


def _checked_planes(chunk: list[Subspace], v: int, size: int) -> tuple[list[list[int]], list[list[int]]]:
    """_rref_planes of a chunk of blocks of GF(2)^v, each of length size, read from one strict transposition.

    VerificationError names the chunk's first block of another v or length, or else its first one not in RREF.
    """
    try:
        cols = list(zip(*chunk, strict=True))
    except ValueError:  # a ragged chunk
        cols = []
    if len(cols) != size or not cols or cols[0].count(v) != len(chunk):
        bad = next(b for b in chunk if len(b) != size or b[:1] != (v,))
        raise VerificationError(f"block has wrong shape: {bad}", witness=bad)
    found = _rref_planes(cols[1:], v, len(chunk))
    if found is None:
        block = next(b for b in chunk if _rref_planes(zip(b[1:]), v, 1) is None)
        raise VerificationError(f"block rows are not an RREF basis of GF(2)^{v}: {block}", witness=block)
    return found


def _point_sets(planes: list[list[int]], pivots: list[list[int]], v: int, n: int) -> list[int]:
    """Entry x is the set of the n blocks that hold the vector x, as an int with bit i for block i.

    x lies in a block iff it is orthogonal to each u_f = e_f + sum_j r_{j,f} e_{p_j} (row r_j has pivot p_j).
    """
    full = (1 << n) - 1
    u = [[reduce(xor, map(and_, [p[f] for p in planes], [q[g] for q in pivots]), full if f == g else 0)
          for f in range(v)] for g in range(v)]  # u[g][f]: the blocks whose u_f has bit g
    odd, points, x = [0] * v, [full] * (1 << v), 0
    for i in range(1, 1 << v):
        g = (i & -i).bit_length() - 1
        x ^= 1 << g
        odd = list(map(xor, odd, u[g]))
        points[x] = full ^ reduce(or_, odd)
    return points


def _incidences(blocks: Iterable[Subspace], v: int, t: int) -> Iterator[tuple[int, Iterable[int]]]:
    """Per chunk of blocks, all of one dimension: the index of its first block, and for each t-subspace of GF(2)^v in
    enumerate_grassmannian(v, t) order the int whose bit i is set iff the chunk's block i holds it.

    A block of another v or length than the first, or not an RREF basis, raises VerificationError.  t = 0 makes no
    point set.
    """
    it, start, size, tcols = iter(blocks), 0, None, _t_columns(v, t)
    for chunk in iter(lambda: list(islice(it, max((_COUNT_BATCH << 5) >> v, _COUNT_BATCH >> 3, 1))), []):
        size = size or len(chunk[0])
        planes = _checked_planes(chunk, v, size)
        if t:
            points = _point_sets(*planes, v, len(chunk))
            yield start, reduce(partial(map, and_), [map(points.__getitem__, c) for c in tcols])
        else:
            yield start, [(1 << len(chunk)) - 1]
        start += len(chunk)


def _incidence_counts(blocks: Iterable[Subspace], v: int, t: int) -> list[int]:
    """How many blocks, all of one dimension, hold each t-subspace of GF(2)^v, in enumerate_grassmannian(v, t) order."""
    counts = [0] * gaussian_binomial(v, t)
    for _, held in _incidences(blocks, v, t):
        counts = list(map(add, counts, map(int.bit_count, held)))
    return counts


def _chunks(blocks: Iterable[Subspace]) -> Iterator[list[Subspace]]:
    """The blocks in lists of one dimension k, each of at most max(_COUNT_BATCH >> k, 1) blocks.

    A cut of the stream that mixes dimensions is split by dimension and cut again.
    """
    it = iter(blocks)
    for first in it:
        chunk = [first, *islice(it, max(_COUNT_BATCH >> (len(first) - 1), 1) - 1)]
        if len(set(map(len, chunk))) == 1:
            yield chunk
        else:
            for _, part in groupby(sorted(chunk, key=len), len):
                yield from _chunks(part)


def _batched(kernel: Callable[..., Iterable[Subspace]], blocks: Iterable[Subspace], *args) -> Iterator[Subspace]:
    """kernel(chunk, *args) on each chunk of _chunks(blocks), chained."""
    return chain.from_iterable(kernel(chunk, *args) for chunk in _chunks(blocks))


def _checked_counts(d: Design, t: int) -> list[int]:
    """_incidence_counts(d.blocks, d.v, t) after the checks that need no counting: parameters, lambda, block count.
    A later failure names d's first block not of the shape (v, k rows) if there is one, as a shape pass first would.
    """
    if not 0 <= d.t <= d.k <= d.v:
        raise VerificationError(f"invalid parameters t={d.t} k={d.k} v={d.v}")
    try:
        expected_blocks = d.lam * gaussian_binomial(d.v, d.t)
        denom = gaussian_binomial(d.k, d.t)
        if expected_blocks % denom:
            raise VerificationError(f"lambda={d.lam} is not consistent with any {d.t}-({d.v},{d.k}) design")
        if len(d.blocks) != expected_blocks // denom:
            raise VerificationError(f"block count {len(d.blocks)} differs from required {expected_blocks // denom}")
        if d.blocks and len(next(iter(d.blocks))) != d.k + 1:  # _incidences holds each block to the first's length
            raise VerificationError("the first block has the wrong length")  # named as a wrong shape below
        return _incidence_counts(d.blocks, d.v, t)
    except VerificationError:
        bad = next((b for b in d.blocks if len(b) != d.k + 1 or b[0] != d.v), None)
        if bad is None:
            raise
        raise VerificationError(f"block has wrong shape: {bad}", witness=bad) from None


@_nogc
def verify_design(d: Design) -> int:
    """Exhaustively check the design property; returns lambda.

    Every t-subspace of GF(2)^v must lie in exactly d.lam blocks, counted
    by _incidence_counts.
    """
    counts = _checked_counts(d, d.t)
    if d.lam and 0 in counts:  # an uncovered t-subspace is the witness before any other miscount
        at = counts.index(0)
        message = f"only {len(counts) - counts.count(0)} of {len(counts)} {d.t}-subspaces are covered"
    elif counts.count(d.lam) != len(counts):
        at = next(i for i, c in enumerate(counts) if c != d.lam)
        message = f"a {d.t}-subspace lies in {counts[at]} blocks, expected {d.lam}"
    else:
        return d.lam
    raise VerificationError(message, witness=grassmannian_unrank(d.v, d.t, at))


def large_set_lambda(v: int, k: int, t: int, n: int) -> int:
    """Per-design lambda of a large set with N members; errors if N does not divide."""
    if n < 1:
        raise VerificationError(f"a large set needs N >= 1 members, got N={n}")
    lam_max = gaussian_binomial(v - t, k - t)
    if lam_max % n:
        raise VerificationError(f"N={n} does not divide the maximal lambda {lam_max} for t={t} k={k} v={v}")
    return lam_max // n


def _frozen(members: Iterable[Subspace]) -> frozenset[Subspace]:
    """The members as a frozenset; one that is already frozen is kept as it is.

    Copied from a set, a frozenset is presized to twice the set's size.
    Filled from an iterator, it grows only to the table its size needs,
    about half as large.
    """
    return members if isinstance(members, frozenset) else frozenset(iter(members))


def large_set(v: int, k: int, t: int, parts: Iterable[Iterable[Subspace]]) -> LargeSet:
    """The parts as a large set of t-(v, k, lambda) designs, lambda from large_set_lambda.

    A part that is already a frozenset becomes its design's blocks without
    a copy.  Nothing is verified; see verify_large_set.
    """
    if t < 0:
        raise ValueError(f"a large set needs strength t >= 0, got t={t}")
    blocks = tuple(map(_frozen, parts))
    lam = large_set_lambda(v, k, t, len(blocks))
    return LargeSet(v, k, t, len(blocks), tuple(Design(v, k, t, lam, b) for b in blocks))


def check_disjoint(parts: Sequence[frozenset[Subspace]], name: str = "parts") -> None:
    """Raise VerificationError if two parts share a member.

    Parts are compared pairwise, so no union of all members is ever held.
    """
    for i, part in enumerate(parts):
        for j, earlier in enumerate(parts[:i]):
            if not part.isdisjoint(earlier):
                raise VerificationError(f"{name} {j} and {i} overlap", witness=min(part & earlier))


@_nogc
def verify_large_set(ls: LargeSet) -> LargeSetReport:
    """Check all member designs, disjointness, and full coverage.

    Designs 1..N-1 are counted.  The last gets every other check of verify_design, RREF blocks included, and
    disjointness and coverage prove it: N disjoint sets of distinct blocks, [v k] in all, are Gr(v, k), a
    t-(v, k, lam_max) design, so each t-subspace lies in lam_max - (N-1)*lam = lam blocks of the last.  Before
    disjointness or coverage fails, the last design is counted too: a broken large set raises what counting all N
    designs raises first.
    """
    if len(ls.designs) != ls.n:
        raise VerificationError(f"{len(ls.designs)} designs listed, N={ls.n}")
    lam = large_set_lambda(ls.v, ls.k, ls.t, ls.n)
    for i, d in enumerate(ls.designs):
        if (d.v, d.k, d.t) != (ls.v, ls.k, ls.t):
            raise VerificationError(f"design {i} has parameters {(d.v, d.k, d.t)}")
        if d.lam != lam:
            raise VerificationError(f"design {i} declares lambda={d.lam}, expected {lam}")
        if i == ls.n - 1:
            _checked_counts(d, 0)  # the shape and RREF checks alone: t = 0 makes no point sets
        else:
            verify_design(d)
    size = gaussian_binomial(ls.v, ls.k)
    try:
        check_disjoint([d.blocks for d in ls.designs], "designs")
        total = sum(len(d.blocks) for d in ls.designs)
        if total != size:
            raise VerificationError(f"union holds {total} blocks, Grassmannian has {size}")
    except VerificationError:
        verify_design(ls.designs[-1])
        raise
    return LargeSetReport(ls.v, ls.k, ls.t, ls.n, lam, tuple(len(d.blocks) for d in ls.designs), size)


# ---------------------------------------------------------------------------
# transforms: each runs a kernel over the row columns of every chunk


def _through_e0(chunk: list[Subspace], v: int) -> Iterator[Subspace]:
    """The chunk's blocks whose first row is 1, with that row dropped and the others shifted by one."""
    kept = list(compress(chunk, map((1).__eq__, map(itemgetter(1), chunk))))
    return _from_columns(v, [map(rshift, c, repeat(1)) for c in list(zip(*kept))[2:]], len(kept))


def _within(chunk: list[Subspace], v: int) -> Iterator[Subspace]:
    """The chunk's blocks whose rows have no bit v or higher, as blocks of GF(2)^v."""
    cols = list(zip(*chunk))[1:]
    union = reduce(partial(map, or_), cols, repeat(0, len(chunk)))
    keep = list(map(not_, map(rshift, union, repeat(v))))
    return _from_columns(v, [compress(c, keep) for c in cols], sum(keep))


@_nogc
def derived_large_set(ls: LargeSet, verify: bool = True) -> LargeSet:
    """Blocks through the point e_0, reduced modulo it: (t-1, k-1, v-1).

    A block holds e_0 iff its first RREF row is 1.  Its other rows are
    then zero at bit 0, and shifted right by one bit they are the RREF
    of its image.
    """
    if ls.t < 1:
        raise ValueError("derived transform needs t >= 1")
    v = ls.v - 1
    out = large_set(v, ls.k - 1, ls.t - 1, (_batched(_through_e0, d.blocks, v) for d in ls.designs))
    if verify:
        verify_large_set(out)
    return out


@_nogc
def residual_large_set(ls: LargeSet, verify: bool = True) -> LargeSet:
    """Blocks inside the hyperplane x_{v-1} = 0, in its coordinates: (t-1, k, v-1).

    A block lies in it iff no RREF row has bit v-1, and then its rows
    are already the RREF of its image in GF(2)^(v-1).
    """
    if ls.t < 1:
        raise ValueError("residual transform needs t >= 1")
    v = ls.v - 1
    out = large_set(v, ls.k, ls.t - 1, (_batched(_within, d.blocks, v) for d in ls.designs))
    if verify:
        verify_large_set(out)
    return out


@_nogc
def dual_large_set(ls: LargeSet, verify: bool = True) -> LargeSet:
    """Orthogonal complements of all blocks (see grassmann._complements): (t, v-k, v)."""
    out = large_set(ls.v, ls.v - ls.k, ls.t, (_batched(_complements, d.blocks) for d in ls.designs))
    for d, image in zip(ls.designs, out.designs):
        if len(image.blocks) != len(d.blocks):
            raise VerificationError("complement map collapsed two blocks")
    if verify:
        verify_large_set(out)
    return out


TRANSFORMS = {"derived": derived_large_set, "residual": residual_large_set, "dual": dual_large_set}


# ---------------------------------------------------------------------------
# file formats


def _content_lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines stripped, less blank ones and comments: a comment's first non-blank character is #."""
    return (ln for ln in map(str.strip, lines) if ln and not ln.startswith("#"))


def _parse_header(line: str, path, keys: Sequence[str]) -> dict[str, int]:
    """The header's fields: each of keys and maybe lambda, with q = 2, 0 <= t <= k <= v, lambda >= 0 and N >= 1."""
    fields = {}
    for part in line.split():
        key, _, val = part.partition("=")  # no "=" leaves val empty, which int() refuses
        if key in fields:
            raise ValueError(f"{path}: header repeats {key}=")
        try:
            fields[key] = int(val)
        except ValueError:
            raise ValueError(f"{path}: bad header token {part!r}") from None
        if key not in keys and key != "lambda":
            raise ValueError(f"{path}: header has unknown key {key}=")
    for key in keys:
        if key not in fields:
            raise ValueError(f"{path}: header is missing {key}=")
    if fields["q"] != 2:
        raise ValueError(f"{path}: only q=2 is supported, got q={fields['q']}")
    if not 0 <= fields["t"] <= fields["k"] <= fields["v"]:
        raise ValueError(f"{path}: header needs 0 <= t <= k <= v, got t={fields['t']} k={fields['k']} v={fields['v']}")
    if fields.get("lambda", 0) < 0:
        raise ValueError(f"{path}: header declares lambda={fields['lambda']}, which is negative")
    if fields.get("N", 1) < 1:
        raise ValueError(f"{path}: header declares N={fields['N']}, but a large set needs N >= 1")
    return fields


def write_design(path, d: Design) -> None:
    """One header line, then one block per line as its RREF basis rows.

    The zero subspace, the one block of a k = 0 design, is written as 0.
    """
    blocks = sorted(d.blocks)  # blocks of one v sort in the order of their rows
    bad = next((b for b in blocks if len(b) != d.k + 1), None)
    if bad is not None:
        raise ValueError(f"block rows {list(bad.rows)} do not span a {d.k}-subspace")
    line = " ".join(["%d"] * d.k) + "\n" if d.k else "0\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"q=2 v={d.v} k={d.k} t={d.t} lambda={d.lam}\n")
        # rows are sliced one block at a time: holding all slices at once
        # sets off collector passes over them
        fh.writelines(map(line.__mod__, map(itemgetter(slice(1, None)), blocks)))


def _rref_chunk(chunk: list[str], v: int, k: int) -> Optional[list[tuple[int, ...]]]:
    """The chunk's row columns if every line holds the k rows of an RREF block of GF(2)^v, else None."""
    try:  # ints per line, so no line's strings outlive its parse; the transposition is strict, as in _checked_planes
        cols = list(zip(*map(tuple, map(map, repeat(int), map(str.split, chunk))), strict=True))
    except ValueError:  # a bad int or a line of another length: the line-by-line read raises it at its line
        return None
    return cols if len(cols) == k and _rref_planes(cols, v, len(chunk)) is not None else None


@_nogc
def read_design(path) -> Design:
    """Parse a design file; a block given twice, in any basis, is an error.

    Lines are read in chunks, so the file's text is never held whole.  A
    chunk with a block not in RREF (write_design leaves none) is read line by line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = filter(None, map(str.strip, fh))
        header = next(_content_lines(lines), None)
        if header is None:
            raise ValueError(f"{path}: empty design file")
        hdr = _parse_header(header, path, ("q", "v", "k", "t", "lambda"))
        v, k = hdr["v"], hdr["k"]
        size = max(_COUNT_BATCH >> k, 1)
        blocks: list[Subspace] = []
        for chunk in iter(lambda: list(islice(lines, size)), []):
            cols = _rref_chunk(chunk, v, k)
            if cols is not None:
                blocks.extend(_from_columns(v, cols, len(chunk)))
                continue
            for ln in _content_lines(chunk):
                try:
                    rows = tuple(map(int, ln.split()))
                except ValueError:
                    raise ValueError(f"{path}: bad block line {ln!r}") from None
                if len(rows) != k:
                    if k == 0 and rows == (0,):  # the zero subspace, as write_design writes it
                        blocks.append(Subspace(v, ()))
                        continue
                    raise ValueError(f"{path}: block line has {len(rows)} rows, expected {k}")
                s = span(v, rows)
                if s.dim != k:
                    raise ValueError(f"{path}: block rows are dependent: {list(rows)}")
                blocks.append(s)
    unique = frozenset(blocks)
    if len(unique) != len(blocks):
        first: dict[Subspace, int] = {}
        for i, s in enumerate(blocks, start=1):
            j = first.setdefault(s, i)
            if j != i:
                rows = " ".join(map(str, s.rows))
                raise ValueError(f"{path}: block {i} repeats block {j}, the span of rows {rows}")
    return Design(v, k, hdr["t"], hdr["lambda"], unique)


def write_large_set(path, ls: LargeSet, design_paths: Optional[Sequence[str]] = None) -> None:
    """Member design files, then a manifest: header plus one member path per line.

    design_paths names the N member files relative to the manifest's
    directory; by default they are <stem>_design<i>.txt.
    """
    path = os.fspath(path)
    base = os.path.dirname(path) or "."
    if design_paths is None:
        stem = os.path.splitext(os.path.basename(path))[0]
        design_paths = [f"{stem}_design{i + 1}.txt" for i in range(ls.n)]
    if len(design_paths) != ls.n:
        raise ValueError(f"{len(design_paths)} design paths given, N={ls.n}")
    for rel, d in zip(design_paths, ls.designs):
        write_design(os.path.join(base, rel), d)
    lam = large_set_lambda(ls.v, ls.k, ls.t, ls.n)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"q=2 v={ls.v} k={ls.k} t={ls.t} N={ls.n} lambda={lam}\n")
        for rel in design_paths:
            fh.write(rel + "\n")


def _large_set_files(path: str) -> tuple[tuple[int, int, int, int], list[str]]:
    """The checked header (v, k, t, N) of the .ls file at path, and the paths of the N design files it lists."""
    with open(path, "r", encoding="ascii") as fh:
        lines = list(_content_lines(fh))
    if not lines:
        raise ValueError(f"{path}: empty large-set manifest")
    hdr = _parse_header(lines[0], path, ("q", "v", "k", "t", "N"))
    v, k, t, n = hdr["v"], hdr["k"], hdr["t"], hdr["N"]
    lam_max = gaussian_binomial(v - t, k - t)
    if "lambda" in hdr and hdr["lambda"] * n != lam_max:  # without lambda=, verify_large_set checks that N divides
        needs = lam_max // n if lam_max % n == 0 else f"{lam_max}/{n}, which is not an integer"
        raise ValueError(f"{path}: header declares lambda={hdr['lambda']}, N={n} needs {needs}")
    rels = lines[1:]
    if len(rels) != n:
        raise ValueError(f"{path}: {len(rels)} design paths listed, N={n}")
    base = os.path.dirname(path) or "."
    return (v, k, t, n), [os.path.join(base, rel) for rel in rels]


def read_large_set(path) -> LargeSet:
    path = os.fspath(path)
    (v, k, t, n), members = _large_set_files(path)
    designs = []
    for member in members:
        d = read_design(member)
        if (d.v, d.k, d.t) != (v, k, t):
            raise ValueError(f"{path}: design {member} disagrees with manifest header")
        designs.append(d)
    return LargeSet(v, k, t, n, tuple(designs))
