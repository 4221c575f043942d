"""Subspace designs, large sets, verification, and the classical transforms.

A t-(v, k, lambda) subspace design over GF(2) is a set of k-subspaces
(blocks) such that every t-subspace lies in exactly lambda blocks.  A
large set splits the full Grassmannian of k-subspaces into N disjoint
designs.  Verification is always by exhaustive counting; nothing here
trusts a construction.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, compress, groupby, islice, repeat
from operator import and_, eq, itemgetter, lt, neg, not_, or_, rshift
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .grassmann import (
    Subspace,
    VerificationError,
    _complements,
    _from_columns,
    _nogc,
    _span_columns,
    enumerate_grassmannian,
    gaussian_binomial,
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
    "t_subspace_counts",
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


_COUNT_BATCH = 1 << 16  # span-table entries per chunk of _chunks


@lru_cache(maxsize=None)
def _local_t_subspace_rows(k: int, t: int) -> tuple[tuple[int, ...], ...]:
    """RREF rows of every t-subspace of GF(2)^k; empty when k < t."""
    return tuple(s.rows for s in enumerate_grassmannian(k, t))


def _rref_columns(cols: Sequence[Sequence[int]]) -> bool:
    """Whether every block is in RREF, given its rows as columns.

    In RREF a block's pivots (lowest set bits) strictly increase and each
    is zero in its other rows.  Column i holds row i of every block, so
    each test maps over whole columns instead of looping over blocks.
    """
    lows = [list(map(and_, c, map(neg, c))) for c in cols]
    pivots = lows[0] if lows else []
    for low in lows[1:]:
        pivots = list(map(or_, pivots, low))
    return (
        (not lows or all(lows[0]))
        and all(all(map(lt, a, b)) for a, b in zip(lows, lows[1:]))
        and all(all(map(eq, map(and_, c, pivots), low)) for c, low in zip(cols, lows))
    )


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


def _count_batch(counts: Counter, batch: list[Subspace], t: int) -> None:
    """Adds the t-subspaces of a chunk of blocks to counts, from span-table columns."""
    cols = list(zip(*batch))[1:]  # column 0 holds every block's v
    if not _rref_columns(cols):
        block = next(b for b in batch if not _rref_columns(list(zip(b.rows))))
        raise VerificationError(f"block rows are not in RREF: {block}", witness=block)
    table = _span_columns(cols)
    for c_rows in _local_t_subspace_rows(len(cols), t):  # none when k < t
        counts.update(zip(*[table[c] for c in c_rows]))


@_nogc
def t_subspace_counts(blocks: Iterable[Subspace], t: int) -> dict[tuple[int, ...], int]:
    """Multiset of t-subspaces covered by blocks, keyed by their RREF rows.

    If R is a block's RREF basis and C the RREF basis of a t-subspace of
    GF(2)^k, then C*R is the RREF basis of the matching t-subspace of the
    block, so every key is read straight out of the block's span table.
    That only holds for canonical blocks: a block whose rows are not in
    RREF (pivot = lowest set bit, pivots increasing, each pivot column zero
    in the other rows) raises VerificationError with the block as witness,
    since its t-subspaces could be split over several keys.  At t = 0 the
    one key is () and its count is the number of blocks.

    Blocks are counted a chunk at a time (see _chunks), so no list of all
    keys is ever held.
    """
    if t == 0:
        n = sum(1 for _ in blocks)
        return {(): n} if n else {}
    counts: Counter[tuple[int, ...]] = Counter()
    for batch in _chunks(blocks):
        _count_batch(counts, batch, t)
    return counts


@_nogc
def verify_design(d: Design) -> int:
    """Exhaustively check the design property; returns lambda.

    Every t-subspace of GF(2)^v must lie in exactly d.lam blocks.
    """
    if not 0 <= d.t <= d.k <= d.v:
        raise VerificationError(f"invalid parameters t={d.t} k={d.k} v={d.v}")
    size, v = d.k + 1, d.v
    bad = next((b for b in d.blocks if len(b) != size or b[0] != v), None)
    if bad is not None:
        raise VerificationError(f"block has wrong shape: {bad}", witness=bad)
    expected_blocks = d.lam * gaussian_binomial(d.v, d.t)
    denom = gaussian_binomial(d.k, d.t)
    if expected_blocks % denom:
        raise VerificationError(
            f"lambda={d.lam} is not consistent with any {d.t}-({d.v},{d.k}) design"
        )
    if len(d.blocks) != expected_blocks // denom:
        raise VerificationError(
            f"block count {len(d.blocks)} differs from required {expected_blocks // denom}"
        )
    counts = t_subspace_counts(d.blocks, d.t)
    total = gaussian_binomial(d.v, d.t)
    if len(counts) != total and d.lam != 0:
        raise VerificationError(
            f"only {len(counts)} of {total} {d.t}-subspaces are covered",
            witness=next(
                (s for s in enumerate_grassmannian(d.v, d.t) if s.rows not in counts), None
            ),
        )
    for key, c in counts.items():
        if c != d.lam:
            raise VerificationError(
                f"a {d.t}-subspace lies in {c} blocks, expected {d.lam}",
                witness=Subspace(d.v, key),
            )
    return d.lam


def large_set_lambda(v: int, k: int, t: int, n: int) -> int:
    """Per-design lambda of a large set with N members; errors if N does not divide."""
    if n < 1:
        raise VerificationError(f"a large set needs N >= 1 members, got N={n}")
    lam_max = gaussian_binomial(v - t, k - t)
    if lam_max % n:
        raise VerificationError(
            f"N={n} does not divide the maximal lambda {lam_max} for t={t} k={k} v={v}"
        )
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
                raise VerificationError(
                    f"{name} {j} and {i} overlap", witness=min(part & earlier)
                )


def verify_large_set(ls: LargeSet) -> LargeSetReport:
    """Check all member designs, disjointness, and full coverage."""
    if len(ls.designs) != ls.n:
        raise VerificationError(f"{len(ls.designs)} designs listed, N={ls.n}")
    lam = large_set_lambda(ls.v, ls.k, ls.t, ls.n)
    for i, d in enumerate(ls.designs):
        if (d.v, d.k, d.t) != (ls.v, ls.k, ls.t):
            raise VerificationError(f"design {i} has parameters {(d.v, d.k, d.t)}")
        if d.lam != lam:
            raise VerificationError(f"design {i} declares lambda={d.lam}, expected {lam}")
        verify_design(d)
    check_disjoint([d.blocks for d in ls.designs], "designs")
    total = sum(len(d.blocks) for d in ls.designs)
    size = gaussian_binomial(ls.v, ls.k)
    if total != size:
        raise VerificationError(
            f"union holds {total} blocks, Grassmannian has {size}"
        )
    return LargeSetReport(
        ls.v,
        ls.k,
        ls.t,
        ls.n,
        lam,
        tuple(len(d.blocks) for d in ls.designs),
        size,
    )


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


TRANSFORMS = {
    "derived": derived_large_set,
    "residual": residual_large_set,
    "dual": dual_large_set,
}


# ---------------------------------------------------------------------------
# file formats


def _parse_header(line: str, path) -> dict[str, int]:
    fields = {}
    for part in line.split():
        key, _, val = part.partition("=")  # no "=" leaves val empty, which int() refuses
        if key in fields:
            raise ValueError(f"{path}: header repeats {key}=")
        try:
            fields[key] = int(val)
        except ValueError:
            raise ValueError(f"{path}: bad header token {part!r}") from None
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
    try:  # ints per line, so no line's strings outlive its parse
        rows = list(map(tuple, map(map, repeat(int), map(str.split, chunk))))
    except ValueError:  # the line-by-line read raises it at its line
        return None
    cols = list(zip(*rows))
    ok = k and all(len(r) == k for r in rows) and min(map(min, cols)) > 0 and not max(map(max, cols)) >> v
    return cols if ok and _rref_columns(cols) else None


@_nogc
def read_design(path) -> Design:
    """Parse a design file; a block given twice, in any basis, is an error.

    Lines are read in chunks, so the file's text is never held whole.  A
    chunk with a block not in RREF (write_design leaves none) is read line by line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = filter(None, map(str.strip, fh))
        header = next(lines, None)
        if header is None:
            raise ValueError(f"{path}: empty design file")
        hdr = _parse_header(header, path)
        for key in ("q", "v", "k", "t", "lambda"):
            if key not in hdr:
                raise ValueError(f"{path}: header is missing {key}=")
        if hdr["q"] != 2:
            raise ValueError(f"{path}: only q=2 is supported, got q={hdr['q']}")
        v, k = hdr["v"], hdr["k"]
        size = max(_COUNT_BATCH >> max(k, 0), 1)  # a k < 0 header fails on its first line
        blocks: list[Subspace] = []
        for chunk in iter(lambda: list(islice(lines, size)), []):
            cols = _rref_chunk(chunk, v, k)
            if cols is not None:
                blocks.extend(_from_columns(v, cols, len(chunk)))
                continue
            for ln in chunk:
                rows = tuple(map(int, ln.split()))
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


def read_large_set(path) -> LargeSet:
    path = os.fspath(path)
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty large-set manifest")
    hdr = _parse_header(lines[0], path)
    for key in ("q", "v", "k", "t", "N"):
        if key not in hdr:
            raise ValueError(f"{path}: header is missing {key}=")
    if hdr["q"] != 2:
        raise ValueError(f"{path}: only q=2 is supported, got q={hdr['q']}")
    v, k, t, n = hdr["v"], hdr["k"], hdr["t"], hdr["N"]
    if "lambda" in hdr:
        lam = large_set_lambda(v, k, t, n)
        if hdr["lambda"] != lam:
            raise ValueError(f"{path}: header declares lambda={hdr['lambda']}, N={n} needs {lam}")
    rels = lines[1:]
    if len(rels) != n:
        raise ValueError(f"{path}: {len(rels)} design paths listed, N={n}")
    base = os.path.dirname(path) or "."
    designs = []
    for rel in rels:
        d = read_design(os.path.join(base, rel))
        if (d.v, d.k, d.t) != (v, k, t):
            raise ValueError(f"{path}: design {rel} disagrees with manifest header")
        designs.append(d)
    return LargeSet(v, k, t, n, tuple(designs))
