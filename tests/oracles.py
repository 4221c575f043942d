"""Brute-force subspace algebra for the tests, by listing vectors.

Each oracle works from a definition alone: the zero subspace has no
rows, a sum is spanned by both bases together, and an intersection is
spanned by the vectors both spans share.  None uses an elimination
that tracks combinations, so they check the package independently.
The avoiding join is built the slow way, one full elimination per
member, from complements chosen by comparing dimensions, and the
orthogonal complement from one orthogonal row per non-pivot column.
A quotient frame's preimage is spanned by the transversal images of
the quotient rows together with the factored-out rows.  The
Grassmannian is listed block by block in its documented order, one free
cell at a time.  A design is verified by checking every block's shape
before anything else, then, after the block count, every block's RREF
rows in a pass of their own, then counting; a large set by so verifying
every design, the last one too.  An orbit is the one-representative case of
the package's batched expansion.
"""

from itertools import combinations, product, repeat
from operator import eq, itemgetter
from typing import Iterator

from qdesigns.designs import (
    Design,
    LargeSet,
    LargeSetReport,
    VerificationError,
    _chunks,
    _incidence_counts,
    check_disjoint,
    large_set_lambda,
)
from qdesigns.gf2 import vec_mat
from qdesigns.grassmann import QuotientFrame, Subspace, gaussian_binomial, grassmannian_unrank, span
from qdesigns.groups import Group, orbits


def zero_subspace(v: int) -> Subspace:
    return span(v, ())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return span(a.v, a.rows + b.rows)


def intersection(a: Subspace, b: Subspace) -> Subspace:
    return span(a.v, set(a.vectors()) & set(b.vectors()))


def complement_rows(sup: Subspace, sub: Subspace) -> list[int]:
    """Rows of sup that extend sub's basis to one of sup, taken greedily."""
    rows: list[int] = []
    for r in sup.rows:
        if span(sup.v, sub.rows + tuple(rows) + (r,)).dim > sub.dim + len(rows):
            rows.append(r)
    return rows


def elimination_complement(s: Subspace) -> Subspace:
    """Oracle for orthogonal_complement: one row per non-pivot column f, then RREF.

    The row is e_f plus e_p for each basis row with pivot p and bit f set,
    which is orthogonal to every basis row; the rows are then eliminated.
    """
    piv = [(r & -r).bit_length() - 1 for r in s.rows]
    out = []
    for f in range(s.v):
        if f in piv:
            continue
        x = 1 << f
        for p, r in zip(piv, s.rows):
            if (r >> f) & 1:
                x |= 1 << p
        out.append(x)
    return span(s.v, out)


def avoiding_join_by_spans(k1: Subspace, k2: Subspace, u1: Subspace) -> frozenset[Subspace]:
    """Every span(K1, c_j + x_j): c_j over a complement of U1 in K2, each x_j in one of K1 in U1."""
    base = complement_rows(k2, u1)
    shifts = span(u1.v, complement_rows(u1, k1)).vectors()
    return frozenset(
        span(u1.v, k1.rows + tuple(c ^ x for c, x in zip(base, offset)))
        for offset in product(shifts, repeat=len(base))
    )


def lift_preimage(frame: QuotientFrame, sbar: Subspace) -> Subspace:
    """Full preimage in GF(2)^v of a subspace of the frame's quotient."""
    if sbar.v != frame.dim:
        raise ValueError("quotient subspace has the wrong ambient dimension")
    return span(frame.sup.v, [vec_mat(r, frame.transversal) for r in sbar.rows] + list(frame.sub.rows))


def grassmannian_by_free_cells(v: int, k: int) -> Iterator[Subspace]:
    """Every k-subspace of GF(2)^v in the order enumerate_grassmannian documents.

    Pivot-column sets come in lexicographic order.  Within one, the free
    cells (row i, column j) with j after row i's pivot and not itself a
    pivot column, listed row by row, are counted in binary with the first
    cell least significant.
    """
    for pivots in combinations(range(v), k):
        cells = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, v) if j not in pivots]
        for bits in range(1 << len(cells)):
            rows = [1 << p for p in pivots]
            for n, (i, j) in enumerate(cells):
                if bits >> n & 1:
                    rows[i] |= 1 << j
            yield Subspace(v, rows)


def orbit_of(s: Subspace, group: Group) -> set[Subspace]:
    """Orbit of s: its image under every element of the group, by a one-representative call of groups.orbits."""
    return next(orbits([s], group))


def is_rref(rows: tuple[int, ...], v: int) -> bool:
    """Whether the rows are an RREF basis of GF(2)^v: each nonzero and inside v bits, their pivots (lowest bits)
    strictly rising, and each pivot clear in every other row."""
    pivots = [r & -r for r in rows]
    return (all(0 < r < 1 << v for r in rows) and pivots == sorted(set(pivots))
            and not any(r & p for r in rows for p in pivots if p != r & -r))


def verify_design_checking_shapes_first(d: Design) -> int:
    """Oracle for designs.verify_design: each block's shape is checked in its own pass before anything else, and
    each block's RREF rows in another before counting."""
    if not 0 <= d.t <= d.k <= d.v:
        raise VerificationError(f"invalid parameters t={d.t} k={d.k} v={d.v}")
    size, v = d.k + 1, d.v
    if not (all(map(eq, map(len, d.blocks), repeat(size))) and all(map(eq, map(itemgetter(0), d.blocks), repeat(v)))):
        bad = next(b for b in d.blocks if len(b) != size or b[0] != v)
        raise VerificationError(f"block has wrong shape: {bad}", witness=bad)
    expected_blocks = d.lam * gaussian_binomial(d.v, d.t)
    denom = gaussian_binomial(d.k, d.t)
    if expected_blocks % denom:
        raise VerificationError(f"lambda={d.lam} is not consistent with any {d.t}-({d.v},{d.k}) design")
    if len(d.blocks) != expected_blocks // denom:
        raise VerificationError(f"block count {len(d.blocks)} differs from required {expected_blocks // denom}")
    bad = next((b for b in d.blocks if not is_rref(b.rows, v)), None)
    if bad is not None:
        raise VerificationError(f"block rows are not an RREF basis of GF(2)^{v}: {bad}", witness=bad)
    counts = _incidence_counts(_chunks(d.blocks), d.v, d.t, d.k)
    if d.lam and 0 in counts:  # an uncovered t-subspace is the witness before any other miscount
        at = counts.index(0)
        message = f"only {len(counts) - counts.count(0)} of {len(counts)} {d.t}-subspaces are covered"
    elif counts.count(d.lam) != len(counts):
        at = next(i for i, c in enumerate(counts) if c != d.lam)
        message = f"a {d.t}-subspace lies in {counts[at]} blocks, expected {d.lam}"
    else:
        return d.lam
    raise VerificationError(message, witness=grassmannian_unrank(d.v, d.t, at))


def verify_large_set_counting_all(ls: LargeSet) -> LargeSetReport:
    """Oracle for designs.verify_large_set: every design is counted, then disjointness and coverage are checked."""
    if len(ls.designs) != ls.n:
        raise VerificationError(f"{len(ls.designs)} designs listed, N={ls.n}")
    lam = large_set_lambda(ls.v, ls.k, ls.t, ls.n)
    for i, d in enumerate(ls.designs):
        if (d.v, d.k, d.t) != (ls.v, ls.k, ls.t):
            raise VerificationError(f"design {i} has parameters {(d.v, d.k, d.t)}")
        if d.lam != lam:
            raise VerificationError(f"design {i} declares lambda={d.lam}, expected {lam}")
        verify_design_checking_shapes_first(d)
    check_disjoint([d.blocks for d in ls.designs], "designs")
    total = sum(len(d.blocks) for d in ls.designs)
    size = gaussian_binomial(ls.v, ls.k)
    if total != size:
        raise VerificationError(f"union holds {total} blocks, Grassmannian has {size}")
    return LargeSetReport(ls.v, ls.k, ls.t, ls.n, lam, tuple(len(d.blocks) for d in ls.designs), size)
