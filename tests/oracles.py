"""Brute-force subspace algebra for the tests, by listing vectors.

Each oracle works from a definition alone: the zero subspace has no
rows, a sum is spanned by both bases together, and an intersection is
spanned by the vectors both spans share.  None uses an elimination
that tracks combinations, so they check the package independently.
The avoiding join is built the slow way, one full elimination per
member, from complements chosen by comparing dimensions.
"""

from itertools import product

from qdesigns.grassmann import Subspace, span


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


def avoiding_join_by_spans(k1: Subspace, k2: Subspace, u1: Subspace) -> frozenset[Subspace]:
    """Every span(K1, c_j + x_j): c_j over a complement of U1 in K2, each x_j in one of K1 in U1."""
    base = complement_rows(k2, u1)
    shifts = span(u1.v, complement_rows(u1, k1)).vectors()
    return frozenset(
        span(u1.v, k1.rows + tuple(c ^ x for c, x in zip(base, offset)))
        for offset in product(shifts, repeat=len(base))
    )
