"""Brute-force subspace algebra for the tests, by listing vectors.

Each oracle works from a definition alone: the zero subspace has no
rows, a sum is spanned by both bases together, and an intersection is
spanned by the vectors both spans share.  None uses an elimination
that tracks combinations, so they check the package independently.
"""

from qdesigns.grassmann import Subspace, span


def zero_subspace(v: int) -> Subspace:
    return span(v, ())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return span(a.v, a.rows + b.rows)


def intersection(a: Subspace, b: Subspace) -> Subspace:
    return span(a.v, set(a.vectors()) & set(b.vectors()))
