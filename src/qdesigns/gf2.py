"""Linear algebra over GF(2) with bit-packed rows.

A vector in GF(2)^n is a plain int whose bit i holds coordinate i; Python
ints are arbitrary precision, so any ambient dimension works.  A matrix is
a tuple of row ints plus an explicit column count.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "BitMatrix",
    "RrefResult",
    "identity",
    "mat_mul",
    "rank_raw",
    "rref_raw",
    "span_table",
    "vec_mat",
]


class BitMatrix(NamedTuple):
    """Matrix over GF(2); rows[i] bit j is the (i, j) entry."""

    ncols: int
    rows: tuple[int, ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)


class RrefResult(NamedTuple):
    rows: tuple[int, ...]  # nonzero rows, sorted by pivot column
    pivots: tuple[int, ...]  # strictly increasing pivot columns


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, tuple(1 << i for i in range(n)))


def vec_mat(v: int, rows: Sequence[int]) -> int:
    """Row vector times matrix: XOR of the rows selected by bits of v."""
    acc = 0
    while v:
        low = v & -v
        acc ^= rows[low.bit_length() - 1]
        v ^= low
    return acc


def span_table(rows: Sequence[int]) -> list[int]:
    """vec_mat(x, rows) for every x in 0 .. 2^len(rows) - 1, indexed by x."""
    table = [0]
    for r in rows:
        table += [x ^ r for x in table]
    return table


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.ncols} cols vs {b.nrows} rows")
    brows = b.rows
    return BitMatrix(b.ncols, tuple(vec_mat(r, brows) for r in a.rows))


def rref_raw(rows: Iterable[int]) -> RrefResult:
    """Reduced row echelon form of int-packed rows.

    Pivot of a row is its lowest set bit; each pivot column is zero in
    every other row, and rows come back sorted by pivot column.
    """
    basis: list[int] = []  # reduced rows so far, sorted by pivot
    pivots: list[int] = []
    for r in rows:
        for p, b in zip(pivots, basis):
            if r >> p & 1:
                r ^= b
        if r:
            p = (r & -r).bit_length() - 1
            at = 0  # insertion point that keeps the pivots sorted
            for i, b in enumerate(basis):
                if b >> p & 1:
                    basis[i] = b ^ r
                if pivots[i] < p:
                    at = i + 1
            basis.insert(at, r)
            pivots.insert(at, p)
    return RrefResult._make((tuple(basis), tuple(pivots)))


def rank_raw(rows: Iterable[int]) -> int:
    return len(rref_raw(rows).rows)

