from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesigns.gf2 import (
    BitMatrix,
    RrefResult,
    identity,
    mat_mul,
    rank_raw,
    rref_raw,
    span_table,
    vec_mat,
)


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> BitMatrix:
    return BitMatrix(ncols, tuple(rng.randrange(1 << ncols) for _ in range(nrows)))


def test_identity_and_entry():
    m = identity(4)
    assert m.nrows == m.ncols == 4
    assert [[m.rows[i] >> j & 1 for j in range(4)] for i in range(4)] == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_vec_mat_selects_rows():
    rows = (0b001, 0b010, 0b100)
    assert vec_mat(0b101, rows) == 0b101
    assert vec_mat(0b011, (3, 5, 9)) == 3 ^ 5
    assert vec_mat(0, rows) == 0


def test_span_table_is_vec_mat_of_every_index():
    rng = random.Random(8)
    for n in range(6):
        rows = tuple(rng.randrange(1 << 7) for _ in range(n))
        table = span_table(rows)
        assert len(table) == 1 << n
        assert table == [vec_mat(x, rows) for x in range(1 << n)]


def test_vec_mat_is_linear():
    rng = random.Random(7)
    rows = tuple(rng.randrange(1 << 6) for _ in range(5))
    for _ in range(50):
        a = rng.randrange(1 << 5)
        b = rng.randrange(1 << 5)
        assert vec_mat(a ^ b, rows) == vec_mat(a, rows) ^ vec_mat(b, rows)


def test_rref_known_case():
    # rows 110, 011, 101 over GF(2): rank 2, pivots at columns 0 and 1
    res = rref_raw([0b011, 0b110, 0b101])
    assert res.pivots == (0, 1)
    assert len(res.rows) == 2
    # pivot columns are cleared in the other row
    for i, r in enumerate(res.rows):
        for j, p in enumerate(res.pivots):
            expected = 1 if i == j else 0
            assert (r >> p) & 1 == expected


def test_rref_idempotent_and_rank():
    rng = random.Random(1)
    for _ in range(200):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 10)
        rows = [rng.randrange(1 << ncols) for _ in range(nrows)]
        res = rref_raw(rows)
        again = rref_raw(res.rows)
        assert again.rows == res.rows
        assert len(res.rows) == len(res.pivots) == rank_raw(rows)
        assert list(res.pivots) == sorted(res.pivots)
        # every original row reduces to zero against the rref rows
        for r in rows:
            x = r
            for br in res.rows:
                if x & (br & -br):
                    x ^= br
            assert x == 0


def test_matmul_identity_and_associativity():
    rng = random.Random(2)
    for _ in range(50):
        a = random_matrix(rng, 4, 5)
        b = random_matrix(rng, 5, 3)
        c = random_matrix(rng, 3, 6)
        assert mat_mul(identity(4), a) == a
        assert mat_mul(a, identity(5)) == a
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        mat_mul(identity(3), identity(4))


def gauss_jordan(rows, ncols):
    """Reference RREF: column by column, pivot rows swapped into place."""
    m = list(rows)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i] >> col & 1), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        for i in range(len(m)):
            if i != r and m[i] >> col & 1:
                m[i] ^= m[r]
        pivots.append(col)
    return tuple(m[: len(pivots)]), tuple(pivots)


@st.composite
def row_lists(draw):
    ncols = draw(st.integers(1, 12))
    return ncols, draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=10))


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_rref_raw_matches_gauss_jordan(case):
    ncols, rows = case
    res = rref_raw(rows)
    assert type(res) is RrefResult
    assert (res.rows, res.pivots) == gauss_jordan(rows, ncols)
    assert rref_raw(res.rows) == res
    assert rref_raw(iter(rows)) == res

