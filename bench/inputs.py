"""Seeded benchmark inputs: changes of basis and the groups they conjugate.

The program receives only what these functions generate.  A seed draws M
in GL(8, 2) and N in GL(7, 2); orbit representatives become rep*M,
the order-204 generators become M^-1 g M, and the Singer cycle of
x^7 + x + 1 becomes N^-1 S N.  Seed 0 is the identity, so the shipped bits
themselves stay covered.  Every generated group is closed and its order
checked before it is used.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from qdesigns import catalog
from qdesigns.gf2 import BitMatrix, identity, mat_mul, rank_raw
from qdesigns.groups import Group, close_group

BASE_GROUP_ORDER = 204
SINGER_DIM = 7
SINGER_ORDER = 127  # 2^7 - 1: x^7 + x + 1 is primitive

# companion matrix of x^7 + x + 1 acting on row vectors: e_i -> e_{i+1},
# e_6 -> x^7 = 1 + x
SINGER = BitMatrix(SINGER_DIM, tuple(1 << (i + 1) for i in range(SINGER_DIM - 1)) + (0b11,))


class InputError(RuntimeError):
    """A generated input failed its own consistency check."""


class BaseInputs(NamedTuple):
    """The shipped large set's data after the change of basis M."""

    group: Group
    reps: tuple[tuple[BitMatrix, ...], ...]  # one tuple per design, rep*M


def random_invertible(n: int, rng: random.Random) -> BitMatrix:
    """Uniform element of GL(n, 2), by rejection of singular draws."""
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        if rank_raw(rows) == n:
            return BitMatrix(n, rows)


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse over GF(2) by Gauss-Jordan on [m | I]; raises if singular."""
    n = m.ncols
    aug = [r | (1 << (n + i)) for i, r in enumerate(m.rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if (aug[i] >> col) & 1), None)
        if piv is None:
            raise InputError("change of basis is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(n):
            if i != col and (aug[i] >> col) & 1:
                aug[i] ^= aug[col]
    out = BitMatrix(n, tuple(r >> n for r in aug))
    if mat_mul(m, out) != identity(n):
        raise InputError("computed inverse does not invert")
    return out


def change_of_basis(n: int, seed: int, stream: int) -> BitMatrix:
    """The seed's matrix in GL(n, 2); seed 0 gives the identity."""
    if seed == 0:
        return identity(n)
    return random_invertible(n, random.Random(f"{seed}:{stream}"))


def conjugate(gens, m: BitMatrix) -> list[BitMatrix]:
    m_inv = inverse(m)
    return [mat_mul(mat_mul(m_inv, g), m) for g in gens]


def closed_group(gens, order: int) -> Group:
    group = close_group(gens)
    if group.order != order:
        raise InputError(f"generated group closed to order {group.order}, not {order}")
    return group


def base_inputs(seed: int) -> BaseInputs:
    """Shipped orbit tables and generators, moved by the seed's M in GL(8, 2).

    Reading the tables and the group goes through the package's checksummed
    loaders, so this also covers the data checksums.
    """
    m = change_of_basis(catalog.AMBIENT_DIM, seed, stream=0)
    group = closed_group(conjugate(catalog.builtin_group().generators, m), BASE_GROUP_ORDER)
    reps = tuple(
        tuple(
            mat_mul(catalog.decode_quadruple(rec), m)
            for rec in catalog.builtin_orbit_representatives(i)
        )
        for i in (1, 2, 3)
    )
    return BaseInputs(group, reps)


def singer_group(seed: int) -> Group:
    """Singer cycle of x^7 + x + 1 conjugated by the seed's N in GL(7, 2)."""
    n = change_of_basis(SINGER_DIM, seed, stream=1)
    return closed_group(conjugate([SINGER], n), SINGER_ORDER)
