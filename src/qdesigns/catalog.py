"""Shipped construction data: the large sets LS_2[3](2,4,8) and LS_2[3](2,3,8).

Each large set is three designs stored as orbit representatives.  The
2-(8, 4, 217) designs use a group of order 204 given by two generator
matrices, and each representative is a quadruple [W, X, Y, Z] of row
values in 1..255; row value sum(c_i * 2^i) encodes the basis row
(c_0, ..., c_7).  The 2-(8, 3, 21) designs use the Singer cycle of
GF(2^8) = GF(2)[x]/(x^8+x^4+x^3+x^2+1), of order 255, and three row
values per representative.  Loading always recomputes SHA-256 digests of
the data files against the shipped checksum file.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from .designs import (
    Design,
    LargeSet,
    VerificationError,
    _frozen,
    large_set,
    verify_design,
)
from .gf2 import BitMatrix, rank_raw
from .grassmann import Subspace, _nogc, span
from .groups import Group, close_group, orbits, parse_generator_text

__all__ = [
    "build_design_from_reps",
    "builtin_data_digests",
    "builtin_group",
    "builtin_large_set",
    "builtin_design",
    "builtin_orbit_representatives",
    "builtin_singer_large_set",
    "decode_quadruple",
    "AMBIENT_DIM",
    "BLOCK_DIM",
    "DESIGN_COUNT",
    "DESIGN_LAMBDA",
    "STRENGTH",
]

AMBIENT_DIM = 8
BLOCK_DIM = 4
STRENGTH = 2
DESIGN_COUNT = 3
DESIGN_LAMBDA = 217


class DecodeError(ValueError):
    pass


def decode_quadruple(q: Sequence[int]) -> BitMatrix:
    """Quadruple of row values -> 4x8 basis matrix; rows must be independent."""
    rows = tuple(q)
    if len(rows) != 4:
        raise DecodeError(f"expected 4 row values, got {len(rows)}")
    for r in rows:
        if not 1 <= r <= 255:
            raise DecodeError(f"row value {r} outside 1..255")
    if rank_raw(rows) != 4:
        raise DecodeError(f"rows {list(rows)} span less than 4 dimensions")
    return BitMatrix(AMBIENT_DIM, rows)


def _data_bytes(name: str) -> bytes:
    return resources.files(__package__).joinpath("data").joinpath(name).read_bytes()


@lru_cache(maxsize=None)
def _recorded_digests() -> dict[str, str]:
    lines = _data_bytes("checksums.sha256").decode("ascii").splitlines()
    return {fname: digest for digest, _, fname in (line.strip().partition("  ") for line in lines)}


@lru_cache(maxsize=None)
def _verified_data_text(name: str) -> str:
    expected = _recorded_digests()
    raw = _data_bytes(name)
    actual = hashlib.sha256(raw).hexdigest()
    if name not in expected:
        raise ValueError(f"data file {name} has no recorded checksum")
    if actual != expected[name]:
        raise ValueError(f"data file {name} fails its checksum: {actual} != {expected[name]}")
    return raw.decode("ascii")


def builtin_data_digests() -> dict[str, str]:
    """SHA-256 of every shipped data file, keyed builtin:<name>, each checked on load."""
    for name in _recorded_digests():
        _verified_data_text(name)
    return {f"builtin:{name}": digest for name, digest in _recorded_digests().items()}


@lru_cache(maxsize=None)
def builtin_group() -> Group:
    """The order-204 symmetry group of the shipped designs."""
    gens = parse_generator_text(_verified_data_text("group_generators.txt"))
    group = close_group(gens)
    if group.order != 204:
        raise VerificationError(f"builtin group closed to order {group.order}, not 204")
    return group


def _representatives(name: str, k: int) -> tuple[tuple[int, ...], ...]:
    """The k row values of each representative in a shipped orbit file, one per line."""
    out = []
    for line in _verified_data_text(name).splitlines():
        if not line.strip():
            continue
        rows = tuple(int(tok) for tok in line.split())
        if len(rows) != k:
            raise ValueError(f"{name}: bad representative line {line!r}")
        out.append(rows)
    return tuple(out)


@lru_cache(maxsize=None)
def builtin_orbit_representatives(index: int) -> tuple[tuple[int, int, int, int], ...]:
    """Quadruples of design 1, 2, or 3."""
    if index not in (1, 2, 3):
        raise ValueError("design index must be 1, 2, or 3")
    return _representatives(f"design{index}_orbit_reps.txt", 4)


@_nogc
def build_design_from_reps(
    reps: Iterable[BitMatrix | Sequence[int]],
    group: Group,
    expected_lambda: int,
    verify: bool = True,
) -> Design:
    """Expand orbit representatives into a full design and check it.

    Every representative is checked first; then groups.orbits expands them
    all, many to one plane-kernel call, and refuses mixed dimensions.
    Distinct representatives must generate distinct orbits: an overlap
    names the first representative whose orbit meets an earlier one.  A
    failed verification is an error too.
    """
    mats = [rep if isinstance(rep, BitMatrix) else decode_quadruple(rep) for rep in reps]
    subspaces = [span(mat.ncols, mat.rows) for mat in mats]
    for mat, s in zip(mats, subspaces):
        if s.dim != mat.nrows:
            raise DecodeError(f"dependent representative rows: {list(mat.rows)}")
    if not subspaces:
        raise ValueError("no representatives given")
    blocks: set[Subspace] = set()
    for mat, orbit in zip(mats, orbits(subspaces, group)):
        before = len(blocks)
        blocks |= orbit
        if len(blocks) != before + len(orbit):
            raise VerificationError(f"orbit of {list(mat.rows)} overlaps previously added orbits")
    design = Design(group.v, subspaces[0].dim, STRENGTH, expected_lambda, _frozen(blocks))
    if verify:
        verify_design(design)
    return design


def builtin_design(index: int) -> Design:
    """One of the three shipped 2-(8, 4, 217) designs, fully expanded and not verified."""
    return build_design_from_reps(builtin_orbit_representatives(index), builtin_group(), DESIGN_LAMBDA, verify=False)


def builtin_large_set() -> LargeSet:
    """The shipped LS_2[3](2,4,8): three disjoint 2-(8, 4, 217) designs, not verified."""
    parts = (builtin_design(i).blocks for i in (1, 2, 3))
    return large_set(AMBIENT_DIM, BLOCK_DIM, STRENGTH, parts)


def builtin_singer_large_set() -> LargeSet:
    """The shipped LS_2[3](2,3,8): three disjoint 2-(8, 3, 21) designs, not verified."""
    group = close_group(parse_generator_text(_verified_data_text("singer_generators.txt")))
    designs = []
    for i in (1, 2, 3):
        reps = [BitMatrix(AMBIENT_DIM, rows) for rows in _representatives(f"k3_design{i}_orbit_reps.txt", 3)]
        designs.append(build_design_from_reps(reps, group, 21, verify=False))
    return large_set(AMBIENT_DIM, 3, STRENGTH, (d.blocks for d in designs))
