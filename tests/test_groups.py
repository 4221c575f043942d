from __future__ import annotations

import random
from importlib import resources

import pytest

from qdesigns import designs, groups
from qdesigns.catalog import builtin_group
from qdesigns.gf2 import BitMatrix, identity, mat_mul, rank_raw, rref_raw, span_table
from qdesigns.grassmann import (
    Subspace,
    enumerate_grassmannian,
    gaussian_binomial,
    grassmannian_rank,
    span,
)
from qdesigns.groups import (
    act,
    close_group,
    orbit_partition,
    parse_generator_text,
    read_generator_file,
)

from oracles import orbit_of

# small cyclic test group: companion-style shift on GF(2)^3 of order 7
SHIFT3 = BitMatrix(3, (0b010, 0b100, 0b011))
# Singer cycle of x^7 + x + 1: e_i -> e_{i+1}, e_6 -> 1 + x
SINGER7 = BitMatrix(7, tuple(1 << (i + 1) for i in range(6)) + (0b11,))


def generator_bfs_orbit(s, group):
    """Oracle for orbit_of: closure of {s} under act by the generators."""
    seen = {s}
    stack = [s]
    while stack:
        cur = stack.pop()
        for g in group.generators:
            img = act(cur, g)
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return seen


def bfs_orbit_partition(v, k, group):
    """Oracle for orbit_partition: a generator BFS from each unseen subspace.

    Returns (representatives, sizes, orbit number by basis rows, members).
    """
    tables = [span_table(g.rows) for g in group.generators]
    index = {}
    representatives, sizes, members = [], [], []
    for s in enumerate_grassmannian(v, k):
        if s.rows in index:
            continue
        oid = len(representatives)
        index[s.rows] = oid
        orbit_keys = [s.rows]
        stack = [s.rows]
        while stack:
            cur = stack.pop()
            for tab in tables:
                img = rref_raw(tab[r] for r in cur).rows
                if img not in index:
                    index[img] = oid
                    orbit_keys.append(img)
                    stack.append(img)
        representatives.append(Subspace(v, min(orbit_keys)))
        sizes.append(len(orbit_keys))
        members.append(orbit_keys)
    return representatives, sizes, index, members


def conjugated_builtin_group(seed):
    """M^-1 g M for the order-204 generators g and a seeded invertible M."""
    rng = random.Random(seed)
    while True:
        m = BitMatrix(8, tuple(rng.randrange(1, 256) for _ in range(8)))
        if rank_raw(m.rows) == 8:
            break
    m_inv = close_group([m]).elements[-1]  # m^(n-1) for m of order n
    return close_group([mat_mul(mat_mul(m_inv, g), m) for g in builtin_group().generators])


def assert_partition_matches_bfs(part, group):
    v, k = part.v, part.k
    representatives, sizes, index, members = bfs_orbit_partition(v, k, group)
    assert part.representatives == representatives
    assert part.sizes == sizes
    for i, keys in enumerate(members):
        want = sorted(keys, key=lambda rows: grassmannian_rank(v, k, rows))
        assert [m.rows for m in part.members(i)] == want
    for s in enumerate_grassmannian(v, k):
        assert part.orbit_index(s) == index[s.rows]


@pytest.mark.parametrize("seed", [1, 2])
def test_orbit_partition_matches_bfs_on_conjugates_of_builtin(seed):
    group = conjugated_builtin_group(seed)
    assert group.order == 204
    assert_partition_matches_bfs(orbit_partition(8, 3, group), group)


def test_orbit_partition_matches_bfs_on_singer_cycle():
    group = close_group([SINGER7])
    for k in range(8):
        assert_partition_matches_bfs(orbit_partition(7, k, group), group)


def test_orbit_partition_without_tables_matches_bfs(monkeypatch):
    monkeypatch.setattr(groups, "_ELEMENT_TABLES_MAX", 0)
    group = close_group([SINGER7])
    assert group.element_image_tables is None
    for k in (1, 3):
        assert_partition_matches_bfs(orbit_partition(7, k, group), group)


@pytest.mark.parametrize("case", ["trivial", "no tables"])
def test_orbit_partition_in_small_batches_matches_bfs(monkeypatch, case):
    # a few starts per kernel call, so the last call takes fewer than the others
    if case == "trivial":
        # every start opens an orbit, so rounds take 1, 2, 4, then 5 starts: 155 = 1 + 2 + 4 + 29 * 5 + 3
        v, k, group, per_batch = 5, 2, groups.trivial_group(5), 5
    else:
        # the cyclic shift of the 6 coordinates: orbits of 1, 2, 3 and 6 subspaces
        monkeypatch.setattr(groups, "_ELEMENT_TABLES_MAX", 0)
        v, k, group, per_batch = 6, 3, close_group([BitMatrix(6, (2, 4, 8, 16, 32, 1))]), 4
        assert group.element_image_tables is None
    monkeypatch.setattr(designs, "_COUNT_BATCH", (per_batch * group.order) << k)
    calls = []
    images = groups._images
    monkeypatch.setattr(groups, "_images", lambda reps, g: calls.append(len(reps)) or images(reps, g))
    assert_partition_matches_bfs(orbit_partition(v, k, group), group)
    assert max(calls) == per_batch > calls[-1]
    assert calls[0] == 1


@pytest.mark.parametrize("name,orbit_count", [("builtin204", 69), ("singer8", 43)])
def test_orbit_partition_expands_few_starts_at_small_k(monkeypatch, name, orbit_count):
    # the lowest unclaimed ranks mostly share an orbit at k = 2: with full-size rounds from the start, G204
    # expanded 240 starts for its 69 orbits, and the Singer cycle of GF(2^8) 128 for 43
    group = builtin_group() if name == "builtin204" else close_group([BitMatrix(8, (2, 4, 8, 16, 32, 64, 128, 29))])
    calls = []
    images = groups._images
    monkeypatch.setattr(groups, "_images", lambda reps, g: calls.append(len(reps)) or images(reps, g))
    part = orbit_partition(8, 2, group)
    assert part.n_orbits == orbit_count
    assert calls[0] == 1
    assert sum(calls) <= 2 * orbit_count


def test_orbit_index_rejects_subspaces_outside_the_partition():
    part = orbit_partition(4, 2, close_group([BitMatrix(4, (0b0010, 0b0100, 0b1000, 0b0011))]))
    for s in (
        span(4, [0b0001]),  # wrong dimension
        span(5, [0b0001, 0b0010]),  # wrong ambient dimension
        Subspace(4, (0b0011, 0b0010)),  # not reduced
        Subspace(4, (0b0010, 0b0001)),  # rows swapped
    ):
        with pytest.raises(KeyError):
            part.orbit_index(s)


def test_close_group_cyclic():
    g = close_group([SHIFT3])
    assert g.order == 7
    assert g.elements[0] == identity(3)


def test_close_group_rejects_singular():
    with pytest.raises(ValueError):
        close_group([BitMatrix(2, (0b01, 0b01))])


def test_closure_contains_all_products():
    g = close_group([SHIFT3])
    elems = set(m.rows for m in g.elements)
    for a in g.elements:
        for b in g.elements:
            assert mat_mul(a, b).rows in elems


def test_act_preserves_dimension_and_composition():
    rng = random.Random(21)
    g = close_group([SHIFT3])
    for _ in range(50):
        s = span(3, [rng.randrange(8) for _ in range(2)])
        for a in g.elements:
            img = act(s, a)
            assert img.dim == s.dim
        a, b = rng.choice(g.elements), rng.choice(g.elements)
        assert act(act(s, a), b) == act(s, mat_mul(a, b))


def test_act_identity():
    s = span(3, [0b011])
    assert act(s, identity(3)) == s


def test_orbit_of_line_under_shift():
    g = close_group([SHIFT3])
    orbit = orbit_of(span(3, [1]), g)
    # the order-7 cycle is transitive on the 7 nonzero vectors
    assert len(orbit) == 7


@pytest.mark.parametrize("name", ["builtin204", "singer127"])
def test_orbit_of_matches_generator_bfs(name):
    group = builtin_group() if name == "builtin204" else close_group([SINGER7])
    assert group.order == (204 if name == "builtin204" else 127)
    rng = random.Random(name)
    for _ in range(25):
        k = rng.randrange(group.v + 1)
        s = span(group.v, [rng.randrange(1 << group.v) for _ in range(k)])
        orbit = orbit_of(s, group)
        assert orbit == generator_bfs_orbit(s, group)
        assert group.order % len(orbit) == 0


def test_orbit_of_without_tables_matches_generator_bfs(monkeypatch):
    # a fresh group, as the tables are cached on the instance
    monkeypatch.setattr(groups, "_ELEMENT_TABLES_MAX", 0)
    group = close_group([SINGER7])
    assert group.element_image_tables is None
    rng = random.Random(7)
    for k in range(8):
        s = span(7, [rng.randrange(128) for _ in range(k)])
        assert orbit_of(s, group) == generator_bfs_orbit(s, group)


def test_element_image_tables_are_lazy():
    group = close_group([SHIFT3])
    assert "element_image_tables" not in vars(group)
    orbit_of(span(3, [1]), group)
    tables = vars(group)["element_image_tables"]
    assert len(tables) == group.order
    orbit_of(span(3, [2]), group)
    assert group.element_image_tables is tables


def test_orbit_of_dimension_mismatch():
    with pytest.raises(ValueError):
        orbit_of(span(4, [1]), close_group([SHIFT3]))


def test_orbit_partition_small():
    g = close_group([SHIFT3])
    part = orbit_partition(3, 1, g)
    assert part.sizes == [7]
    part2 = orbit_partition(3, 2, g)
    assert sorted(part2.sizes) == [7]
    assert sum(part2.sizes) == gaussian_binomial(3, 2)


def test_orbit_partition_indexing_consistency():
    g = close_group([SHIFT3])
    part = orbit_partition(3, 2, g)
    for i in range(part.n_orbits):
        for member in part.members(i):
            assert part.orbit_index(member) == i
    # representative is the lexicographically smallest member
    for i, rep in enumerate(part.representatives):
        assert rep.rows == min(m.rows for m in part.members(i))


def test_orbit_partition_orbit_sizes_divide_group_order():
    g = builtin_group()
    part = orbit_partition(8, 2, g)
    assert sum(part.sizes) == gaussian_binomial(8, 2)
    assert all(g.order % s == 0 for s in part.sizes)


def test_generator_file_roundtrip(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_bytes((resources.files("qdesigns") / "data" / "group_generators.txt").read_bytes())
    assert tuple(read_generator_file(path)) == builtin_group().generators


@pytest.mark.parametrize("text", ["10\n01\n \n01\n10", "10\r\n01\r\n\r\n01\r\n10\r\n"])
def test_parse_generator_text_splits_on_whitespace_only_lines(text):
    # a separator line of spaces, or CRLF endings, still separates two blocks
    assert parse_generator_text(text) == [BitMatrix(2, (1, 2)), BitMatrix(2, (2, 1))]


def test_parse_generator_text_errors():
    with pytest.raises(ValueError):
        parse_generator_text("01\n10\n\n012\n101\n")  # bad digit
    with pytest.raises(ValueError):
        parse_generator_text("01\n10\n11\n")  # not square
    with pytest.raises(ValueError):
        parse_generator_text("   ")
