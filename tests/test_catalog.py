from __future__ import annotations

import gc
import hashlib
import re
from importlib import resources

import pytest

from qdesigns import designs, groups
from qdesigns.catalog import (
    AMBIENT_DIM,
    BLOCK_DIM,
    DESIGN_COUNT,
    DESIGN_LAMBDA,
    build_design_from_reps,
    builtin_data_digests,
    builtin_design,
    builtin_group,
    builtin_orbit_representatives,
    builtin_singer_large_set,
    decode_quadruple,
)
from qdesigns.catalog import DecodeError
from qdesigns.designs import VerificationError, read_design, verify_design, verify_large_set, write_design
from qdesigns.gf2 import BitMatrix
from qdesigns.grassmann import span
from qdesigns.groups import act, close_group

EXPECTED_REP_COUNTS = {1: 346, 2: 357, 3: 358}

# SHA-256 of each shipped design as write_design writes it (qdesigns decode)
WRITTEN_DESIGN_SHA256 = {
    1: "723b812de1ab6a0f23bb26e08c07d346fca135fd951153ac84c768c93fed61d6",
    2: "a44ba615bca9fcca71b60b288be45dfbcc86423bfa578f407da7fe1e4f24a7c1",
    3: "d9b054834f7fc4c9c9fc990c8a02cfadc2b522ce385d87c889a3f7cb20f01f6c",
}


def test_builtin_data_digests_are_the_files_digests():
    digests = builtin_data_digests()
    names = ["group_generators.txt", "singer_generators.txt"] + [
        f"{prefix}design{i}_orbit_reps.txt" for prefix in ("", "k3_") for i in (1, 2, 3)]
    assert sorted(digests) == sorted(f"builtin:{name}" for name in names)
    root = resources.files("qdesigns").joinpath("data")
    for name in names:
        raw = root.joinpath(name).read_bytes()
        assert digests[f"builtin:{name}"] == hashlib.sha256(raw).hexdigest()


def test_decode_quadruple_valid():
    m = decode_quadruple((1, 34, 40, 192))
    assert isinstance(m, BitMatrix)
    assert m.ncols == 8
    assert m.rows == (1, 34, 40, 192)


def test_decode_quadruple_range_errors():
    with pytest.raises(DecodeError):
        decode_quadruple((0, 1, 2, 4))
    with pytest.raises(DecodeError):
        decode_quadruple((256, 1, 2, 4))
    with pytest.raises(DecodeError):
        decode_quadruple((1, 2, 4))


def test_decode_quadruple_rejects_dependent_rows():
    with pytest.raises(DecodeError):
        decode_quadruple((1, 2, 3, 8))  # 3 = 1 ^ 2
    with pytest.raises(DecodeError):
        decode_quadruple((5, 5, 2, 8))


def test_builtin_group_structure():
    g = builtin_group()
    assert g.v == AMBIENT_DIM
    assert g.order == 204
    assert [close_group([x]).order for x in g.generators] == [51, 4]


def test_rep_counts_and_endpoints():
    for idx, count in EXPECTED_REP_COUNTS.items():
        reps = builtin_orbit_representatives(idx)
        assert len(reps) == count
        assert len(set(reps)) == count
    assert builtin_orbit_representatives(1)[0] == (1, 34, 40, 192)
    assert builtin_orbit_representatives(1)[-1] == (241, 242, 180, 56)
    assert builtin_orbit_representatives(2)[0] == (1, 2, 80, 32)
    assert builtin_orbit_representatives(3)[-1] == (241, 210, 20, 104)


def test_reps_unique_across_designs():
    seen = set()
    for idx in (1, 2, 3):
        seen |= set(builtin_orbit_representatives(idx))
    assert len(seen) == sum(EXPECTED_REP_COUNTS.values()) == 1061


def test_rep_index_validation():
    with pytest.raises(ValueError):
        builtin_orbit_representatives(0)
    with pytest.raises(ValueError):
        builtin_orbit_representatives(4)


def test_all_reps_decode_to_rank_4():
    for idx in (1, 2, 3):
        for rec in builtin_orbit_representatives(idx):
            decode_quadruple(rec)  # raises on rank < 4


def test_build_design_from_reps_detects_orbit_overlap():
    g = builtin_group()
    rep = builtin_orbit_representatives(1)[0]
    with pytest.raises(VerificationError):
        build_design_from_reps([rep, rep], g, DESIGN_LAMBDA, verify=False)


@pytest.mark.parametrize("per_batch", [2, 4])
def test_overlap_error_names_the_first_overlapping_representative(monkeypatch, per_batch):
    # the last representative is another basis of the second one's orbit: with 2 representatives per kernel
    # call the two orbits are expanded in different calls, with 4 in the same one
    g = builtin_group()
    monkeypatch.setattr(designs, "_COUNT_BATCH", per_batch * g.order)
    reps = list(builtin_orbit_representatives(1)[:3])
    image = act(span(AMBIENT_DIM, reps[1]), g.elements[1]).rows
    assert image != tuple(reps[1])
    calls = []
    images = groups._images
    monkeypatch.setattr(groups, "_images", lambda batch, group: calls.append(len(batch)) or images(batch, group))
    with pytest.raises(VerificationError, match=re.escape(f"orbit of {list(image)} overlaps")):
        build_design_from_reps(reps + [image], g, DESIGN_LAMBDA, verify=False)
    assert calls == ([2, 2] if per_batch == 2 else [4])


def test_build_design_from_reps_rejects_mixed_dimensions():
    reps = [builtin_orbit_representatives(1)[0], BitMatrix(AMBIENT_DIM, (1, 2, 4))]
    with pytest.raises(ValueError, match="dimension"):
        build_design_from_reps(reps, builtin_group(), DESIGN_LAMBDA, verify=False)


def test_build_design_from_reps_small_orbit_union():
    # two reps from design 1: blocks = union of their orbits, no verification
    g = builtin_group()
    reps = builtin_orbit_representatives(1)[:2]
    d = build_design_from_reps(reps, g, DESIGN_LAMBDA, verify=False)
    assert d.k == BLOCK_DIM
    assert len(d.blocks) <= 2 * g.order
    assert len(d.blocks) % 1 == 0
    assert all(b.dim == 4 for b in d.blocks)


def test_no_collection_inside_bulk_block_calls(tmp_path):
    # each call makes or counts the 66,929 blocks of shipped design 1; a
    # collection inside one would walk every live block
    collections = []

    def watch(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    def collections_during(call, *args, **kwargs):
        collections.clear()
        gc.callbacks.append(watch)
        try:
            out = call(*args, **kwargs)
        finally:
            gc.callbacks.remove(watch)
        assert collections == [], call.__name__
        return out

    was_on = gc.isenabled()
    gc.enable()
    try:
        d = collections_during(build_design_from_reps, builtin_orbit_representatives(1),
                               builtin_group(), DESIGN_LAMBDA, verify=False)
        assert gc.isenabled()
        write_design(tmp_path / "d1.txt", d)
        back = collections_during(read_design, tmp_path / "d1.txt")
        assert back == d and gc.isenabled()
        assert collections_during(verify_design, back) == DESIGN_LAMBDA
        assert gc.isenabled()
    finally:
        if not was_on:
            gc.disable()


def test_constants():
    assert (AMBIENT_DIM, BLOCK_DIM, DESIGN_COUNT, DESIGN_LAMBDA) == (8, 4, 3, 217)


@pytest.mark.parametrize("index", (1, 2, 3))
def test_written_design_bytes_are_pinned(index, tmp_path):
    path = tmp_path / f"design{index}.txt"
    write_design(path, builtin_design(index))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITTEN_DESIGN_SHA256[index]


def test_singer_leaf_builds_and_verifies():
    # LS_2[3](2,3,8) from 3 x 127 orbits of the Singer cycle of GF(2^8)
    ls = builtin_singer_large_set()
    assert (ls.v, ls.k, ls.t, ls.n) == (8, 3, 2, 3)
    report = verify_large_set(ls)
    assert report.lam == 21 and report.blocks_per_design == (32385,) * 3
    for i in (1, 2, 3):
        reps = resources.files("qdesigns").joinpath("data", f"k3_design{i}_orbit_reps.txt").read_text()
        assert len(reps.splitlines()) == 127
