"""End-to-end tests of the command line interface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from qdesigns import catalog, cli, kramer_mesner
from qdesigns.cli import main
from qdesigns.designs import (
    Design,
    LargeSet,
    large_set,
    read_design,
    read_large_set,
    verify_large_set,
    write_design,
    write_large_set,
)
from qdesigns.grassmann import Subspace, enumerate_grassmannian


def lines_ls() -> LargeSet:
    lines = sorted(enumerate_grassmannian(2, 1), key=lambda s: s.rows)
    return LargeSet(
        2, 1, 0, 3, tuple(Design(2, 1, 0, 1, frozenset([s])) for s in lines)
    )


def manifest(directory) -> dict:
    with open(os.path.join(directory, "manifest.json")) as fh:
        return json.load(fh)


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests_of_outputs(directory) -> dict:
    """SHA-256 of every file a run wrote into directory, the manifest aside."""
    return {
        name: sha256_of(directory / name)
        for name in os.listdir(directory)
        if name != "manifest.json"
    }


class TestTableAndPlan:
    def test_table_stdout(self, capsys):
        assert main(["table", "--vmax", "8"]) == 0
        out = capsys.readouterr().out
        assert "v |" in out and "\n  8 |  3  4\n" in out

    def test_table_file_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["table", "--vmax", "40", "--out", str(a)]) == 0
        assert main(["table", "--vmax", "40", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_table_bad_vmax(self, capsys):
        assert main(["table", "--vmax", "5"]) == 4

    def test_plan_stdout(self, capsys):
        assert main(["plan", "--k", "4", "--v", "9"]) == 0
        out = capsys.readouterr().out
        assert "hyperplane_extend" in out and "leaf_table" in out

    def test_plan_unrealizable(self, capsys):
        assert main(["plan", "--k", "3", "--v", "9"]) == 4


class TestVerify:
    def test_design_ok(self, tmp_path, capsys):
        blocks = frozenset(enumerate_grassmannian(3, 2))
        path = tmp_path / "d.txt"
        write_design(path, Design(3, 2, 0, 7, blocks))
        assert main(["verify", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_large_set_ok(self, tmp_path):
        path = tmp_path / "ls.ls"
        write_large_set(path, lines_ls())
        assert main(["verify", str(path)]) == 0

    def test_manifest_with_no_members(self, tmp_path, capsys):
        path = tmp_path / "empty.ls"
        path.write_text("q=2 v=2 k=1 t=0 N=0 lambda=1\n")
        assert main(["verify", str(path)]) == 4
        assert "a large set needs N >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["# a comment\n", "\n", "  # an indented comment\n"],
                             ids=["comment", "blank_line", "indented_comment"])
    def test_manifest_after_lines_the_reader_skips(self, tmp_path, prefix):
        path = tmp_path / "ls.ls"
        write_large_set(path, lines_ls())
        path.write_text(prefix + path.read_text())
        assert main(["verify", str(path)]) == 0

    @pytest.mark.parametrize("at", [0, 3], ids=["first_line", "between_blocks"])
    def test_design_with_a_comment_line(self, tmp_path, at):
        path = tmp_path / "d.txt"
        write_design(path, Design(3, 2, 0, 7, frozenset(enumerate_grassmannian(3, 2))))
        lines = path.read_text().splitlines()
        lines.insert(at, " # a comment")
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 0

    @pytest.mark.parametrize("fields,members,code", [
        pytest.param("N=0 lambda=7", 1, 4, id="N=0-one_member"),
        pytest.param("N=0", 0, 4, id="N=0-no_member"),
        pytest.param("N=2 lambda=7", 2, 4, id="lambda_of_no_large_set"),
        pytest.param("N=1 lambdal=997", 1, 4, id="unknown_key"),
        pytest.param("N=2", 2, 2, id="N_does_not_divide_lambda_max"),  # a real negative, not bad input
    ])
    def test_manifest_header_exit_codes(self, tmp_path, fields, members, code):
        write_design(tmp_path / "m.txt", Design(4, 2, 1, 7, frozenset(enumerate_grassmannian(4, 2))))
        path = tmp_path / "ls.ls"
        path.write_text(f"q=2 v=4 k=2 t=1 {fields}\n" + "m.txt\n" * members)
        assert main(["verify", str(path)]) == code

    def test_manifest_with_wrong_lambda(self, tmp_path, capsys):
        path = tmp_path / "ls.ls"
        write_large_set(path, lines_ls())
        path.write_text(path.read_text().replace("lambda=1", "lambda=997"))
        assert main(["verify", str(path)]) == 4
        assert "lambda=997" in capsys.readouterr().err

    def test_broken_large_set(self, tmp_path, capsys):
        good = lines_ls()
        # two parts repeat a line, so the union misses one: must fail
        bad = LargeSet(
            2, 1, 0, 3, (good.designs[0], good.designs[0], good.designs[2])
        )
        path = tmp_path / "bad.ls"
        write_large_set(path, bad)
        assert main(["verify", str(path)]) == 2
        assert "verification failed" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.txt")]) == 4

    def test_repeated_block_line(self, tmp_path, capsys):
        # 156 block lines for the 155 blocks of a 1-(5,2,15) design
        blocks = frozenset(enumerate_grassmannian(5, 2))
        path = tmp_path / "d.txt"
        write_design(path, Design(5, 2, 1, 15, blocks))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        assert main(["verify", str(path)]) == 4
        assert "block 156" in capsys.readouterr().err

    def test_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("q=2 v=2 k=1 t=0 lambda=1\nnot numbers\n")
        assert main(["verify", str(path)]) == 4
        assert f"{path}: bad block line 'not numbers'" in capsys.readouterr().err


class TestTransform:
    def test_dual_round_trip(self, tmp_path):
        src = tmp_path / "in.ls"
        write_large_set(src, lines_ls())
        dst = tmp_path / "out" / "dual.ls"
        assert main(
            ["transform", "--op", "dual", "--in", str(src), "--out", str(dst)]
        ) == 0
        out = read_large_set(dst)
        assert (out.v, out.k, out.t, out.n) == (2, 1, 0, 3)
        assert main(["verify", str(dst)]) == 0
        record = manifest(dst.parent)
        assert record["subcommand"] == "transform"
        assert record["verdicts"][0]["ok"] is True
        assert str(src) in record["inputs"]

    def test_manifest_records_every_written_file_and_its_digest(self, tmp_path):
        src = tmp_path / "in.ls"
        write_large_set(src, lines_ls())
        out = tmp_path / "out"
        assert main(
            ["transform", "--op", "dual", "--in", str(src), "--out", str(out / "dual.ls")]
        ) == 0
        outputs = manifest(out)["outputs"]
        assert sorted(outputs) == ["dual.ls"] + [f"dual_design{i}.txt" for i in (1, 2, 3)]
        assert outputs == digests_of_outputs(out)

    def test_manifest_digests_every_file_read(self, tmp_path):
        # the .ls file and each member design file read_large_set opens for it
        src = tmp_path / "in.ls"
        write_large_set(src, lines_ls())
        members = sorted(tmp_path.glob("*.txt"))
        assert len(members) == 3
        argv = ["transform", "--op", "dual", "--in", str(src), "--deterministic"]
        assert main(argv + ["--out", str(tmp_path / "a" / "dual.ls")]) == 0
        inputs = manifest(tmp_path / "a")["inputs"]
        assert inputs == {str(path): sha256_of(path) for path in [src] + members}
        with open(members[1], "a") as fh:  # a comment line: the same design, other bytes
            fh.write("# edited\n")
        assert main(argv + ["--out", str(tmp_path / "b" / "dual.ls")]) == 0
        assert manifest(tmp_path / "b")["inputs"] == {**inputs, str(members[1]): sha256_of(members[1])}
        assert sha256_of(members[1]) != inputs[str(members[1])]

    def test_deterministic_manifests_match(self, tmp_path):
        src = tmp_path / "in.ls"
        write_large_set(src, lines_ls())
        for name in ("a", "b"):
            assert main(
                ["transform", "--op", "dual", "--in", str(src),
                 "--out", str(tmp_path / name / "dual.ls"), "--deterministic"]
            ) == 0
        blob_a = (tmp_path / "a" / "manifest.json").read_bytes()
        blob_b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert b"wall_time_s\": null" in blob_a
        assert blob_a.replace(b"/a/", b"/b/") == blob_b

    def test_derived_needs_strength(self, tmp_path):
        src = tmp_path / "in.ls"
        write_large_set(src, lines_ls())
        code = main(
            ["transform", "--op", "derived", "--in", str(src),
             "--out", str(tmp_path / "o.ls")]
        )
        assert code == 4  # t=0 input cannot be derived

    def test_rejected_transform_leaves_no_output_directory(self, tmp_path, capsys):
        src = tmp_path / "in.ls"
        write_large_set(src, lines_ls())
        out = tmp_path / "d" / "o.ls"
        assert main(["transform", "--op", "derived", "--in", str(src), "--out", str(out)]) == 4
        assert "derived transform needs t >= 1" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_missing_input(self, tmp_path):
        code = main(
            ["transform", "--op", "dual", "--in", str(tmp_path / "no.ls"),
             "--out", str(tmp_path / "o.ls")]
        )
        assert code == 4

    def test_derived_of_points_gives_k0_files_that_verify(self, tmp_path):
        # LS(1,1,3) with N = 1: its derived set has one design of one block, {0}
        src = tmp_path / "in.ls"
        write_large_set(src, large_set(3, 1, 1, [enumerate_grassmannian(3, 1)]))
        dst = tmp_path / "out" / "der.ls"
        assert main(
            ["transform", "--op", "derived", "--in", str(src), "--out", str(dst)]
        ) == 0
        assert main(["verify", str(dst)]) == 0
        assert read_large_set(dst).designs[0].blocks == {Subspace(2, ())}

    @pytest.mark.parametrize("taken", ["dual.ls", "manifest.json"])
    def test_refuses_to_replace_outputs_without_force(self, tmp_path, taken, capsys):
        src = tmp_path / "in.ls"
        write_large_set(src, lines_ls())
        out = tmp_path / "out"
        out.mkdir()
        (out / taken).write_text("earlier run\n")
        argv = ["transform", "--op", "dual", "--in", str(src), "--out", str(out / "dual.ls")]
        assert main(argv) == 4
        assert "--force" in capsys.readouterr().err
        assert (out / taken).read_text() == "earlier run\n"
        assert main(argv + ["--force"]) == 0
        assert manifest(out)["subcommand"] == "transform"


class TestKmBuild:
    def test_build_spread_system(self, tmp_path):
        out = tmp_path / "sys.km"
        code = main(
            ["km", "build", "--v", "4", "--t", "1", "--k", "2",
             "--group", "trivial", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "15 35 7"
        assert (tmp_path / "sys.km.treps").exists()
        assert (tmp_path / "sys.km.kreps").exists()
        record = manifest(tmp_path)
        assert record["parameters"]["rows"] == 15
        assert record["parameters"]["cols"] == 35
        assert record["outputs"] == digests_of_outputs(tmp_path)

    def test_deterministic_manifests_match(self, tmp_path):
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            code = main(
                ["km", "build", "--v", "3", "--t", "1", "--k", "2",
                 "--group", "trivial", "--out", str(d / "s.km"),
                 "--deterministic"]
            )
            assert code == 0
        blob_a = (tmp_path / "a" / "manifest.json").read_bytes()
        blob_b = (tmp_path / "b" / "manifest.json").read_bytes()
        # paths inside differ only by the directory we chose; normalize
        assert blob_a.replace(b"/a/", b"/b/") == blob_b

    @pytest.mark.parametrize("taken", ["s.km", "manifest.json"])
    def test_refuses_to_replace_outputs_without_force(self, tmp_path, taken):
        (tmp_path / taken).write_text("earlier run\n")
        argv = ["km", "build", "--v", "3", "--t", "1", "--k", "2",
                "--group", "trivial", "--out", str(tmp_path / "s.km")]
        assert main(argv) == 4
        assert (tmp_path / taken).read_text() == "earlier run\n"
        assert main(argv + ["--force"]) == 0
        assert (tmp_path / "s.km").read_text().startswith("7 7 3\n")
        assert manifest(tmp_path)["subcommand"] == "km build"

    def test_generator_file_group(self, tmp_path):
        # the Singer cycle of GF(2^8): character j of row i is bit j of S e_i
        group = tmp_path / "singer8.txt"
        group.write_text("01000000 00100000 00010000 00001000 00000100 00000010 00000001 10111000\n"
                         .replace(" ", "\n"))
        argv = ["km", "build", "--t", "2", "--k", "3", "--group", str(group), "--deterministic"]
        out = tmp_path / "km3"
        assert main(argv + ["--v", "8", "--out", str(out / "km.txt")]) == 0
        assert digests_of_outputs(out) == {
            "km.txt": "2dfd9c85e51f5a97d3ef71e9d9aa2d15b2833814d98832622095690df0eefba7",
            "km.txt.kreps": "a3ad3734ef670e398737fd1e4718b50326971079bd1d2d1b69a8e651514a5ca9",
            "km.txt.treps": "53056e39578ccc87ffc9c1040eaa71542db253d129d2d0a13eae6cb4a02bf187",
        }
        assert manifest(out)["inputs"] == {str(group): sha256_of(group)}
        assert main(argv + ["--v", "7", "--out", str(tmp_path / "v7" / "km.txt")]) == 4
        argv[argv.index(str(group))] = str(tmp_path / "absent.txt")
        assert main(argv + ["--v", "8", "--out", str(tmp_path / "none" / "km.txt")]) == 4

    def test_builtin_group_needs_dim8(self, tmp_path):
        code = main(
            ["km", "build", "--v", "4", "--t", "1", "--k", "2",
             "--group", "builtin", "--out", str(tmp_path / "s.km")]
        )
        assert code == 4


class TestKmSolve:
    def test_spread_of_pg32(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["km", "solve", "--v", "4", "--t", "1", "--k", "2",
             "--group", "trivial", "--lam", "1", "--out", str(out)]
        )
        assert code == 0
        d = read_design(out / "design.txt")
        assert len(d.blocks) == 5 and d.lam == 1
        assert main(["verify", str(out / "design.txt")]) == 0
        cols = (out / "selection.txt").read_text().split()
        assert len(cols) == 5

    def test_infeasible(self, tmp_path, capsys):
        code = main(
            ["km", "solve", "--v", "3", "--t", "1", "--k", "2",
             "--group", "trivial", "--lam", "1", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        assert "proved" in capsys.readouterr().out
        assert manifest(tmp_path / "r")["parameters"]["status"] == "infeasible"

    def test_budget_unknown(self, tmp_path):
        code = main(
            ["km", "solve", "--v", "4", "--t", "1", "--k", "2",
             "--group", "trivial", "--lam", "1", "--node-budget", "0",
             "--out", str(tmp_path / "r")]
        )
        assert code == 3

    def test_refuses_dirty_out_dir(self, tmp_path):
        out = tmp_path / "r"
        out.mkdir()
        (out / "junk").write_text("x")
        code = main(
            ["km", "solve", "--v", "4", "--t", "1", "--k", "2",
             "--group", "trivial", "--lam", "1", "--out", str(out)]
        )
        assert code == 4

    def test_negative_node_budget(self, tmp_path, capsys):
        code = main(
            ["km", "solve", "--v", "4", "--t", "1", "--k", "2",
             "--group", "trivial", "--lam", "1", "--node-budget", "-1",
             "--out", str(tmp_path / "r")]
        )
        assert code == 4
        assert "node budget -1 is negative" in capsys.readouterr().err


class TestKmLsSearch:
    def test_parallelism_of_pg32(self, tmp_path):
        out = tmp_path / "par"
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--out", str(out)]
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert [f"design{i}.txt" for i in range(1, 8)] == [
            n for n in names if n.startswith("design")
        ]
        ls = read_large_set(out / "large_set.ls")
        assert ls.n == 7 and all(len(d.blocks) == 5 for d in ls.designs)
        record = manifest(out)
        assert record["parameters"]["status"] == "solved"
        assert sorted(record["outputs"]) == [f"design{i}.txt" for i in range(1, 8)] + ["large_set.ls"]
        assert record["outputs"] == digests_of_outputs(out)
        assert record["verdicts"][0]["lam"] == 1

    def test_seeded_round_is_respected(self, tmp_path):
        solved = tmp_path / "one"
        assert main(
            ["km", "solve", "--v", "4", "--t", "1", "--k", "2",
             "--group", "trivial", "--lam", "1", "--out", str(solved)]
        ) == 0
        cols = (solved / "selection.txt").read_text().strip()
        out = tmp_path / "par"
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--seed-columns", cols.replace(" ", ","),
             "--out", str(out)]
        )
        assert code == 0
        seeded = (solved / "design.txt").read_bytes()
        assert (out / "design1.txt").read_bytes() == seeded

    def test_seed_columns_from_a_file(self, tmp_path):
        solved = tmp_path / "one"
        assert main(
            ["km", "solve", "--v", "4", "--t", "1", "--k", "2",
             "--group", "trivial", "--lam", "1", "--out", str(solved)]
        ) == 0
        seed = tmp_path / "seed.txt"
        seed.write_text((solved / "selection.txt").read_text())
        out = tmp_path / "par"
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--seed-columns", str(seed),
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "design1.txt").read_bytes() == (solved / "design.txt").read_bytes()
        assert manifest(out)["inputs"] == {str(seed): sha256_of(seed)}

    def test_found_large_set_is_verified_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_verify(ls):
            calls.append(ls.n)
            return verify_large_set(ls)

        monkeypatch.setattr(cli, "verify_large_set", counting_verify)
        monkeypatch.setattr(kramer_mesner, "verify_large_set", counting_verify)
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--out", str(tmp_path / "par")]
        )
        assert code == 0
        assert calls == [7]
        assert manifest(tmp_path / "par")["verdicts"][0]["lam"] == 1

    def test_budget_gives_unknown(self, tmp_path):
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--node-budget", "0",
             "--out", str(tmp_path / "r")]
        )
        assert code == 3

    @pytest.mark.parametrize("flags, message", [
        (["--N", "0"], "got N=0"),
        (["--N", "-1"], "got N=-1"),
        (["--N", "7", "--node-budget", "-1"], "node budget -1 is negative"),
        (["--N", "7", "--retry-budget", "-1"], "retry budget -1 is negative"),
        # seeds fill the one round, so no search is built to check the budget
        (["--N", "1", "--node-budget", "-1", "--seed-columns", " ".join(map(str, range(35)))],
         "node budget -1 is negative"),
    ])
    def test_bad_n_or_negative_budget(self, tmp_path, capsys, flags, message):
        out = tmp_path / "r"
        code = main(["km", "ls-search", "--v", "4", "--k", "2", "--t", "1", "--group", "trivial",
                     *flags, "--out", str(out)])
        assert code == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_exhausted_search_reports_its_nodes(self, tmp_path):
        code = main(
            ["km", "ls-search", "--v", "5", "--t", "2", "--k", "3",
             "--N", "7", "--group", "trivial", "--out", str(tmp_path / "r")]
        )
        assert code == 2
        params = manifest(tmp_path / "r")["parameters"]
        assert (params["status"], params["nodes"]) == ("exhausted", 55)

    def test_seed_columns_outside_the_system(self, tmp_path):
        # column -1 is rejected, not read as the system's last column
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--seed-columns=-1 0 7 9 14",
             "--out", str(tmp_path / "r")]
        )
        assert code == 4

    def test_rejected_seed_columns_leave_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--seed-columns=-1 0 7 9 14",
             "--out", str(out)]
        )
        assert code == 4
        assert "seed column out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_file(self, tmp_path):
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", "--seed-columns", "zebra",
             "--out", str(tmp_path / "r")]
        )
        assert code == 4

    def test_seed_file_skips_comments_and_blank_lines(self, tmp_path):
        seed = tmp_path / "seed.txt"
        seed.write_text("# seed\n\n0 7 9 14 34\n")
        for name, spec in (("inline", "0 7 9 14 34"), ("file", str(seed))):
            assert main(["km", "ls-search", "--v", "4", "--k", "2", "--t", "1", "--N", "7", "--group", "trivial",
                         "--seed-columns", spec, "--out", str(tmp_path / name)]) == 0
        names = [f"design{i}.txt" for i in range(1, 8)] + ["large_set.ls"]
        for name in names:
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()

    def test_bad_token_in_seed_file_names_the_file_and_line(self, tmp_path, capsys):
        seed = tmp_path / "seed.txt"
        seed.write_text("# seed\n0 x 9\n")
        code = main(["km", "ls-search", "--v", "4", "--k", "2", "--t", "1", "--N", "7", "--group", "trivial",
                     "--seed-columns", str(seed), "--out", str(tmp_path / "r")])
        assert code == 4
        assert f"{seed}: bad seed column line '0 x 9'" in capsys.readouterr().err


class TestDecode:
    def test_single_design_no_verify(self, tmp_path):
        out = tmp_path / "d1"
        code = main(["decode", "--out", str(out), "--design", "1", "--no-verify"])
        assert code == 0
        d = read_design(out / "design1.txt")
        assert (d.v, d.k, d.t) == (8, 4, 2) and len(d.blocks) == 66929
        record = manifest(out)
        assert record["subcommand"] == "decode"
        assert record["outputs"] == digests_of_outputs(out)
        assert any(key.startswith("builtin:") for key in record["inputs"])
        assert record["verdicts"] == []


@pytest.fixture(scope="module")
def decoded(tmp_path_factory):
    """A directory holding the shipped large set as decode writes it."""
    out = tmp_path_factory.mktemp("registry") / "ls"
    assert main(["decode", "--out", str(out), "--no-verify", "--deterministic"]) == 0
    return out


class TestConstruct:
    def test_registry_directory_builds_as_builtin_does(self, tmp_path, decoded):
        argv = ["construct", "--k", "4", "--v", "8", "--deterministic"]
        assert main(argv + ["--builtin", "--out", str(tmp_path / "b")]) == 0
        assert main(argv + ["--registry", str(decoded), "--out", str(tmp_path / "r")]) == 0
        for i in (1, 2, 3):
            name = f"design{i}.txt"
            assert (tmp_path / "r" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        ls = str(decoded / "large_set.ls")
        read = [decoded / "large_set.ls"] + [decoded / f"design{i}.txt" for i in (1, 2, 3)]
        assert manifest(tmp_path / "r")["inputs"] == {str(path): sha256_of(path) for path in read}
        assert main(argv + ["--registry", ls, "--out", str(tmp_path / "f")]) == 4

    def test_registry_reads_only_the_leaves_the_plan_reads(self, tmp_path, decoded):
        # beside the decoded LS_2[3](2,4,8), an LS_2[3](2,3,8) whose member files are missing: the plan of
        # LS_2[3](2,4,8) does not read it, so neither are its files opened nor are they among the inputs
        registry = tmp_path / "registry"
        registry.mkdir()
        header = (decoded / "large_set.ls").read_text().splitlines()[0]
        members = [decoded / f"design{i}.txt" for i in (1, 2, 3)]
        (registry / "a.ls").write_text("\n".join([header, *map(str, members)]) + "\n")
        (registry / "b.ls").write_text("q=2 v=8 k=3 t=2 N=3 lambda=21\nmissing1.txt\nmissing2.txt\nmissing3.txt\n")
        out = tmp_path / "c"
        assert main(["construct", "--k", "4", "--v", "8", "--registry", str(registry), "--out", str(out),
                     "--deterministic"]) == 0
        read = [registry / "a.ls", *members]
        assert manifest(out)["inputs"] == {str(path): sha256_of(path) for path in read}

    def test_builtin_expands_only_the_leaves_the_plan_reads(self, tmp_path, monkeypatch):
        # the plan of LS_2[3](2,4,8) is the one leaf_table node of those parameters
        def unread():
            raise AssertionError("LS_2[3](2,3,8) was expanded for a plan that does not read it")

        monkeypatch.setattr(catalog, "builtin_singer_large_set", unread)
        out = tmp_path / "c"
        assert main(["construct", "--k", "4", "--v", "8", "--builtin", "--out", str(out), "--deterministic"]) == 0
        assert manifest(out)["inputs"] == catalog.builtin_data_digests()

    def test_two_leaves_of_one_parameter_set(self, tmp_path, decoded, capsys):
        # the shipped designs listed as 2, 1, 3 beside the --builtin leaf
        registry = tmp_path / "registry"
        registry.mkdir()
        header = (decoded / "large_set.ls").read_text().splitlines()[0]
        members = [str(decoded / f"design{i}.txt") for i in (2, 1, 3)]
        (registry / "swapped.ls").write_text("\n".join([header] + members) + "\n")
        code = main(["construct", "--k", "4", "--v", "8", "--builtin",
                     "--registry", str(registry), "--out", str(tmp_path / "c")])
        assert code == 4
        assert "two leaves given for LS_2[3](2,4,8)" in capsys.readouterr().err

    def test_missing_leaves_reported(self, tmp_path, capsys):
        code = main(["construct", "--k", "4", "--v", "9", "--out", str(tmp_path / "c")])
        assert code == 4
        err = capsys.readouterr().err
        assert "LS_2[3](2,3,8)" in err and "LS_2[3](2,4,8)" in err
        record = manifest(tmp_path / "c")
        assert record["verdicts"][0]["ok"] is False
        assert (tmp_path / "c" / "plan.txt").exists()

    def test_unrealizable_target(self, tmp_path):
        assert main(["construct", "--k", "3", "--v", "9",
                     "--out", str(tmp_path / "c")]) == 4
        assert not (tmp_path / "c").exists()  # rejected before the run starts

    def test_force_size_is_rejected(self, tmp_path):
        # a larger --size-guard is the one way past the size limit
        code = main(["construct", "--k", "4", "--v", "8", "--builtin", "--force-size",
                     "--out", str(tmp_path / "c")])
        assert code == 4
        assert not (tmp_path / "c").exists()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 4

    def test_missing_subcommand(self):
        assert main(["km"]) == 4

    def test_missing_required_flag(self):
        assert main(["table"]) == 4

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_removed_flags_are_rejected(self, flag, tmp_path):
        # neither flag ever changed a result; --seed must not pass for --seed-columns
        code = main(
            ["km", "ls-search", "--v", "4", "--k", "2", "--t", "1",
             "--N", "7", "--group", "trivial", flag, "3", "--out", str(tmp_path / "r")]
        )
        assert code == 4
        assert not (tmp_path / "r").exists()


class TestEntrypoint:
    @pytest.mark.parametrize("vmax, code", [(8, 0), (5, 4)])
    def test_exit_code_of_the_module(self, vmax, code):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qdesigns.cli", "table", "--vmax", str(vmax)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert ("v |" in proc.stdout) == (code == 0)
