"""Readers on mutated texts: every edit of a valid file reads back as a valid object or raises ValueError.

Each mutant is a valid text with one to four characters inserted, deleted
or replaced.  A design must read back with 0 <= t <= k <= v, lambda >= 0
and every block a basis of k rows in 1..2^v-1; a large set also needs
N >= 1.  A plan node checks its own shape and must survive a round trip;
a generator must be a square matrix over GF(2)^v.
"""

from importlib.resources import files

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qdesigns.designs import Design, large_set, read_design, read_large_set, write_large_set
from qdesigns.grassmann import enumerate_grassmannian
from qdesigns.groups import read_generator_file
from qdesigns.planner import parse_plan, plan_series, serialize_plan

# tmp_path is shared by a test's examples; each example rewrites its files
_SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
_ALPHABET = "0123456789 =-:,#\n\tqvktNlambdasx"

DESIGN_TEXT = "q=2 v=3 k=2 t=1 lambda=3\n" + "".join(f"{a} {b}\n" for _, a, b in sorted(enumerate_grassmannian(3, 2)))
MANIFEST_HEADER = "q=2 v=4 k=2 t=0 N=5 lambda=7"
PLAN_TEXT = serialize_plan(plan_series(3, 14))
GENERATOR_TEXT = files("qdesigns").joinpath("data", "group_generators.txt").read_text(encoding="ascii")


@st.composite
def mutants(draw, text: str, alphabet: str = _ALPHABET) -> str:
    """text with one to four characters inserted, deleted or replaced, none of them a newline unless alphabet has one."""
    chars = st.one_of(st.sampled_from(alphabet), st.characters(exclude_characters="" if "\n" in alphabet else "\n"))
    out = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            out.insert(at, draw(chars))
        elif at < len(out):
            if op == "delete":
                del out[at]
            else:
                out[at] = draw(chars)
    return "".join(out)


def check_design(d: Design) -> None:
    assert 0 <= d.t <= d.k <= d.v and d.lam >= 0
    for block in d.blocks:
        assert block.v == d.v and len(block) == d.k + 1
        assert all(1 <= r < 1 << d.v for r in block.rows)


def read_manifest(directory, header: str):
    """read_large_set of header over the members of a five-part LS_2[5](0,2,4) written in directory."""
    manifest = directory / "ls.txt"
    if not manifest.exists():
        grass = list(enumerate_grassmannian(4, 2))
        write_large_set(manifest, large_set(4, 2, 0, [grass[i::5] for i in range(5)]))
    mutated = directory / "mutant.txt"
    members = manifest.read_text().partition("\n")[2]
    mutated.write_text(f"{header}\n{members}", encoding="utf-8")
    return read_large_set(mutated)


def read_design_text(directory, text: str) -> Design:
    path = directory / "d.txt"
    path.write_text(text, encoding="utf-8")
    return read_design(path)


def read_generator_text(directory, text: str):
    path = directory / "gens.txt"
    path.write_text(text, encoding="utf-8")
    return read_generator_file(path)


def test_the_unmutated_texts_read_back(tmp_path):
    check_design(read_design_text(tmp_path, DESIGN_TEXT))
    assert read_manifest(tmp_path, MANIFEST_HEADER).n == 5
    assert parse_plan(PLAN_TEXT).kind == "decompose"
    assert len(read_generator_text(tmp_path, GENERATOR_TEXT)) == 2


@_SETTINGS
@given(mutants(DESIGN_TEXT))
@example(DESIGN_TEXT.replace("t=1", "t=05"))
@example(DESIGN_TEXT.replace("k=2", "k=5"))
def test_mutated_design_file(tmp_path, text):
    try:
        d = read_design_text(tmp_path, text)
    except ValueError:
        return
    check_design(d)


@_SETTINGS
@given(mutants(MANIFEST_HEADER, _ALPHABET.replace("\n", "")))  # a mutated member path is just a missing file
@example(MANIFEST_HEADER.replace("N=5", "N=0"))
def test_mutated_manifest_header(tmp_path, header):
    try:
        ls = read_manifest(tmp_path, header)
    except ValueError:
        return
    assert ls.n >= 1 and len(ls.designs) == ls.n
    for d in ls.designs:
        assert (d.v, d.k, d.t) == (ls.v, ls.k, ls.t)
        check_design(d)


@_SETTINGS
@given(mutants(PLAN_TEXT))
def test_mutated_plan(text):
    try:
        node = parse_plan(text)
    except ValueError:
        return
    assert parse_plan(serialize_plan(node)) == node


@_SETTINGS
@given(mutants(GENERATOR_TEXT))
def test_mutated_generator_file(tmp_path, text):
    try:
        gens = read_generator_text(tmp_path, text)
    except ValueError:
        return
    for g in gens:
        assert g.ncols == len(g.rows) and all(0 <= r < 1 << g.ncols for r in g.rows)
