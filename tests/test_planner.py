"""Admissibility arithmetic, series membership, and plan emission."""

import hashlib

import pytest

from qdesigns.designs import TRANSFORMS, large_set, verify_large_set
from qdesigns.grassmann import enumerate_grassmannian, gaussian_binomial
from qdesigns.joins import extend_by_hyperplane
from qdesigns.planner import (
    LSParams,
    PlanNode,
    _child_shapes,
    admissible,
    check_remark_genericity,
    generate_table,
    parse_plan,
    plan_series,
    read_plan_file,
    realizable_by_series,
    render_table,
    serialize_plan,
    write_plan_file,
)

# published admissibility/realizability grid for LS_2[3](2,k,v), rows
# v = 6..40, cells k = 3..v//2 left to right
GRID_ROWS = {
    6: "-",
    7: "-",
    8: "3 4",
    9: "- 4",
    10: "- - 5",
    11: "- - -",
    12: "- - - -",
    13: "- - - -",
    14: "3 4 5 - -",
    15: "- 4 5 - -",
    16: "- - 5 - - -",
    17: "- - - - - -",
    18: "- - - - - - -",
    19: "- - - - - - -",
    20: "3 4 5 ? ? ? 9 10",
    21: "- 4 5 ? ? ? ? 10",
    22: "- - 5 ? ? ? ? ? 11",
    23: "- - - ? ? ? ? ? ?",
    24: "- - - - ? ? ? ? ? ?",
    25: "- - - - - ? ? ? ? ?",
    26: "3 4 5 - - - 9 10 11 ? ?",
    27: "- 4 5 - - - - 10 11 ? ?",
    28: "- - 5 - - - - - 11 ? ? ?",
    29: "- - - - - - - - - ? ? ?",
    30: "- - - - - - - - - - ? ? ?",
    31: "- - - - - - - - - - - ? ?",
    32: "3 4 5 - - - 9 10 11 - - - 15 16",
    33: "- 4 5 - - - - 10 11 - - - - 16",
    34: "- - 5 - - - - - 11 - - - - - 17",
    35: "- - - - - - - - - - - - - - -",
    36: "- - - - - - - - - - - - - - - -",
    37: "- - - - - - - - - - - - - - - -",
    38: "3 4 5 ? ? ? 9 10 11 ? ? ? 15 16 17 - -",
    39: "- 4 5 ? ? ? ? 10 11 ? ? ? ? 16 17 - -",
    40: "- - 5 ? ? ? ? ? 11 ? ? ? ? ? 17 - - -",
}


def clause_form(k: int, v: int) -> bool:
    """The three residue clauses of the series existence statement."""
    if v < 8 or not 0 <= k <= v:
        return False
    vb, kb = v % 6, k % 6
    return (
        (vb == 2 and kb in (3, 4, 5))
        or (vb == 3 and kb in (4, 5))
        or (vb == 4 and kb == 5)
    )


def test_admissible_known_cases():
    assert admissible(LSParams(2, 3, 2, 6, 20))
    assert not admissible(LSParams(2, 3, 2, 3, 7))  # [5 choose 1] = 31
    assert admissible(LSParams(2, 3, -1, 3, 7))
    assert admissible(LSParams(2, 3, 2, 4, 8))
    assert admissible(LSParams(2, 3, 2, 3, 8))


def test_admissible_matches_direct_division():
    for v in range(2, 12):
        for k in range(v + 1):
            for t in range(min(k, 3) + 1):
                expect = all(
                    gaussian_binomial(v - i, k - i) % 3 == 0 for i in range(t + 1)
                )
                assert admissible(LSParams(2, 3, t, k, v)) == expect


def test_params_validation():
    with pytest.raises(ValueError):
        LSParams(1, 3, 2, 4, 8)
    with pytest.raises(ValueError):
        LSParams(2, 0, 2, 4, 8)
    with pytest.raises(ValueError):
        LSParams(2, 3, -2, 4, 8)
    with pytest.raises(ValueError):
        LSParams(2, 3, 2, 9, 8)
    with pytest.raises(ValueError):
        LSParams(2, 3, 3, 2, 8)


def test_realizable_examples():
    assert realizable_by_series(4, 8)
    assert realizable_by_series(3, 14)
    assert not realizable_by_series(6, 20)
    assert realizable_by_series(9, 14)  # via duality
    with pytest.raises(ValueError):
        realizable_by_series(5, 4)


def test_realizable_equals_clause_form_up_to_200():
    for v in range(201):
        for k in range(v + 1):
            direct = v >= 8 and 2 <= v % 6 < k % 6 <= 5
            assert realizable_by_series(k, v) == clause_form(k, v) == direct


def test_realizable_implies_admissible_up_to_100():
    for v in range(8, 101):
        for k in range(3, v - 2):
            if realizable_by_series(k, v):
                assert admissible(LSParams(2, 3, 2, k, v))


def test_generate_table_matches_published_grid():
    grid = generate_table(40)
    expected = {}
    for v, row in GRID_ROWS.items():
        cells = row.split()
        assert len(cells) == v // 2 - 2
        for k, cell in enumerate(cells, start=3):
            expected[(v, k)] = cell
    assert grid == expected


def test_generate_table_spec_rows():
    grid = generate_table(40)
    assert grid[(8, 3)] == "3" and grid[(8, 4)] == "4"
    assert grid[(20, 6)] == "?"
    assert all(grid[(12, k)] == "-" for k in range(3, 7))


def test_render_table_layout():
    text = render_table(generate_table(14))
    lines = text.splitlines()
    assert lines[0].startswith("  v |")
    row14 = next(line for line in lines if line.startswith(" 14 |"))
    assert row14.split("|")[1].split() == ["3", "4", "5", "-", "-"]


def test_plan_series_base_leaf():
    node = plan_series(4, 8)
    assert node.kind == "leaf_table"
    assert node.params == LSParams(2, 3, 2, 4, 8)
    assert node.children == ()


def test_plan_series_hyperplane_step():
    node = plan_series(4, 9)
    assert node.kind == "hyperplane_extend"
    kinds = [c.kind for c in node.children]
    assert kinds == ["leaf_table", "leaf_table"]
    assert node.children[0].params == LSParams(2, 3, 2, 3, 8)
    assert node.children[1].params == LSParams(2, 3, 2, 4, 8)


def test_plan_series_dual_steps():
    assert plan_series(5, 8).kind == "dual"
    assert plan_series(5, 8).children[0].params.k == 3
    node = plan_series(9, 14)
    assert node.kind == "dual"
    assert node.children[0].params == LSParams(2, 3, 2, 5, 14)


def test_plan_series_decompose_shape():
    node = plan_series(3, 14)
    assert node.kind == "decompose"
    assert node.s == 5
    assert node.cell_strengths == ((-1, 2), (0, 1), (1, 0), (2, -1))
    assert len(node.children) == 8
    # cell 0: trivial factor at dim 5, table-backed factor at (3,8)
    assert node.children[0].kind == "leaf_trivial"
    assert node.children[1].params == LSParams(2, 3, 2, 3, 8)
    # cell 3: full-strength factor at (3,8), trivial second factor
    assert node.children[6].params == LSParams(2, 3, 2, 3, 8)
    assert node.children[7].kind == "leaf_trivial"


def collect(node, out):
    out.append(node)
    for c in node.children:
        collect(c, out)
    return out


def test_plan_series_trees_ground_out_in_v8_leaves():
    for k, v in ((3, 14), (5, 16), (4, 21), (9, 20)):
        nodes = collect(plan_series(k, v), [])
        for n in nodes:
            if n.kind == "leaf_table":
                assert (n.params.k, n.params.v) in ((3, 8), (4, 8))
            if n.kind == "decompose":
                for t1, t2 in n.cell_strengths:
                    assert t1 + t2 + 1 == 2


def test_plan_series_rejects_uncovered_parameters():
    with pytest.raises(ValueError):
        plan_series(6, 20)
    with pytest.raises(ValueError):
        plan_series(3, 7)


def test_genericity_check():
    leaves = check_remark_genericity(3, 7)
    assert [(p.k, p.v) for p in leaves] == [(3, 8), (4, 8)]
    concrete = check_remark_genericity(2, 3)
    assert concrete == (LSParams(2, 3, 2, 3, 8), LSParams(2, 3, 2, 4, 8))
    with pytest.raises(ValueError) as err:
        check_remark_genericity(2, 5)
    assert "651" in str(err.value) and "2667" in str(err.value)


def test_plan_node_validation():
    with pytest.raises(ValueError):
        PlanNode("mystery", LSParams(2, 3, 2, 4, 8))
    with pytest.raises(ValueError):
        PlanNode("derived", LSParams(2, 3, 1, 3, 7))
    leaf = plan_series(4, 8)
    with pytest.raises(ValueError):
        PlanNode("leaf_table", LSParams(2, 3, 2, 4, 8), children=(leaf,))
    with pytest.raises(ValueError):
        PlanNode(
            "derived",
            LSParams(2, 3, 1, 3, 7),
            children=(PlanNode("leaf_table", LSParams(2, 3, 2, 3, 8)),),
        )


def decompose_node(**changes) -> PlanNode:
    """A valid offset-1 decomposition of LS_2[3](0,1,4), with fields replaced."""
    trivial = PlanNode("leaf_trivial", LSParams(2, 3, -1, 0, 1))
    leaf = PlanNode("leaf_table", LSParams(2, 3, 0, 1, 2))
    fields = dict(
        s=1, cell_strengths=((-1, 0), (0, -1)), children=(trivial, leaf, leaf, trivial)
    )
    fields.update(changes)
    return PlanNode("decompose", LSParams(2, 3, 0, 1, 4), **fields)


def test_decompose_node_validation():
    node = decompose_node()
    trivial, leaf = node.children[:2]
    other_n = PlanNode("leaf_table", LSParams(2, 5, 0, 1, 2))
    for bad in (
        dict(s=None),
        dict(s=-1),
        dict(s=3),  # v - k - 1 = 2
        dict(cell_strengths=None),
        dict(cell_strengths=((-1, 0),)),
        dict(cell_strengths=((-1, -1), (0, -1))),  # composes to strength -1 < 0
        dict(cell_strengths=((-1, 0, 1), (0, -1))),
        dict(children=(trivial, leaf, leaf)),
        dict(children=(leaf, trivial, leaf, trivial)),
        dict(children=(trivial, other_n, leaf, trivial)),
    ):
        with pytest.raises(ValueError):
            decompose_node(**bad)


@pytest.mark.parametrize(
    "kind,t,k,v",
    [("derived", 1, 2, 4), ("residual", 1, 2, 4), ("dual", 1, 3, 5), ("hyperplane_extend", 1, 2, 4)],
)
def test_child_shapes_match_the_operations(kind, t, k, v):
    # N = 1 large sets (whole Grassmannians) of the named child shapes go
    # through the operation itself and must come out with the node's shape
    shapes = _child_shapes(kind, LSParams(2, 1, t, k, v), None, None)
    operands = [
        large_set(cv, ck, ct, [enumerate_grassmannian(cv, ck)]) for ct, ck, cv in shapes
    ]
    operation = extend_by_hyperplane if kind == "hyperplane_extend" else TRANSFORMS[kind]
    out = operation(*operands)
    assert (out.t, out.k, out.v, out.n) == (t, k, v, 1)
    assert verify_large_set(out).grassmannian_size == gaussian_binomial(v, k)


def test_series_plans_are_pinned():
    # every series member with 8 <= v <= 40, v ascending, then k ascending
    members = [(k, v) for v in range(8, 41) for k in range(v + 1) if realizable_by_series(k, v)]
    text = "".join(serialize_plan(plan_series(k, v)) for k, v in members)
    assert len(members) == 126
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "52ff5b1ef0f8577d0101f57f1cd002c59a7c2c0c6b2b04f32eea97d992c2bd60"
    )


def test_plan_series_shares_repeated_subplans():
    nodes = collect(plan_series(5, 15), [])
    first = {}
    for node in nodes:
        assert first.setdefault(node.params, node) is node
    assert len(nodes) == 37 and len(first) < len(nodes)


def test_plan_file_round_trip(tmp_path):
    for k, v in ((4, 9), (3, 14)):
        node = plan_series(k, v)
        path = tmp_path / f"plan_{k}_{v}.txt"
        write_plan_file(path, node)
        assert read_plan_file(path) == node


def test_parse_plan_accepts_leaf_alias_and_comments():
    node = parse_plan("# base case\nleaf q=2 N=3 t=2 k=4 v=8\n")
    assert node.kind == "leaf_table"


def test_parse_plan_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_plan("")
    with pytest.raises(ValueError):
        parse_plan(" leaf_table q=2 N=3 t=2 k=4 v=8")
    with pytest.raises(ValueError):
        parse_plan(
            "leaf_table q=2 N=3 t=2 k=4 v=8\nleaf_table q=2 N=3 t=2 k=3 v=8"
        )


@pytest.mark.parametrize(
    "line,message",
    [
        ("leaf_table q=2 N=3 t=2 k=3 v=8 strenghts=1:2", "line 2: unknown token 'strenghts=1:2'"),
        ("leaf_table q=2 N=3 t=2 k=3 v=8 data=x", "line 2: unknown token 'data=x'"),
        ("leaf_table q=2 N=3 t=2 k=3 v=8 s", "line 2: token 's' has no '='"),
        ("leaf_table q=2 N=3 t=2 k=3", "line 2: .* is missing v="),
        ("leaf_table N=3 t=2 k=3 v=8", "line 2: .* is missing q="),
        ("leaf_table q=2 N=3 t=2 k=3 v=8 v=9", "line 2: repeats v="),
    ],
)
def test_parse_plan_names_the_line_and_the_bad_token(line, message):
    with pytest.raises(ValueError, match=message):
        parse_plan("# a comment\n" + line + "\n")


def test_offset_and_strengths_only_on_decompose_nodes():
    with pytest.raises(ValueError, match="leaf_table node takes no offset s or cell strengths"):
        parse_plan("leaf_table q=2 N=3 t=2 k=3 v=8 s=5 strengths=9:9\n")
    leaf = PlanNode("leaf_table", LSParams(2, 3, 2, 3, 8))
    for bad in (dict(s=0), dict(cell_strengths=((0, 0),))):
        with pytest.raises(ValueError, match="dual node takes no"):
            PlanNode("dual", LSParams(2, 3, 2, 5, 8), children=(leaf,), **bad)


def test_serialize_decompose_mentions_strengths():
    text = serialize_plan(plan_series(3, 14))
    assert "strengths=-1:2,0:1,1:0,2:-1" in text.splitlines()[0]
