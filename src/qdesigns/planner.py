"""Parameter arithmetic and construction planning for large-set series.

Admissibility of LS_q[N](t,k,v) is the divisibility of the Gaussian
binomials [v-i choose k-i]_q by N for i = 0..t.  The realizable series
over GF(2) with N=3, t=2 is cut out by residues mod 6: v >= 8 and
2 <= (v mod 6) < (k mod 6) <= 5, a condition closed under k -> v-k.

plan_series emits the recursion tree that realizes a series member:
table-backed leaves at v=8, hyperplane extensions at v in {9,10}, a
dual step when k > v/2, and otherwise a decomposition with offset s=5
whose cells pair partitions of strengths (t1,t2) by i mod 6:
(-1,2), (0,1), (1,0), and (2,-1) for i = 3,4,5.  Strength-t factors
below 2 are obtained by taking derived large sets of higher members.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .grassmann import gaussian_binomial

__all__ = [
    "LSParams",
    "PlanNode",
    "admissible",
    "generate_table",
    "parse_plan",
    "plan_series",
    "realizable_by_series",
    "render_table",
    "serialize_plan",
    "write_plan_file",
]

PLAN_KINDS = ("leaf_table", "leaf_trivial", "derived", "residual", "dual", "hyperplane_extend", "decompose")

# (t1, t2) for a decomposition cell, by i mod 6; t1 + t2 + 1 = 2 in every row
CELL_STRENGTHS_MOD6 = {0: (-1, 2), 1: (0, 1), 2: (1, 0), 3: (2, -1), 4: (2, -1), 5: (2, -1)}


@dataclass(frozen=True)
class LSParams:
    """Parameters of a large set LS_q[N](t,k,v); t = -1 is the empty condition."""

    q: int
    n: int
    t: int
    k: int
    v: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"field order {self.q} < 2")
        if self.n < 1:
            raise ValueError(f"part count {self.n} < 1")
        if self.t < -1:
            raise ValueError(f"strength {self.t} < -1")
        if self.v < 0 or not 0 <= self.k <= self.v:
            raise ValueError(f"need 0 <= k <= v, got k={self.k} v={self.v}")
        if self.t >= 0 and self.t > self.k:
            raise ValueError(f"strength {self.t} exceeds block dimension {self.k}")

    def __str__(self) -> str:
        return f"LS_{self.q}[{self.n}]({self.t},{self.k},{self.v})"


def admissible(p: LSParams) -> bool:
    """N divides [v-i choose k-i]_q for all i = 0..t; t = -1 always passes."""
    return all(gaussian_binomial(p.v - i, p.k - i, p.q) % p.n == 0 for i in range(p.t + 1))


def _direct(k: int, v: int) -> bool:
    return 2 <= v % 6 < k % 6 <= 5


def realizable_by_series(k: int, v: int) -> bool:
    if v < 0 or not 0 <= k <= v:
        raise ValueError(f"need 0 <= k <= v, got k={k} v={v}")
    return v >= 8 and (_direct(k, v) or _direct(v - k, v))


@dataclass(frozen=True)
class PlanNode:
    """One step of a construction plan.

    decompose nodes carry the offset s, one (t1,t2) pair per cell
    i = 0..k, and 2(k+1) children: the two partition factors of cell i
    at positions 2i and 2i+1, over ambient dimensions s+i and v-s-i-1.
    """

    kind: str
    params: LSParams
    s: Optional[int] = None
    children: tuple["PlanNode", ...] = ()
    cell_strengths: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise ValueError(f"unknown plan node kind {self.kind!r}")
        p = self.params
        shapes = _child_shapes(self.kind, p, self.s, self.cell_strengths)
        if len(self.children) != len(shapes):
            raise ValueError(
                f"{self.kind} node for {p} needs {len(shapes)} children, "
                f"got {len(self.children)}"
            )
        for child, (t, k, v) in zip(self.children, shapes):
            c = child.params
            if (c.q, c.n, c.t, c.k, c.v) != (p.q, p.n, t, k, v):
                raise ValueError(
                    f"{self.kind} child {c} of {p} should have (t,k,v)={(t, k, v)}"
                )


def _child_shapes(
    kind: str, params: LSParams, s: Optional[int], cell_strengths: Optional[tuple]
) -> list[tuple[int, int, int]]:
    """The (t, k, v) of each child a node of this kind needs, in order.

    Children share the node's q and N; decompose cell i's two factors come
    at positions 2i and 2i+1.  A bad offset or strength list raises, and
    so does either one on a node that is not a decompose node.
    """
    t, k, v = params.t, params.k, params.v
    if kind != "decompose" and (s is not None or cell_strengths is not None):
        raise ValueError(f"{kind} node takes no offset s or cell strengths")
    if kind == "derived":
        return [(t + 1, k + 1, v + 1)]
    if kind == "residual":
        return [(t + 1, k, v + 1)]
    if kind == "dual":
        return [(t, v - k, v)]
    if kind == "hyperplane_extend":
        return [(t, k - 1, v - 1), (t, k, v - 1)]
    if kind != "decompose":
        return []
    if s is None or s < 0:
        raise ValueError("decompose node needs a non-negative offset s")
    if s > v - k - 1:
        raise ValueError(f"offset s={s} exceeds v-k-1 = {v - k - 1}")
    if cell_strengths is None or len(cell_strengths) != k + 1:
        raise ValueError("decompose node needs one (t1,t2) pair per cell")
    shapes = []
    for i, (t1, t2) in enumerate(cell_strengths):
        if t1 + t2 + 1 < t:
            raise ValueError(f"cell {i} strengths ({t1},{t2}) compose below target {t}")
        shapes += [(t1, i, s + i), (t2, k - i, v - s - i - 1)]
    return shapes


def plan_series(k: int, v: int) -> PlanNode:
    """Construction plan for the series member LS_2[3](2,k,v)."""
    if not realizable_by_series(k, v):
        raise ValueError(f"LS_2[3](2,{k},{v}) is not covered by the series")
    return _plan(2, k, v, {})


def _plan(t: int, k: int, v: int, memo: dict) -> PlanNode:
    """Plan for LS_2[3](t,k,v); below t = 2, an (N,t)-partition of [v choose k].

    Strength-t partitions below 2 are derived from higher members, and
    t = -1 is the trivial partition.  Each (t,k,v) is planned once.
    """
    if (t, k, v) in memo:
        return memo[(t, k, v)]
    s = strengths = None
    if t == -1:
        kind = "leaf_trivial"
    elif t < 2:
        kind = "derived"
    elif not realizable_by_series(k, v):
        raise ArithmeticError(f"series recursion reached uncovered parameters ({k},{v})")
    elif v == 8:
        kind = "leaf_table" if k in (3, 4) else "dual"
    elif v in (9, 10):
        kind = "hyperplane_extend"
    elif 2 * k > v:
        kind = "dual"
    else:
        kind, s = "decompose", 5
        strengths = tuple(CELL_STRENGTHS_MOD6[i % 6] for i in range(k + 1))
    p = LSParams(2, 3, t, k, v)
    children = tuple(_plan(*shape, memo) for shape in _child_shapes(kind, p, s, strengths))
    node = memo[(t, k, v)] = PlanNode(kind, p, s, children, strengths)
    return node


def generate_table(v_max: int) -> dict[tuple[int, int], str]:
    """Cells (v,k) for 6 <= v <= v_max, 3 <= k <= v/2.

    '-' marks inadmissible parameters, a numeral k marks series members,
    '?' marks admissible parameters not covered by the series.
    """
    if v_max < 6:
        raise ValueError(f"v_max {v_max} < 6")
    grid: dict[tuple[int, int], str] = {}
    for v in range(6, v_max + 1):
        for k in range(3, v // 2 + 1):
            admitted = admissible(LSParams(2, 3, 2, k, v))
            grid[(v, k)] = "-" if not admitted else str(k) if realizable_by_series(k, v) else "?"
    return grid


def render_table(grid: dict[tuple[int, int], str]) -> str:
    """Plain-text grid, one row per v, columns k = 3..v/2."""
    v_max = max(v for v, _ in grid)
    k_max = max(k for _, k in grid)
    width = max(*map(len, grid.values()), len(str(k_max)), 2)
    header = "  v | " + " ".join(f"{k:>{width}}" for k in range(3, k_max + 1))
    lines = [header, "-" * len(header)]
    for v in range(6, v_max + 1):
        cells = [f"{grid.get((v, k), ''):>{width}}" for k in range(3, k_max + 1)]
        lines.append(f"{v:>3} | " + " ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plan files: one node per line as "<kind> q= N= t= k= v= [s=] [strengths=]",
# children indented two spaces below their parent


def serialize_plan(node: PlanNode) -> str:
    lines: list[str] = []

    def emit(n: PlanNode, depth: int) -> None:
        p = n.params
        parts = [n.kind, f"q={p.q}", f"N={p.n}", f"t={p.t}", f"k={p.k}", f"v={p.v}"]
        if n.s is not None:
            parts.append(f"s={n.s}")
        if n.cell_strengths is not None:
            parts.append(
                "strengths=" + ",".join(f"{a}:{b}" for a, b in n.cell_strengths)
            )
        lines.append("  " * depth + " ".join(parts))
        for c in n.children:
            emit(c, depth + 1)

    emit(node, 0)
    return "\n".join(lines) + "\n"


_REQUIRED_KEYS = ("q", "N", "t", "k", "v")
_PLAN_KEYS = _REQUIRED_KEYS + ("s", "strengths")


def parse_plan(text: str) -> PlanNode:
    rows: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent % 2:
            raise ValueError(f"line {lineno}: odd indentation")
        rows.append((lineno, indent // 2, raw.strip()))
    if not rows:
        raise ValueError("empty plan")

    pos = 0

    def build(depth: int) -> PlanNode:
        nonlocal pos
        lineno, d, line = rows[pos]
        if d != depth:
            raise ValueError(f"expected depth {depth}, got {d} at {line!r}")
        pos += 1
        tokens = line.split()
        kind = tokens[0]
        if kind == "leaf":
            kind = "leaf_table"
        attrs = {}
        for tok in tokens[1:]:
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValueError(f"line {lineno}: token {tok!r} has no '='")
            if key not in _PLAN_KEYS:
                raise ValueError(f"line {lineno}: unknown token {tok!r}")
            if key in attrs:
                raise ValueError(f"line {lineno}: repeats {key}=")
            attrs[key] = val
        for key in _REQUIRED_KEYS:
            if key not in attrs:
                raise ValueError(f"line {lineno}: {line!r} is missing {key}=")
        params = LSParams(*(int(attrs[key]) for key in _REQUIRED_KEYS))  # LSParams(q, n, t, k, v)
        s = int(attrs["s"]) if "s" in attrs else None
        pairs = attrs["strengths"].split(",") if "strengths" in attrs else None
        strengths = None if pairs is None else tuple(tuple(map(int, pair.split(":"))) for pair in pairs)
        children = []
        while pos < len(rows) and rows[pos][1] == depth + 1:
            children.append(build(depth + 1))
        return PlanNode(kind, params, s=s, children=tuple(children), cell_strengths=strengths)

    node = build(0)
    if pos != len(rows):
        raise ValueError(f"trailing content from {rows[pos][2]!r}")
    return node


def write_plan_file(path, node: PlanNode) -> None:
    Path(path).write_text(serialize_plan(node))
