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
    "check_remark_genericity",
    "generate_table",
    "parse_plan",
    "plan_series",
    "read_plan_file",
    "realizable_by_series",
    "render_table",
    "serialize_plan",
    "write_plan_file",
]

PLAN_KINDS = (
    "leaf_table",
    "leaf_trivial",
    "derived",
    "residual",
    "dual",
    "hyperplane_extend",
    "decompose",
)

# (t1, t2) for a decomposition cell, by i mod 6; t1 + t2 + 1 = 2 in every row
CELL_STRENGTHS_MOD6 = {
    0: (-1, 2),
    1: (0, 1),
    2: (1, 0),
    3: (2, -1),
    4: (2, -1),
    5: (2, -1),
}


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
    if p.t == -1:
        return True
    return all(
        gaussian_binomial(p.v - i, p.k - i, p.q) % p.n == 0 for i in range(p.t + 1)
    )


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
        n_children = len(self.children)
        if self.kind in ("leaf_table", "leaf_trivial"):
            if n_children:
                raise ValueError(f"{self.kind} node cannot have children")
        elif self.kind in ("derived", "residual", "dual"):
            if n_children != 1:
                raise ValueError(f"{self.kind} node needs exactly one child")
            c = self.children[0].params
            want = {
                "derived": (p.t + 1, p.k + 1, p.v + 1),
                "residual": (p.t + 1, p.k, p.v + 1),
                "dual": (p.t, p.v - p.k, p.v),
            }[self.kind]
            if (c.t, c.k, c.v) != want or (c.q, c.n) != (p.q, p.n):
                raise ValueError(
                    f"{self.kind} child {c} does not transform to {p}"
                )
        elif self.kind == "hyperplane_extend":
            if n_children != 2:
                raise ValueError("hyperplane_extend node needs exactly two children")
            a, b = (c.params for c in self.children)
            if (a.t, a.k, a.v) != (p.t, p.k - 1, p.v - 1) or (
                b.t, b.k, b.v
            ) != (p.t, p.k, p.v - 1):
                raise ValueError(
                    f"hyperplane_extend children ({a}, {b}) do not extend to {p}"
                )
        else:  # decompose
            if self.s is None or self.s < 0:
                raise ValueError("decompose node needs a non-negative offset s")
            if self.s > p.v - p.k - 1:
                raise ValueError(f"offset s={self.s} exceeds v-k-1 = {p.v - p.k - 1}")
            if self.cell_strengths is None or len(self.cell_strengths) != p.k + 1:
                raise ValueError("decompose node needs one (t1,t2) pair per cell")
            if n_children != 2 * (p.k + 1):
                raise ValueError(
                    f"decompose node needs {2 * (p.k + 1)} children, got {n_children}"
                )
            for i, (t1, t2) in enumerate(self.cell_strengths):
                if t1 + t2 + 1 < p.t:
                    raise ValueError(
                        f"cell {i} strengths ({t1},{t2}) compose below target {p.t}"
                    )
                first, second = self.children[2 * i], self.children[2 * i + 1]
                fw = (t1, i, self.s + i)
                sw = (t2, p.k - i, p.v - self.s - i - 1)
                for child, want in ((first, fw), (second, sw)):
                    c = child.params
                    if (c.t, c.k, c.v) != want or (c.q, c.n) != (p.q, p.n):
                        raise ValueError(
                            f"cell {i} factor {c} does not match expected "
                            f"(t,k,v)={want}"
                        )


def _leaf(p: LSParams) -> PlanNode:
    return PlanNode("leaf_table", p)


def plan_series(k: int, v: int) -> PlanNode:
    """Construction plan for the series member LS_2[3](2,k,v)."""
    if not realizable_by_series(k, v):
        raise ValueError(f"LS_2[3](2,{k},{v}) is not covered by the series")
    return _plan(k, v, {})


def _params(t: int, k: int, v: int) -> LSParams:
    return LSParams(2, 3, t, k, v)


def _plan(k: int, v: int, memo: dict) -> PlanNode:
    if (k, v) in memo:
        return memo[(k, v)]
    if not realizable_by_series(k, v):
        raise ArithmeticError(f"series recursion reached uncovered parameters ({k},{v})")
    if v == 8:
        if k in (3, 4):
            node = _leaf(_params(2, k, 8))
        else:
            node = PlanNode("dual", _params(2, 5, 8), children=(_plan(3, 8, memo),))
    elif v in (9, 10):
        node = PlanNode(
            "hyperplane_extend",
            _params(2, k, v),
            children=(_plan(k - 1, v - 1, memo), _plan(k, v - 1, memo)),
        )
    elif 2 * k > v:
        node = PlanNode("dual", _params(2, k, v), children=(_plan(v - k, v, memo),))
    else:
        s = 5
        children = []
        strengths = []
        for i in range(k + 1):
            t1, t2 = CELL_STRENGTHS_MOD6[i % 6]
            strengths.append((t1, t2))
            children.append(_factor(t1, i, s + i, memo))
            children.append(_factor(t2, k - i, v - s - i - 1, memo))
        node = PlanNode(
            "decompose",
            _params(2, k, v),
            s=s,
            children=tuple(children),
            cell_strengths=tuple(strengths),
        )
    memo[(k, v)] = node
    return node


def _factor(t_req: int, k: int, v: int, memo: dict) -> PlanNode:
    """Plan producing an (N,t_req)-partition of the full Grassmannian [v choose k]."""
    if t_req == -1:
        return PlanNode("leaf_trivial", _params(-1, k, v))
    if t_req == 2:
        return _plan(k, v, memo)
    inner = _factor(t_req + 1, k + 1, v + 1, memo)
    return PlanNode("derived", _params(t_req, k, v), children=(inner,))


def check_remark_genericity(q: int, n: int) -> tuple[LSParams, LSParams]:
    """Validate the two base leaves the series recursion needs for (q, N).

    The recursion shape is independent of q and N; only the leaves
    LS_q[N](2,3,8) and LS_q[N](2,4,8) must exist.  Their admissibility is
    checked here; an inadmissible leaf raises with the failing division.
    """
    leaves = (LSParams(q, n, 2, 3, 8), LSParams(q, n, 2, 4, 8))
    failures = []
    for p in leaves:
        for i in range(p.t + 1):
            value = gaussian_binomial(p.v - i, p.k - i, q)
            if value % n:
                failures.append(
                    f"{p}: {n} does not divide [{p.v - i} choose {p.k - i}]_{q}"
                    f" = {value}"
                )
    if failures:
        raise ValueError("inadmissible leaves: " + "; ".join(failures))
    return leaves


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
            if not admissible(LSParams(2, 3, 2, k, v)):
                grid[(v, k)] = "-"
            elif realizable_by_series(k, v):
                grid[(v, k)] = str(k)
            else:
                grid[(v, k)] = "?"
    return grid


def render_table(grid: dict[tuple[int, int], str]) -> str:
    """Plain-text grid, one row per v, columns k = 3..v/2."""
    v_max = max(v for v, _ in grid)
    k_max = max(k for _, k in grid)
    width = max(len(c) for c in grid.values())
    width = max(width, len(str(k_max)), 2)
    header = "  v | " + " ".join(f"{k:>{width}}" for k in range(3, k_max + 1))
    lines = [header, "-" * len(header)]
    for v in range(6, v_max + 1):
        cells = [
            f"{grid.get((v, k), ''):>{width}}" for k in range(3, k_max + 1)
        ]
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
            attrs[key] = val
        for key in _REQUIRED_KEYS:
            if key not in attrs:
                raise ValueError(f"line {lineno}: {line!r} is missing {key}=")
        params = LSParams(
            int(attrs["q"]), int(attrs["N"]), int(attrs["t"]),
            int(attrs["k"]), int(attrs["v"]),
        )
        s = int(attrs["s"]) if "s" in attrs else None
        strengths = None
        if "strengths" in attrs:
            strengths = tuple(
                tuple(int(x) for x in pair.split(":"))
                for pair in attrs["strengths"].split(",")
            )
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


def read_plan_file(path) -> PlanNode:
    return parse_plan(Path(path).read_text())
