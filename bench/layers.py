"""Per-layer metrics: derived from the spans of a traced run, plus kernel rates.

Every metric is reported on every workload.  A layer the workload does not
call reads 0 (no spans, no work).  Counts marked "computed" in README.md
come from input sizes attached to the spans, never from the code under test.
"""

from __future__ import annotations

import statistics
import time
from itertools import islice

from qdesigns import gf2, grassmann, groups

UNITS = {
    "catalog.expand_s": "s",
    "catalog.blocks_per_s": "1/s",
    "catalog.expand_rss_mb": "MB",
    "designs.write_s": "s",
    "designs.write_mb": "MB",
    "designs.read_s": "s",
    "designs.read_rss_mb": "MB",
    "designs.verify_s": "s",
    "designs.incidences_per_s": "1/s",
    "designs.verify_t1_s": "s",
    "designs.verify_t2_s": "s",
    "designs.derived_s": "s",
    "designs.residual_s": "s",
    "designs.dual_s": "s",
    "joins.extend_s": "s",
    "joins.extend_rss_mb": "MB",
    "joins.materialize_s": "s",
    "joins.subspaces_per_s": "1/s",
    "joins.avoiding_join_calls": "count",
    "joins.partition_check_s": "s",
    "kramer_mesner.build_s": "s",
    "kramer_mesner.build_singer_s": "s",
    "kramer_mesner.table_check_s": "s",
    "kramer_mesner.nodes_per_s": "1/s",
    "kramer_mesner.first_solution_s": "s",
    "kramer_mesner.first_solution_nodes": "count",
    "kramer_mesner.infeasible_s": "s",
    "kramer_mesner.infeasible_nodes": "count",
    "kramer_mesner.solved_ratio": "ratio",
    "gf2.rref_raw_per_s": "1/s",
    "groups.act_per_s": "1/s",
    "grassmann.orthogonal_complement_per_s": "1/s",
    "grassmann.enumerate_per_s": "1/s",
    "grassmann.project_per_s": "1/s",
    "trace.overhead_s": "s",
}

KERNEL_BATCH = 4096  # subspaces per kernel sweep
VERIFY_SPANS = ("designs.verify_large_set", "designs.verify_design")


class Spans:
    def __init__(self, spans: list[dict]):
        self.spans = spans

    def select(self, names, **match) -> list[dict]:
        names = (names,) if isinstance(names, str) else names
        return [
            s for s in self.spans
            if s["name"] in names and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def seconds(self, names, **match) -> float:
        return sum((s["end"] - s["start"] for s in self.select(names, **match)), 0.0)

    def attr(self, key: str, names, **match) -> float:
        return sum(s["attrs"].get(key, 0) for s in self.select(names, **match))

    def rss_rise(self, names, **match) -> float:
        return sum((s["rss_rise_mb"] for s in self.select(names, **match)), 0.0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[dict], batch) -> dict[str, float]:
    """Every per-layer metric but trace.overhead_s, which the caller measures."""
    sp = Spans(spans)
    m: dict[str, float] = {}
    expand = "catalog.build_design_from_reps"
    m["catalog.expand_s"] = sp.seconds(expand)
    m["catalog.blocks_per_s"] = ratio(sp.attr("blocks", expand), m["catalog.expand_s"])
    m["catalog.expand_rss_mb"] = sp.rss_rise(expand)

    m["designs.write_s"] = sp.seconds("designs.write_large_set")
    m["designs.write_mb"] = sp.attr("bytes", "designs.write_large_set") / (1 << 20)
    m["designs.read_s"] = sp.seconds("designs.read_large_set")
    m["designs.read_rss_mb"] = sp.rss_rise("designs.read_large_set")
    m["designs.verify_s"] = sp.seconds(VERIFY_SPANS)
    m["designs.incidences_per_s"] = ratio(sp.attr("incidences", VERIFY_SPANS), m["designs.verify_s"])
    m["designs.verify_t1_s"] = sp.seconds(VERIFY_SPANS, t=1)
    m["designs.verify_t2_s"] = sp.seconds(VERIFY_SPANS, t=2)
    m["designs.derived_s"] = sp.seconds("designs.derived_large_set")
    m["designs.residual_s"] = sp.seconds("designs.residual_large_set")
    m["designs.dual_s"] = sp.seconds("designs.dual_large_set")

    m["joins.extend_s"] = sp.seconds("joins.extend_by_hyperplane")
    m["joins.extend_rss_mb"] = sp.rss_rise("joins.extend_by_hyperplane")
    cell = "joins.materialize_cell"
    m["joins.materialize_s"] = sp.seconds(cell)
    m["joins.subspaces_per_s"] = ratio(sp.attr("subspaces", cell), m["joins.materialize_s"])
    m["joins.avoiding_join_calls"] = sp.attr("avoiding_join_calls", cell)
    m["joins.partition_check_s"] = sp.seconds("joins.partition_check")

    km, solve = "kramer_mesner.build_km", "kramer_mesner.solve_exact"
    m["kramer_mesner.build_s"] = sp.seconds(km, system="base")
    m["kramer_mesner.build_singer_s"] = sp.seconds(km, system="singer")
    m["kramer_mesner.table_check_s"] = sp.seconds("kramer_mesner.table_check")
    m["kramer_mesner.nodes_per_s"] = ratio(sp.attr("nodes", solve, kind="budget"), sp.seconds(solve, kind="budget"))
    m["kramer_mesner.first_solution_s"] = sp.seconds(solve, kind="first")
    m["kramer_mesner.first_solution_nodes"] = sp.attr("nodes", solve, kind="first")
    m["kramer_mesner.infeasible_s"] = sp.seconds(solve, kind="infeasible")
    m["kramer_mesner.infeasible_nodes"] = sp.attr("nodes", solve, kind="infeasible")
    m["kramer_mesner.solved_ratio"] = ratio(sp.attr("solved", solve, kind="first"), len(sp.select(solve, kind="first")))

    m.update(kernel_rates(batch))
    return m


def _rate(fn, items) -> float:
    """Calls per second of fn over items: median of a few timed sweeps."""
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        for x in items:
            fn(x)
        rates.append(len(items) / (time.perf_counter() - t0))
    return statistics.median(rates)


def kernel_rates(batch) -> dict[str, float]:
    """Kernel throughput on a fixed slice of subspaces the workload produced.

    Measured after the workload's spans close, so it adds nothing to them.
    """
    subs = sorted(islice(batch, KERNEL_BATCH))
    v, k = subs[0].v, subs[0].dim
    # unreduced spanning rows: prefix XORs of the basis, in reverse order
    mixed = []
    for s in subs:
        acc, rows = 0, []
        for r in reversed(s.rows):
            acc ^= r
            rows.append(acc)
        mixed.append(rows)
    g = _shear(v)
    # not e_0, which no subspace of the join batch contains: the first basis
    # row of the smallest subspace lies in some subspaces of every batch
    point = subs[0].rows[0]
    frame = grassmann.QuotientFrame(grassmann.full_space(v), grassmann.span(v, [point]))
    through = [s for s in subs if point in s]
    enum_n = len(subs)
    t0 = time.perf_counter()
    got = sum(1 for _ in islice(grassmann.enumerate_grassmannian(v, k), enum_n))
    enum_rate = got / (time.perf_counter() - t0)
    return {
        "gf2.rref_raw_per_s": _rate(gf2.rref_raw, mixed),
        "groups.act_per_s": _rate(lambda s: groups.act(s, g), subs),
        "grassmann.orthogonal_complement_per_s": _rate(grassmann.orthogonal_complement, subs),
        "grassmann.enumerate_per_s": enum_rate,
        "grassmann.project_per_s": _rate(frame.project, through),
    }


def _shear(v: int) -> gf2.BitMatrix:
    """A fixed invertible matrix: e_i -> e_i + e_(i+1), the last row e_(v-1)."""
    return gf2.BitMatrix(v, tuple((1 << i) | (1 << (i + 1)) if i + 1 < v else 1 << i for i in range(v)))

