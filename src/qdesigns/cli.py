"""Command line interface.

Every run that writes artifacts also writes a ``manifest.json`` next to
them recording the subcommand, its parameters, digests of the inputs it
read, the paths it wrote, wall time, and the verification verdicts.

Exit codes: 0 means the run completed and every verification passed;
2 means a verification or a definite mathematical negative (an
infeasible system, a failed design check); 3 means a search gave up
within its budget, so the answer is unknown; 4 means bad usage, bad
input files, or I/O trouble.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Optional

from . import catalog
from .designs import (
    TRANSFORMS,
    LargeSet,
    VerificationError,
    read_design,
    read_large_set,
    verify_design,
    verify_large_set,
    write_design,
    write_large_set,
)
from .groups import Group, close_group, read_generator_file, trivial_group
from .joins import MissingLeafError, execute_plan
from .kramer_mesner import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_RETRY_BUDGET,
    build_km,
    design_from_selection,
    iterated_large_set_search,
    solve_exact,
    write_km_system,
)
from .planner import (
    generate_table,
    plan_series,
    render_table,
    serialize_plan,
    write_plan_file,
)

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VERIFIED_FAIL = 2
EXIT_UNKNOWN = 3
EXIT_IO = 4


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # options must be spelled out: "--seed" must not pass for "--seed-columns"
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage problems are I/O-class failures, not crashes
    def error(self, message):
        raise CliError(EXIT_IO, f"{self.prog}: {message}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Accumulates one run's manifest record."""

    def __init__(self, args: argparse.Namespace, subcommand: str):
        self.record = {
            "subcommand": subcommand,
            "parameters": {},
            "inputs": {},
            "outputs": [],
            "verdicts": [],
            "wall_time_s": None,
        }
        self.deterministic = bool(getattr(args, "deterministic", False))
        if self.deterministic:
            self.record["parameters"]["deterministic"] = True
        self.t0 = time.monotonic()

    def param(self, **kwargs) -> None:
        self.record["parameters"].update(kwargs)

    def input_file(self, path: str) -> None:
        self.record["inputs"][path] = _sha256(path)

    def input_digests(self, digests: dict[str, str]) -> None:
        self.record["inputs"].update(digests)

    def output(self, path: str) -> None:
        self.record["outputs"].append(path)

    def verdict(self, target: str, ok: bool, **details) -> None:
        self.record["verdicts"].append({"target": target, "ok": ok, **details})

    def write(self, directory: str) -> str:
        if not self.deterministic:
            self.record["wall_time_s"] = round(time.monotonic() - self.t0, 3)
        self.record["outputs"].sort()
        path = os.path.join(directory, "manifest.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _load_group(spec: str, v: int) -> tuple[Group, dict[str, str]]:
    """Resolve a --group argument: 'builtin', 'trivial', or a file path."""
    if spec == "builtin":
        if v != 8:
            raise CliError(EXIT_IO, "the builtin group acts on GF(2)^8; need --v 8")
        return catalog.builtin_group(), catalog.builtin_data_digests()
    if spec == "trivial":
        return trivial_group(v), {}
    if not os.path.exists(spec):
        raise CliError(EXIT_IO, f"group file not found: {spec}")
    generators = read_generator_file(spec)
    if any(g.nrows != v for g in generators):
        raise CliError(EXIT_IO, f"{spec}: generators do not act on GF(2)^{v}")
    return close_group(generators), {spec: _sha256(spec)}


def _ensure_out_dir(path: str, force: bool) -> None:
    if os.path.isdir(path):
        if os.listdir(path) and not force:
            raise CliError(
                EXIT_IO, f"output directory {path} is not empty (use --force)"
            )
    else:
        os.makedirs(path)


def _write_large_set_dir(run: _Run, directory: str, ls: LargeSet) -> None:
    """large_set.ls plus design1.txt .. designN.txt, all recorded as outputs."""
    rels = [f"design{i + 1}.txt" for i in range(ls.n)]
    write_large_set(os.path.join(directory, "large_set.ls"), ls, rels)
    for rel in rels + ["large_set.ls"]:
        run.output(rel)


# ---------------------------------------------------------------- decode


def _cmd_decode(args) -> int:
    _ensure_out_dir(args.out, args.force)
    run = _Run(args, "decode")
    run.param(design=args.design, verify=not args.no_verify)
    run.input_digests(catalog.builtin_data_digests())

    if args.design is not None:
        d = catalog.builtin_design(args.design, verify=False)
        rel = f"design{args.design}.txt"
        write_design(os.path.join(args.out, rel), d)
        run.output(rel)
        if not args.no_verify:
            verify_design(d)
            run.verdict(rel, True, check=f"{d.t}-({d.v},{d.k},{d.lam}) design")
    else:
        ls = catalog.builtin_large_set(verify=False)
        _write_large_set_dir(run, args.out, ls)
        if not args.no_verify:
            report = verify_large_set(ls)
            run.verdict(
                "large_set.ls",
                True,
                check=f"large set LS({ls.t},{ls.k},{ls.v}) N={ls.n}",
                lam=report.lam,
                blocks_per_design=report.blocks_per_design,
            )
    run.write(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- verify


def _artifact_kind(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
    return "large_set" if "N=" in header else "design"


def _cmd_verify(args) -> int:
    for path in args.paths:
        if not os.path.exists(path):
            raise CliError(EXIT_IO, f"no such file: {path}")
        if _artifact_kind(path) == "large_set":
            ls = read_large_set(path)
            report = verify_large_set(ls)
            print(
                f"{path}: ok, large set LS_2[{report.n}]({report.t},{report.k},{report.v})"
                f" lambda={report.lam}, {report.blocks_per_design[0]} blocks per design"
            )
        else:
            d = read_design(path)
            verify_design(d)
            print(f"{path}: ok, {d.t}-({d.v},{d.k},{d.lam}) design over GF(2)")
    return EXIT_OK


# ---------------------------------------------------------------- transform


def _cmd_transform(args) -> int:
    if not os.path.exists(args.input):
        raise CliError(EXIT_IO, f"no such file: {args.input}")
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    run = _Run(args, "transform")
    run.param(op=args.op, input=args.input, out=args.out)
    run.input_file(args.input)
    ls = read_large_set(args.input)
    out = TRANSFORMS[args.op](ls, verify=True)
    write_large_set(args.out, out)
    run.output(os.path.basename(args.out))
    run.verdict(
        os.path.basename(args.out),
        True,
        check=f"large set LS({out.t},{out.k},{out.v}) N={out.n}",
    )
    run.write(out_dir)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- km


def _cmd_km_build(args) -> int:
    group, digests = _load_group(args.group, args.v)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    run = _Run(args, "km build")
    run.param(v=args.v, t=args.t, k=args.k, group=args.group, group_order=group.order)
    run.input_digests(digests)
    system = build_km(args.v, args.t, args.k, group)
    write_km_system(system, args.out)
    for suffix in ("", ".treps", ".kreps"):
        run.output(os.path.basename(args.out) + suffix)
    run.param(rows=system.n_rows, cols=system.n_cols, lambda_max=system.lambda_max)
    run.verdict(
        os.path.basename(args.out), True, check="row sums equal lambda_max"
    )
    run.write(out_dir)
    print(
        f"wrote {args.out}: {system.n_rows} x {system.n_cols} system,"
        f" lambda_max={system.lambda_max}"
    )
    return EXIT_OK


def _cmd_km_solve(args) -> int:
    group, digests = _load_group(args.group, args.v)
    _ensure_out_dir(args.out, args.force)
    run = _Run(args, "km solve")
    run.param(
        v=args.v, t=args.t, k=args.k, group=args.group,
        lam=args.lam, node_budget=args.node_budget,
    )
    run.input_digests(digests)
    system = build_km(args.v, args.t, args.k, group)
    result = solve_exact(system, args.lam, node_budget=args.node_budget)
    run.param(nodes=result.nodes, status=result.status)
    if result.status == "unknown":
        run.verdict("search", False, check="exact cover search", status="unknown")
        run.write(args.out)
        print(f"budget exhausted after {result.nodes} nodes; answer unknown")
        return EXIT_UNKNOWN
    if result.status == "infeasible":
        run.verdict("search", False, check="exact cover search", status="infeasible")
        run.write(args.out)
        print(f"no design with lambda={args.lam} admits this group (proved)")
        return EXIT_VERIFIED_FAIL
    design = design_from_selection(system, result.selection, args.lam, verify=True)
    write_design(os.path.join(args.out, "design.txt"), design)
    with open(os.path.join(args.out, "selection.txt"), "w", encoding="ascii") as fh:
        fh.write(" ".join(str(j) for j in sorted(result.selection.chosen)) + "\n")
    run.output("design.txt")
    run.output("selection.txt")
    run.verdict(
        "design.txt", True,
        check=f"{design.t}-({design.v},{design.k},{design.lam}) design",
    )
    run.write(args.out)
    print(f"solved: {len(design.blocks)} blocks, wrote {args.out}")
    return EXIT_OK


def _read_seed_columns(spec: str) -> list[frozenset[int]]:
    """A file of one selection per line, or one inline comma/space list."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        return [frozenset(int(x) for x in ln.replace(",", " ").split()) for ln in lines]
    try:
        return [frozenset(int(x) for x in spec.replace(",", " ").split())]
    except ValueError:
        raise CliError(EXIT_IO, f"--seed-columns: no such file and not a column list: {spec}")


def _cmd_km_ls_search(args) -> int:
    group, digests = _load_group(args.group, args.v)
    _ensure_out_dir(args.out, args.force)
    run = _Run(args, "km ls-search")
    run.param(
        v=args.v, t=args.t, k=args.k, N=args.N, group=args.group,
        node_budget=args.node_budget, retry_budget=args.retry_budget,
    )
    run.input_digests(digests)
    seeds = None
    if args.seed_columns:
        seeds = _read_seed_columns(args.seed_columns)
        if os.path.exists(args.seed_columns):
            run.input_file(args.seed_columns)
        run.param(seed_rounds=len(seeds))
    system = build_km(args.v, args.t, args.k, group)
    result = iterated_large_set_search(
        system, args.N,
        node_budget=args.node_budget,
        retry_budget=args.retry_budget,
        seed_selections=seeds,
    )
    run.param(status=result.status, nodes=result.nodes, retries=result.retries)
    if result.status != "solved":
        for line in result.trace:
            print(line)
        run.verdict("search", False, check="iterated large set search",
                    status=result.status)
        run.write(args.out)
        if result.status == "exhausted":
            print("search space exhausted: no such large set with this group (proved)")
            return EXIT_VERIFIED_FAIL
        print(f"gave up after {result.nodes} nodes, {result.retries} retries")
        return EXIT_UNKNOWN
    ls = result.large_set
    _write_large_set_dir(run, args.out, ls)
    report = verify_large_set(ls)
    run.verdict(
        "large_set.ls", True,
        check=f"large set LS({ls.t},{ls.k},{ls.v}) N={ls.n}",
        lam=report.lam,
    )
    run.write(args.out)
    print(f"solved in {result.nodes} nodes: wrote {ls.n} designs to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- construct


def _load_registry(directory: Optional[str], use_builtin: bool, run: _Run) -> dict:
    registry: dict = {}
    if use_builtin:
        ls = catalog.builtin_large_set(verify=False)
        registry[(2, ls.n, ls.t, ls.k, ls.v)] = ls
        run.input_digests(catalog.builtin_data_digests())
    if directory:
        if not os.path.isdir(directory):
            raise CliError(EXIT_IO, f"registry is not a directory: {directory}")
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".ls"):
                continue
            path = os.path.join(directory, name)
            ls = read_large_set(path)
            registry[(2, ls.n, ls.t, ls.k, ls.v)] = ls
            run.input_file(path)
    return registry


def _cmd_construct(args) -> int:
    _ensure_out_dir(args.out, args.force)
    run = _Run(args, "construct")
    run.param(k=args.k, v=args.v, size_guard=args.size_guard)
    plan = plan_series(args.k, args.v)
    registry = _load_registry(args.registry, args.builtin, run)
    write_plan_file(os.path.join(args.out, "plan.txt"), plan)
    run.output("plan.txt")
    try:
        ls = execute_plan(
            plan, registry, size_guard=args.size_guard, force=args.force_size
        )
    except MissingLeafError as e:
        run.verdict("plan", False, check="leaf availability", missing=[
            str(p) for p in e.missing
        ])
        run.write(args.out)
        raise CliError(EXIT_IO, str(e))
    _write_large_set_dir(run, args.out, ls)
    run.verdict(
        "large_set.ls", True,
        check=f"large set LS({ls.t},{ls.k},{ls.v}) N={ls.n}",
    )
    run.write(args.out)
    print(f"built LS_2[{ls.n}]({ls.t},{ls.k},{ls.v}), wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- table, plan


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_table(args) -> int:
    _emit(render_table(generate_table(args.vmax)), args.out)
    return EXIT_OK


def _cmd_plan(args) -> int:
    plan = plan_series(args.k, args.v)
    _emit(serialize_plan(plan), args.out)
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deterministic", action="store_true",
                   help="byte-identical reruns: manifests omit wall time")
    p.add_argument("--force", action="store_true",
                   help="write into a non-empty output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdesigns", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decode", help="materialize the shipped large set")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--design", type=int, choices=(1, 2, 3), default=None,
                   help="decode a single member design instead of all three")
    p.add_argument("--no-verify", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="verify design or large-set files")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="derived, residual, or dual of a large set")
    p.add_argument("--op", required=True, choices=sorted(TRANSFORMS))
    p.add_argument("--in", dest="input", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    _add_common(p)
    p.set_defaults(func=_cmd_transform)

    km = sub.add_parser("km", help="orbit incidence systems and searches")
    kmsub = km.add_subparsers(dest="km_command", required=True, parser_class=_Parser)

    p = kmsub.add_parser("build", help="build and export an orbit incidence system")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", required=True,
                   help="'builtin', 'trivial', or a generator file")
    p.add_argument("--out", required=True, metavar="PATH")
    _add_common(p)
    p.set_defaults(func=_cmd_km_build)

    p = kmsub.add_parser("solve", help="find one design with a given lambda")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=_cmd_km_solve)

    p = kmsub.add_parser("ls-search", help="iterated search for a large set")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--N", type=int, required=True, help="number of member designs")
    p.add_argument("--group", required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--retry-budget", type=int, default=DEFAULT_RETRY_BUDGET)
    p.add_argument("--seed-columns", default=None,
                   help="file of one column list per seeded round, or one inline list")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=_cmd_km_ls_search)

    p = sub.add_parser("construct", help="build a large set by recursion plan")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--registry", default=None,
                   help="directory of .ls files supplying the plan's leaves")
    p.add_argument("--builtin", action="store_true",
                   help="supply the shipped large set as a leaf")
    p.add_argument("--size-guard", type=int, default=10_000_000)
    p.add_argument("--force-size", action="store_true",
                   help="materialize past the size guard")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("table", help="print the realizability grid")
    p.add_argument("--vmax", type=int, required=True)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("plan", help="print the recursion tree for one target")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFIED_FAIL
    except (OSError, ValueError, LookupError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
