"""Command line interface.

Every run that writes artifacts also writes a ``manifest.json`` next to
them recording the subcommand, its parameters, SHA-256 digests of the
inputs it read and of the files it wrote, wall time, and the
verification verdicts.

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
    Design,
    LargeSet,
    VerificationError,
    _content_lines,
    _large_set_files,
    read_design,
    read_large_set,
    verify_design,
    verify_large_set,
    write_design,
    write_large_set,
)
from .groups import Group, close_group, read_generator_file, trivial_group
from .joins import DEFAULT_SIZE_GUARD, MissingLeafError, _postorder, execute_plan
from .kramer_mesner import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_RETRY_BUDGET,
    KMSystem,
    build_km,
    design_from_selection,
    iterated_large_set_search,
    solve_exact,
    write_km_system,
)
from .planner import (
    LSParams,
    PlanNode,
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
    """One run that writes artifacts under --out, and its manifest record.

    The constructor checks the output location: a directory output must
    be empty, and a file output may replace neither that file nor a
    manifest.json in its directory.  --force allows both.  path() makes the
    directory at the first write, so a run rejected before it leaves none.
    finish() ends every run: it writes the manifest and reports the outcome.
    """

    def __init__(self, args: argparse.Namespace, subcommand: str,
                 out_file: bool = False, **params):
        if out_file:
            self.dir = os.path.dirname(os.path.abspath(args.out))
            taken = [p for p in (args.out, os.path.join(self.dir, "manifest.json"))
                     if os.path.exists(p)]
            clash = taken and f"{taken[0]} exists"
        else:
            self.dir = args.out
            clash = os.path.isdir(self.dir) and os.listdir(self.dir) and (
                f"output directory {self.dir} is not empty")
        if clash and not args.force:
            raise CliError(EXIT_IO, f"{clash} (use --force)")
        self.record = {"subcommand": subcommand, "parameters": params, "inputs": {}, "outputs": {}, "verdicts": [],
                       "wall_time_s": None}
        self.deterministic = args.deterministic
        if self.deterministic:
            params["deterministic"] = True
        self.t0 = time.monotonic()

    def path(self, name: str) -> str:
        """Where to write name in the output directory, which this makes if it is missing."""
        os.makedirs(self.dir, exist_ok=True)
        return os.path.join(self.dir, name)

    def param(self, **kwargs) -> None:
        self.record["parameters"].update(kwargs)

    def input_file(self, path: str) -> None:
        self.record["inputs"][path] = _sha256(path)

    def input_large_set(self, path: str) -> None:
        for p in [path, *_large_set_files(path)[1]]:  # and each member design file read_large_set opens
            self.input_file(p)

    def input_digests(self, digests: dict[str, str]) -> None:
        self.record["inputs"].update(digests)

    def output(self, *names: str) -> None:
        """Record written files, named relative to the output directory, with their digests."""
        for name in names:
            self.record["outputs"][name] = _sha256(os.path.join(self.dir, name))

    def verdict(self, target: str, ok: bool, **details) -> None:
        self.record["verdicts"].append({"target": target, "ok": ok, **details})

    def design_verdict(self, target: str, d: Design) -> None:
        self.verdict(target, True, check=f"{d.t}-({d.v},{d.k},{d.lam}) design")

    def large_set_verdict(self, target: str, ls: LargeSet, **details) -> None:
        self.verdict(target, True, check=f"large set LS({ls.t},{ls.k},{ls.v}) N={ls.n}",
                     **details)

    def write_large_set_files(self, ls: LargeSet, name: str = "large_set.ls",
                              prefix: str = "") -> None:
        """name plus <prefix>design1.txt .. <prefix>designN.txt, all recorded as outputs."""
        rels = [f"{prefix}design{i + 1}.txt" for i in range(ls.n)]
        write_large_set(self.path(name), ls, rels)
        self.output(*rels, name)

    def finish(self, code: int, message: str) -> int:
        """Write the manifest and report the outcome; exit 4 goes out as a CliError."""
        if not self.deterministic:
            self.record["wall_time_s"] = round(time.monotonic() - self.t0, 3)
        with open(self.path("manifest.json"), "w", encoding="ascii") as fh:
            json.dump(self.record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if code == EXIT_IO:
            raise CliError(code, message)
        print(message)
        return code


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


def _km_run(args, subcommand: str, out_file: bool = False, **params) -> tuple[_Run, KMSystem]:
    """The run of a km subcommand and the system its --v --t --k --group name."""
    group, digests = _load_group(args.group, args.v)
    run = _Run(args, subcommand, out_file, v=args.v, t=args.t, k=args.k, group=args.group,
               **params)
    run.input_digests(digests)
    return run, build_km(args.v, args.t, args.k, group)


# ---------------------------------------------------------------- decode


def _cmd_decode(args) -> int:
    run = _Run(args, "decode", design=args.design, verify=not args.no_verify)
    run.input_digests(catalog.builtin_data_digests())

    if args.design is not None:
        d = catalog.builtin_design(args.design)
        rel = f"design{args.design}.txt"
        write_design(run.path(rel), d)
        run.output(rel)
        if not args.no_verify:
            verify_design(d)
            run.design_verdict(rel, d)
    else:
        ls = catalog.builtin_large_set()
        run.write_large_set_files(ls)
        if not args.no_verify:
            report = verify_large_set(ls)
            run.large_set_verdict("large_set.ls", ls, lam=report.lam,
                                  blocks_per_design=report.blocks_per_design)
    return run.finish(EXIT_OK, f"wrote {args.out}")


# ---------------------------------------------------------------- verify


def _artifact_kind(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:  # the first line read_large_set parses
        header = next(_content_lines(fh), "")
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
    run = _Run(args, "transform", True, op=args.op, input=args.input, out=args.out)
    run.input_large_set(args.input)
    out = TRANSFORMS[args.op](read_large_set(args.input), verify=True)
    rel = os.path.basename(args.out)
    # the member names write_large_set gives by default: <stem>_design<i>.txt
    run.write_large_set_files(out, rel, os.path.splitext(rel)[0] + "_")
    run.large_set_verdict(rel, out)
    return run.finish(EXIT_OK, f"wrote {args.out}")


# ---------------------------------------------------------------- km


def _cmd_km_build(args) -> int:
    run, system = _km_run(args, "km build", True)
    rel = os.path.basename(args.out)
    write_km_system(system, run.path(rel))
    run.output(rel, rel + ".treps", rel + ".kreps")
    run.param(group_order=system.group.order, rows=system.n_rows, cols=system.n_cols,
              lambda_max=system.lambda_max)
    run.verdict(rel, True, check="row sums equal lambda_max")
    return run.finish(EXIT_OK, f"wrote {args.out}: {system.n_rows} x {system.n_cols} system,"
                               f" lambda_max={system.lambda_max}")


def _cmd_km_solve(args) -> int:
    run, system = _km_run(args, "km solve", lam=args.lam, node_budget=args.node_budget)
    result = solve_exact(system, args.lam, node_budget=args.node_budget)
    run.param(nodes=result.nodes, status=result.status)
    if result.status != "solved":
        run.verdict("search", False, check="exact cover search", status=result.status)
        if result.status == "unknown":
            return run.finish(EXIT_UNKNOWN,
                              f"budget exhausted after {result.nodes} nodes; answer unknown")
        return run.finish(EXIT_VERIFIED_FAIL,
                          f"no design with lambda={args.lam} admits this group (proved)")
    design = design_from_selection(system, result.selection, args.lam, verify=True)
    write_design(run.path("design.txt"), design)
    with open(run.path("selection.txt"), "w", encoding="ascii") as fh:
        fh.write(" ".join(str(j) for j in sorted(result.selection.chosen)) + "\n")
    run.output("design.txt", "selection.txt")
    run.design_verdict("design.txt", design)
    return run.finish(EXIT_OK, f"solved: {len(design.blocks)} blocks, wrote {args.out}")


def _read_seed_columns(spec: str) -> list[frozenset[int]]:
    """A file of one selection per line, less blank lines and # comments, or one inline comma/space list."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="ascii") as fh:
            lines, bad = list(_content_lines(fh)), f"{spec}: bad seed column line"
    else:
        lines, bad = [spec], "--seed-columns: no such file and not a column list:"
    seeds = []
    for ln in lines:
        try:
            seeds.append(frozenset(map(int, ln.replace(",", " ").split())))
        except ValueError:
            raise CliError(EXIT_IO, f"{bad} {ln!r}") from None
    return seeds


def _cmd_km_ls_search(args) -> int:
    seeds = _read_seed_columns(args.seed_columns) if args.seed_columns else None
    run, system = _km_run(args, "km ls-search", N=args.N, node_budget=args.node_budget,
                          retry_budget=args.retry_budget)
    if seeds is not None:
        if os.path.exists(args.seed_columns):
            run.input_file(args.seed_columns)
        run.param(seed_rounds=len(seeds))
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
        if result.status == "exhausted":
            return run.finish(EXIT_VERIFIED_FAIL,
                              "search space exhausted: no such large set with this group (proved)")
        return run.finish(EXIT_UNKNOWN,
                          f"gave up after {result.nodes} nodes, {result.retries} retries")
    ls = result.large_set
    run.write_large_set_files(ls)
    # iterated_large_set_search has verified it
    run.large_set_verdict("large_set.ls", ls, lam=ls.designs[0].lam)
    return run.finish(EXIT_OK,
                      f"solved in {result.nodes} nodes: wrote {ls.n} designs to {args.out}")


# ---------------------------------------------------------------- construct


def _load_registry(plan: PlanNode, directory: Optional[str], use_builtin: bool, run: _Run) -> list[LargeSet]:
    registry = []
    if use_builtin:  # a shipped leaf is expanded only if one of the plan's leaf_table nodes reads it
        reads = {n.params for n in _postorder(plan, {}).values() if n.kind == "leaf_table"}
        shipped = {4: catalog.builtin_large_set, 3: catalog.builtin_singer_large_set}
        registry += [make() for k, make in shipped.items() if LSParams(2, 3, 2, k, 8) in reads]
        run.input_digests(catalog.builtin_data_digests())
    if directory:
        if not os.path.isdir(directory):
            raise CliError(EXIT_IO, f"registry is not a directory: {directory}")
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".ls"):
                continue
            path = os.path.join(directory, name)
            registry.append(read_large_set(path))
            run.input_large_set(path)
    return registry


def _cmd_construct(args) -> int:
    plan = plan_series(args.k, args.v)
    run = _Run(args, "construct", k=args.k, v=args.v, size_guard=args.size_guard)
    registry = _load_registry(plan, args.registry, args.builtin, run)
    write_plan_file(run.path("plan.txt"), plan)
    run.output("plan.txt")
    try:
        ls = execute_plan(plan, registry, size_guard=args.size_guard)
    except MissingLeafError as e:
        run.verdict("plan", False, check="leaf availability", missing=[
            str(p) for p in e.missing
        ])
        return run.finish(EXIT_IO, str(e))
    run.write_large_set_files(ls)
    run.large_set_verdict("large_set.ls", ls)
    return run.finish(EXIT_OK, f"built LS_2[{ls.n}]({ls.t},{ls.k},{ls.v}), wrote {args.out}")


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


def _add_outputs(p: argparse.ArgumentParser, out_help: str) -> None:
    p.add_argument("--out", required=True, metavar="PATH", help=out_help)
    p.add_argument("--deterministic", action="store_true",
                   help="byte-identical reruns: manifests omit wall time")
    p.add_argument("--force", action="store_true",
                   help="write into a non-empty output directory, or over an existing"
                        " output file and the manifest.json beside it")


def _add_km_system(p: argparse.ArgumentParser) -> None:
    for name in ("--v", "--t", "--k"):
        p.add_argument(name, type=int, required=True)
    p.add_argument("--group", required=True,
                   help="'builtin', 'trivial', or a generator file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdesigns", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decode", help="materialize the shipped large set")
    p.add_argument("--design", type=int, choices=(1, 2, 3), default=None,
                   help="decode a single member design instead of all three")
    p.add_argument("--no-verify", action="store_true")
    _add_outputs(p, "output directory")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("verify", help="verify design or large-set files")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="derived, residual, or dual of a large set")
    p.add_argument("--op", required=True, choices=sorted(TRANSFORMS))
    p.add_argument("--in", dest="input", required=True, metavar="PATH")
    _add_outputs(p, "large-set file; its member designs and manifest go beside it")
    p.set_defaults(func=_cmd_transform)

    km = sub.add_parser("km", help="orbit incidence systems and searches")
    kmsub = km.add_subparsers(dest="km_command", required=True, parser_class=_Parser)

    p = kmsub.add_parser("build", help="build and export an orbit incidence system")
    _add_km_system(p)
    _add_outputs(p, "system file; its sidecars and manifest go beside it")
    p.set_defaults(func=_cmd_km_build)

    p = kmsub.add_parser("solve", help="find one design with a given lambda")
    _add_km_system(p)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    _add_outputs(p, "output directory")
    p.set_defaults(func=_cmd_km_solve)

    p = kmsub.add_parser("ls-search", help="iterated search for a large set")
    _add_km_system(p)
    p.add_argument("--N", type=int, required=True, help="number of member designs")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--retry-budget", type=int, default=DEFAULT_RETRY_BUDGET)
    p.add_argument("--seed-columns", default=None,
                   help="file of one column list per seeded round, or one inline list")
    _add_outputs(p, "output directory")
    p.set_defaults(func=_cmd_km_ls_search)

    p = sub.add_parser("construct", help="build a large set by recursion plan")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--registry", default=None,
                   help="directory of .ls files supplying the plan's leaves")
    p.add_argument("--builtin", action="store_true",
                   help="supply the shipped LS_2[3](2,4,8) and LS_2[3](2,3,8), each as a leaf if the plan reads it")
    p.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD,
                   help="largest Grassmannian a plan node of any kind may hold")
    _add_outputs(p, "output directory")
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
