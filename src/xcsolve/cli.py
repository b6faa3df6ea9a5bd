"""Command-line driver: parse, compile, solve, print competition-format
output.

Standard output carries only ``s``/``v``/``c`` lines:

    s SATISFIABLE | s UNSATISFIABLE | s UNKNOWN
    v <v0> <v1> ... <vn-1>          one line per reported solution
    c <key> <value>                 statistics, with --stats

Diagnostics go to standard error. Exit codes: 0 for SATISFIABLE or
UNSATISFIABLE, 2 for UNKNOWN (resource budget exhausted), 1 for
usage/input/parse/compile errors, 3 when --verify catches a wrong solution.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass
from typing import List, Optional

from .compiler import compile_instance
from .errors import XcspError
from .model import file_document, parse_instance, resolve_references
from .search import VAL_HEURISTICS, VAR_HEURISTICS, BranchStrategy, Engine
from .verify import verify_solution

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2
EXIT_BAD_SOLUTION = 3


@dataclass
class RunConfig:
    path: str
    mode: str = "first"  # "first" | "all"
    limit: Optional[int] = None
    var_heuristic: str = "input"
    val_heuristic: str = "min"
    time_limit: Optional[float] = None
    node_limit: Optional[int] = None
    verify: bool = False
    stats: bool = False
    element_base: int = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcsolve",
        description="Solve an XCSP 2.1 instance with depth-first propagation search.",
    )
    parser.add_argument("path", help="XCSP 2.1 instance file")
    parser.add_argument("--all", action="store_true",
                        help="enumerate every solution instead of the first")
    parser.add_argument("--limit", type=int, metavar="N",
                        help="report at most N solutions (implies enumeration)")
    parser.add_argument("--var-heuristic", choices=VAR_HEURISTICS, default="input")
    parser.add_argument("--val-heuristic", choices=VAL_HEURISTICS, default="min")
    parser.add_argument("--time-limit", type=float, metavar="SECONDS",
                        help="give up with UNKNOWN after this much time")
    parser.add_argument("--node-limit", type=int, metavar="N",
                        help="give up with UNKNOWN after N search nodes")
    parser.add_argument("--verify", action="store_true",
                        help="re-check every reported solution against the "
                             "constraint definitions")
    parser.add_argument("--stats", action="store_true",
                        help="print c-prefixed statistics lines")
    parser.add_argument("--element-base", type=int, choices=(0, 1), default=1,
                        help="index base for the element constraint")
    return parser


def config_from_args(args) -> RunConfig:
    if args.limit is not None and args.limit <= 0:
        raise ValueError("--limit must be positive")
    if args.node_limit is not None and args.node_limit < 0:
        raise ValueError("--node-limit must be nonnegative")
    if args.time_limit is not None and not args.time_limit >= 0:  # nan too
        raise ValueError("--time-limit must be nonnegative")
    return RunConfig(
        path=args.path,
        mode="all" if (args.all or args.limit is not None) else "first",
        limit=args.limit,
        var_heuristic=args.var_heuristic,
        val_heuristic=args.val_heuristic,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        verify=args.verify,
        stats=args.stats,
        element_base=args.element_base,
    )


def run(config: RunConfig, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    started = time.monotonic()
    try:
        with open(config.path, "rb") as handle:
            model = parse_instance(file_document(handle))
        instance = resolve_references(model)
        problem = compile_instance(instance, element_base=config.element_base)
    except (OSError, XcspError) as e:
        print("error: %s" % e, file=err)
        return EXIT_ERROR

    for line in instance.diagnostics:
        print(line, file=err)

    strategy = BranchStrategy(config.var_heuristic, config.val_heuristic)
    engine = Engine(problem, strategy)
    result = engine.solve(
        limit=config.limit if config.mode == "all" else 1,
        node_limit=config.node_limit,
        time_limit=config.time_limit,
    )

    if config.verify:
        for values in result.solutions:
            if not verify_solution(instance, values,
                                   element_base=config.element_base):
                print("error: engine produced a non-solution: %s"
                      % " ".join(map(str, values)), file=err)
                return EXIT_BAD_SOLUTION

    if result.solutions:
        status, code = "SATISFIABLE", EXIT_OK
    elif result.complete:
        status, code = "UNSATISFIABLE", EXIT_OK
    else:
        status, code = "UNKNOWN", EXIT_UNKNOWN

    print("s %s" % status, file=out)
    for values in result.solutions:
        print("v %s" % " ".join(map(str, values)), file=out)
    if config.stats:
        elapsed = time.monotonic() - started
        for key, value in asdict(result.stats).items():
            print("c %s %d" % (key, value), file=out)
        print("c time %.3f" % elapsed, file=out)
    return code


def main(argv: Optional[List[str]] = None) -> None:
    parser = build_parser()
    try:
        try:
            config = config_from_args(parser.parse_args(argv))
        except ValueError as e:
            parser.error(str(e))
    except SystemExit as e:
        # argparse exits 2 on a usage error, and 2 is UNKNOWN's code; --help 0
        sys.exit(EXIT_ERROR if e.code else EXIT_OK)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
