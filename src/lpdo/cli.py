"""Command-line interface.

Subcommands: factor, compose, transpose, verify, charpoly.  Operators are
given as arguments in the grammar of lpdo.parser (or on standard input
when the argument is '-' or omitted).  Exit codes for `factor`:

    0  factored            2  conditions fail (residuals printed)
    3  degenerate          4  unsupported root
    1  usage or parse error
"""

from __future__ import annotations

import argparse
import functools
import sys

from .charpoly import char_poly, find_roots
from .factorize import (
    OutcomeStatus,
    _preferred,
    _walk,
    factor_fully,
    factor_right,
    verify,
)
from .operator import FirstOrderFactor, LPDO
from .parser import ParseError, parse, parse_function
from .printer import charpoly_report, operator_text, outcome_str, outcomes_str, tree_str

_EXIT_BY_STATUS = {
    OutcomeStatus.FACTORED: 0,
    OutcomeStatus.CONDITIONS_FAIL: 2,
    OutcomeStatus.DEGENERATE: 3,
    OutcomeStatus.UNSUPPORTED_ROOT: 4,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", default="",
                   help="comma-separated parameter names")
    p.add_argument("--format", choices=("plain", "latex", "structured"),
                   default="plain")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: parsing
    keeps no state in it."""
    top = argparse.ArgumentParser(
        prog="lpdo",
        description="first-order factorization of linear PDE operators "
                    "in two variables")
    sub = top.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factor", help="find a first-order factor")
    f.add_argument("operator", nargs="?", default="-")
    f.add_argument("--side", choices=("left", "right"), default="left")
    f.add_argument("--root", default=None,
                   help="root index or an explicit root expression")
    f.add_argument("--p3", default=None,
                   help="candidate zero-order part for the degenerate path")
    f.add_argument("--recursive", action="store_true",
                   help="factor the cofactor recursively")
    _add_common(f)

    c = sub.add_parser("compose", help="compose operators left to right")
    c.add_argument("operators", nargs="+")
    _add_common(c)

    t = sub.add_parser("transpose", help="formal transpose")
    t.add_argument("operator", nargs="?", default="-")
    _add_common(t)

    v = sub.add_parser("verify", help="check factor * cofactor == operator")
    v.add_argument("factor")
    v.add_argument("cofactor")
    v.add_argument("operator")
    v.add_argument("--side", choices=("left", "right"), default="left")
    _add_common(v)

    p = sub.add_parser("charpoly", help="characteristic polynomial and roots")
    p.add_argument("operator", nargs="?", default="-")
    _add_common(p)

    return top


def _read_operator(text: str, params: set[str]) -> LPDO:
    if text == "-":
        text = sys.stdin.read()
    return parse(text, params)


def _params(args) -> set[str]:
    return {p.strip() for p in args.params.split(",") if p.strip()}


def _cmd_factor(args) -> int:
    if args.recursive:  # a tree of left factors over every root, as plain or latex text
        for flag, given in (("--side right", args.side == "right"),
                            ("--root", args.root is not None), ("--p3", args.p3 is not None),
                            ("--format structured", args.format == "structured")):
            if given:
                raise ValueError(f"--recursive cannot be combined with {flag}")
    params = _params(args)
    op = _read_operator(args.operator, params)
    root_choice = None
    if args.root is not None:
        if args.root.isdigit():
            root_choice = int(args.root)
        else:
            root_choice = parse_function(args.root, params)
    p3 = parse_function(args.p3, params) if args.p3 is not None else None

    if args.recursive:
        tree = factor_fully(op)
        print(tree_str(tree, args.format))
        statuses = [outcome.status for outcome, _ in tree.branches]
        best = min(statuses, key=lambda s: _EXIT_BY_STATUS[s],
                   default=OutcomeStatus.UNSUPPORTED_ROOT)
        return _EXIT_BY_STATUS[best]

    if args.side == "right":
        outcomes = [factor_right(op, root_choice=root_choice, p3=p3)]
    else:
        outcomes = list(_walk(op, root_choice, p3))
    best = _preferred(outcomes)
    if root_choice is None and args.side == "left" and best.status not in (
            OutcomeStatus.FACTORED, OutcomeStatus.UNSUPPORTED_ROOT):
        # nothing factored outright: report every root branch walked
        print(outcomes_str(outcomes, args.format))
    else:
        print(outcome_str(best, args.format))
    return _EXIT_BY_STATUS[best.status]


def _cmd_compose(args) -> int:
    params = _params(args)
    ops = [_read_operator(t, params) for t in args.operators]
    out = ops[0]
    for nxt in ops[1:]:
        out = out.compose(nxt)
    print(operator_text(out, args.format))
    return 0


def _cmd_transpose(args) -> int:
    params = _params(args)
    op = _read_operator(args.operator, params)
    print(operator_text(op.transpose(), args.format))
    return 0


def _cmd_verify(args) -> int:
    params = _params(args)
    f_op = _read_operator(args.factor, params)
    cof = _read_operator(args.cofactor, params)
    op = _read_operator(args.operator, params)
    factor = FirstOrderFactor.from_operator(f_op)
    diff = verify(factor, cof, op, side=args.side)
    if diff.is_zero():
        print("ok: product equals the operator")
        return 0
    print("mismatch:")
    print(operator_text(diff, args.format))
    return 2


def _cmd_charpoly(args) -> int:
    params = _params(args)
    op = _read_operator(args.operator, params)
    p = char_poly(op)
    print(charpoly_report(p, find_roots(p), args.format))
    return 0


_COMMANDS = {
    "factor": _cmd_factor,
    "compose": _cmd_compose,
    "transpose": _cmd_transpose,
    "verify": _cmd_verify,
    "charpoly": _cmd_charpoly,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
