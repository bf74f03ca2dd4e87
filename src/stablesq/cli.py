"""Command line interface.

Subcommands: table, m, m0, enumerate, square, hilbert, gram, check,
conjecture.  Range flags accept a single value (--k 2) or an inclusive
range (--k 1..9).  Exit codes: 0 success, 1 verification failure,
budget exceeded or output pipe closed early, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import chain, product
from math import prod

from . import errors
from .errors import BudgetExceededError, InvalidInputError
from .monomial import monomial_to_text
from .qlinalg import (
    RationalSubspace,
    hilbert_function_rational,
    rational_subspace_from_json,
    square_rational,
)
from .search import compute_m, compute_m0_monomial, verify_table
from .stable import enumerate_strongly_stable
from .subspace import (
    ideal_hilbert_function,
    square,
    subspace_from_json,
    subspace_from_text,
)
from .gram import nonsingular_face_bound, singular_face_dim
from .suites import SUITES, SuiteOptions, conjecture_scan, run_suites


def _parse_range(text: str) -> range:
    """The values of a flag, never listed here: `main` counts the grid
    they make before any command reads them."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            a, b = int(lo), int(hi)
            if b < a:
                raise ValueError
            return range(a, b + 1)
        a = int(text)
        return range(a, a + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a..b range, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stablesq",
        description="Exact computations with squares of subspaces of forms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, *, budget=True, fmt=True):
        for name in ("n", "d", "k"):
            p.add_argument(f"--{name}", type=_parse_range, required=True)
        if budget:
            p.add_argument("--budget", type=_positive_int, default=None, help=(
                "bound on the subspaces each search visits; it bounds only the searches "
                "the command runs (table searches cells with k < dim, gram n < k), "
                "and the number of cells"))
        if fmt:
            p.add_argument(
                "--format", choices=("text", "csv", "json"), default="text"
            )

    p = sub.add_parser("table", help="recompute a grid of m(n, d, k) values")
    add_common(p)
    p.add_argument("--diff-paper", action="store_true",
                   help="compare against the bundled reference table")
    p.add_argument("--threads", type=_positive_int, default=1)

    p = sub.add_parser("m", help="max codim U^2 over strongly stable subspaces")
    add_common(p)
    p.add_argument("--witnesses", action="store_true")

    p = sub.add_parser("m0", help="max codim U^2 over base point free monomial subspaces")
    add_common(p)
    p.add_argument("--witnesses", action="store_true")

    p = sub.add_parser("enumerate", help="list strongly stable subspaces")
    add_common(p)

    p = sub.add_parser("square", help="square a subspace read from a file")
    p.add_argument("file")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("hilbert", help="Hilbert function of the quotient by a subspace")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("gram", help="Gram spectrahedron face dimension bounds")
    add_common(p)

    p = sub.add_parser("check", help="run named verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help=f"one of: {', '.join(sorted(SUITES))} (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=50)

    p = sub.add_parser("conjecture", help="scan restrictions of power-free spans")
    add_common(p, budget=False, fmt=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=4)

    return top


# ---------------------------------------------------------------------------
# output


def _emit(fmt: str, payload, header, rows, text) -> None:
    """Print a command's records as JSON (`payload`), CSV (`header`, then
    `rows`) or text (the lines of `text`).  Only the chosen one is read, so
    the others may be unrun generators; one in `payload` prints as a list."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=list))
    elif fmt == "csv":
        out = csv.writer(sys.stdout)
        out.writerow(header)
        out.writerows(rows)
    else:
        for line in text:
            print(line)


# ---------------------------------------------------------------------------
# table


def _cmd_table(args) -> int:
    run = partial(verify_table, args.n, args.d, args.k, args.budget, args.diff_paper)
    # a fork-based pool starts all its workers at the first map, so it
    # gets no more of them than there are cells or cores
    cells = len(args.n) * len(args.d) * len(args.k)
    workers = min(args.threads, cells, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            report = run(map=partial(pool.map, chunksize=4))
    else:
        report = run()
    cells, published, mismatches = report.cells, report.published, report.mismatches
    grid = sorted(cells.items())

    payload = {"cells": [{"n": n, "d": d, "k": k, "value": v} for (n, d, k), v in grid]}
    header = ["n", "d", "k", "value"]
    if args.diff_paper:
        payload["compared"] = report.compared
        payload["mismatches"] = [
            {"n": n, "d": d, "k": k, "value": v, "published": e}
            for (n, d, k), v, e in mismatches
        ]
        header += ["published", "match"]
    # csv writes None as an empty field
    rows = (
        [*c, v, published[c], v == published[c]] if c in published
        else [*c, v, "", ""] if args.diff_paper
        else [*c, v]
        for c, v in grid
    )

    def text():
        flagged = {cell for cell, _, _ in mismatches}
        for n in args.n:
            yield f"m(n={n}, d, k), rows d = {args.d[0]}..{args.d[-1]}:"
            yield "      " + "".join(f"k={k:<5}" for k in args.k)
            for d in args.d:
                row = []
                for k in args.k:
                    v = cells[(n, d, k)]
                    mark = "*" if (n, d, k) in flagged else ""
                    row.append("-" if v is None else f"{v}{mark}")
                yield f"d={d:<4}" + "".join(f"{c:<7}" for c in row)
            yield ""
        if mismatches:
            yield f"{len(mismatches)} of {report.compared} compared cells disagree:"
            for (n, d, k), v, e in mismatches:
                yield f"  (n={n}, d={d}, k={k}): computed {v}, reference {e}"
        elif report.clean:
            yield f"all {report.compared} compared cells match the reference table"
        elif args.diff_paper:
            yield "no cell of the grid is in the reference table"

    _emit(args.format, payload, header, rows, text())
    return 0 if report.clean or not args.diff_paper else 1


# ---------------------------------------------------------------------------
# m / m0


def _cmd_maximize(args, compute) -> int:
    if args.witnesses and args.format == "csv":
        raise InvalidInputError("--witnesses is not available with --format csv")
    records = [
        compute(n, d, k, budget=args.budget)
        for n, d, k in product(args.n, args.d, args.k)
    ]
    header = ["n", "d", "k", "value", "witness_count", "family"]
    rows = [[r.n, r.d, r.k, r.value, r.witness_count, r.restricted_to] for r in records]
    payload = [dict(zip(header, row)) for row in rows]
    if args.witnesses:
        for item, r in zip(payload, records):
            item["witnesses"] = [
                list(map(monomial_to_text, w.sorted_complement())) for w in r.witnesses
            ]

    def text():
        for r in records:
            yield (
                f"max codim U^2 = {r.value} at n={r.n}, d={r.d}, k={r.k} "
                f"({r.witness_count} maximizer(s), family {r.restricted_to})"
            )
            for w in r.witnesses if args.witnesses else ():
                comp = ", ".join(map(monomial_to_text, w.sorted_complement()))
                yield f"  complement {{{comp}}}"

    _emit(args.format, payload, header, rows, text())
    return 0


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args) -> int:
    records = [
        U
        for n, d, k in product(args.n, args.d, args.k)
        for U in enumerate_strongly_stable(n, d, k, budget=args.budget)
    ]
    names = lambda U: map(monomial_to_text, U.sorted_complement())
    payload = ({"n": U.n, "d": U.d, "complement": U.sorted_complement()} for U in records)
    rows = ([U.n, U.d, U.codim, " ".join(names(U))] for U in records)
    text = (f"n={U.n} d={U.d} k={U.codim}: {{{', '.join(names(U))}}}" for U in records)
    _emit(args.format, payload, ["n", "d", "k", "complement"], rows,
          chain(text, [f"{len(records)} subspaces"]))
    return 0


# ---------------------------------------------------------------------------
# square / hilbert (file input, monomial or rational)


def _load_subspace(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: invalid JSON: {exc}") from exc
        if "rows" in data:
            return rational_subspace_from_json(data)
        if "complement" in data:
            return subspace_from_json(data)
        raise InvalidInputError(
            f"{path}: JSON subspace needs a 'rows' or 'complement' field"
        )
    return subspace_from_text(text)


def _cmd_square(args) -> int:
    U = _load_subspace(args.file)
    rational = isinstance(U, RationalSubspace)
    if rational and args.budget is not None:
        raise InvalidInputError("--budget applies to monomial subspaces only")
    sq = square_rational(U) if rational else square(U, budget=args.budget)
    kind = "rational" if rational else "monomial"
    record = {"kind": kind, "n": sq.n, "d": sq.d, "dim": sq.dim, "codim": sq.codim}
    text = [f"U^2 in degree {sq.d}: dim = {sq.dim}, codim = {sq.codim}"]
    if not rational:
        missing = list(map(monomial_to_text, sq.sorted_complement()))
        record["complement"] = missing
        if missing:
            text.append("missing monomials: " + ", ".join(missing))
    _emit(args.format, record, ["n", "degree", "dim", "codim"],
          [[sq.n, sq.d, sq.dim, sq.codim]], text)
    return 0


def _cmd_hilbert(args) -> int:
    U = _load_subspace(args.file)
    top = args.max_degree if args.max_degree is not None else 2 * U.d + 1
    rational = isinstance(U, RationalSubspace)
    hf = (hilbert_function_rational if rational else ideal_hilbert_function)(U, top)
    values = list(hf.values)
    payload = {"values": values, "generated_in_degree": hf.generated_in_degree}
    text = ["h = (" + ", ".join(map(str, values)) + ")"]
    _emit(args.format, payload, ["degree", "value"], enumerate(values), text)
    return 0


# ---------------------------------------------------------------------------
# gram


def _cmd_gram(args) -> int:
    header = ["n", "d", "k", "nonsingular_bound", "singular_dim", "gap"]
    rows = []
    for n, d, k in product(args.n, args.d, args.k):
        a = nonsingular_face_bound(n, d, k)
        b = singular_face_dim(n, d, k, budget=args.budget)
        rows.append((n, d, k, a, b, b - a))
    text = [f"{n:<5}{d:<5}{k:<5}{a:<16}{b:<12}{g}" for n, d, k, a, b, g in rows]
    _emit(args.format, [dict(zip(header, row)) for row in rows], header, rows,
          ["n    d    k    nonsingular<=   singular=   gap", *text])
    return 0


# ---------------------------------------------------------------------------
# check / conjecture


def _print_results(results) -> int:
    failed = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_check(args) -> int:
    if args.suite is None:
        names = list(SUITES)
    else:
        names = [s.strip() for item in args.suite for s in item.split(",") if s.strip()]
    opts = SuiteOptions(seed=args.seed, trials=args.trials)
    return _print_results(run_suites(names, opts))


def _cmd_conjecture(args) -> int:
    return _print_results(
        conjecture_scan(args.n, args.d, args.k, trials=args.trials, seed=args.seed)
    )


# ---------------------------------------------------------------------------


_COMMANDS = {
    "table": _cmd_table,
    "m": partial(_cmd_maximize, compute=compute_m),
    "m0": partial(_cmd_maximize, compute=compute_m0_monomial),
    "enumerate": _cmd_enumerate,
    "square": _cmd_square,
    "hilbert": _cmd_hilbert,
    "gram": _cmd_gram,
    "check": _cmd_check,
    "conjecture": _cmd_conjecture,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "k" in args:  # a grid: the budget bounds each cell, and a cell is a unit of work
            cells = prod(r.stop - r.start for r in (args.n, args.d, args.k))
            errors.check_size(cells, "cells in the grid", getattr(args, "budget", None), seen=cells)
        code = _COMMANDS[args.command](args)
        # a closed pipe shows up here at the latest, not in the flush at exit
        sys.stdout.flush()
        return code
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone; send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
