"""Command-line entry point with JSON reports and stable exit codes.

Exit codes: 0 success; 2 unreadable or malformed input; 3 guard or budget
exceeded; 4 method precondition failed; 5 no coloring exists (or the sampling
budget produced none); 6 internal error (a proven guarantee failed, or any
other unexpected exception).  Identical invocations with identical seeds print
byte-identical JSON once timing is suppressed with --no-timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

from . import choosability, degree_constrained, dense, density, orientation
from .core import (
    Hypergraph,
    ListAssignment,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    is_proper,
    metrics,
    parse_hypergraph,
    serialize_hypergraph,
    validate,
)
from .errors import (
    GuardExceededError,
    HgrFormatError,
    PreconditionError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_PRECONDITION = 4
EXIT_NO_COLORING = 5
EXIT_INTERNAL = 6

SCHEMA_VERSION = 1


class _NoColoring(Exception):
    pass


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_hypergraph(path: str) -> tuple[Hypergraph, bytes]:
    raw = Path(path).read_bytes()
    return parse_hypergraph(raw.decode("utf-8")), raw


def _load_lists(path: str) -> ListAssignment:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise HgrFormatError(f"{path}: {exc}")
    try:
        return ListAssignment.from_json(doc)
    except ValueError as exc:
        raise HgrFormatError(f"{path}: {exc}")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("HYPERCHOOSE_SEED", "0"))


def cmd_analyze(args) -> int:
    start = time.perf_counter()
    hg, raw = _load_hypergraph(args.path)
    if not hg.edges:
        raise HgrFormatError("hypergraph has no edges; nothing to analyze")
    met = metrics(hg)
    lam = density.density_flow(hg) if args.flow else density.edge_density(hg)
    two_colorable = find_bipartition(hg) is not None
    report = {
        "schema_version": SCHEMA_VERSION,
        "digest": hashlib.sha256(raw).hexdigest(),
        "n": hg.n,
        "metrics": {
            "max_degree": met.max_degree,
            "min_edge_size": met.min_edge_size,
            "uniform": met.uniform,
            "edge_count": met.edge_count,
        },
        "two_colorable": two_colorable,
        "l_num": lam.numerator,
        "l_den": lam.denominator,
        "bound_sparse": ceil(lam) + 1,
        "bound_degree": ceil(Fraction(met.max_degree, met.min_edge_size)) + 1,
        "bound_gk": ceil(Fraction(2 * met.max_degree, met.min_edge_size)) + 1,
        "warnings": validate(hg),
    }
    if args.exact:
        report["chromatic_number"] = choosability.chromatic_number(hg)
        report["choice_number"] = choosability.choice_number(hg)
    if not args.no_timing:
        report["timing_seconds"] = round(time.perf_counter() - start, 6)
    _emit(report)
    return EXIT_OK


def cmd_orient(args) -> int:
    hg, _ = _load_hypergraph(args.path)
    if args.k is not None:
        phi = orientation.hall_orientation(hg, args.k)
        _emit(
            {
                "k": args.k,
                "feasible": phi is not None,
                "head": None if phi is None else list(phi.head),
                "degrees": None if phi is None else phi.degrees(hg.n),
            }
        )
        return EXIT_OK
    k_star, phi = orientation.min_orientation(hg)
    _emit({"k_star": k_star, "head": list(phi.head), "degrees": phi.degrees(hg.n)})
    return EXIT_OK


def cmd_color(args) -> int:
    hg, _ = _load_hypergraph(args.path)
    lists = _load_lists(args.lists)
    if args.method == "sparse":
        bip = find_bipartition(hg)
        if bip is None:
            raise PreconditionError("sparse method requires a 2-colorable hypergraph")
        coloring = orientation.list_color_sparse(hg, bip, lists)
    elif args.method == "gk":
        selection = degree_constrained.gk_selection(hg)
        coloring = degree_constrained.list_color_gk(hg, lists, selection)
        if args.selection:
            Path(args.selection).write_text(
                json.dumps([list(p) for p in selection.chosen]) + "\n", "utf-8"
            )
    else:
        maybe = choosability.color_from_lists(hg, lists)
        if maybe is None:
            raise _NoColoring("no proper coloring exists for the given lists")
        coloring = maybe
    assert is_proper(hg, coloring) and coloring.respects(lists)
    doc = list(coloring.color)
    if args.output:
        Path(args.output).write_text(json.dumps(doc) + "\n", "utf-8")
    _emit(doc)
    return EXIT_OK


def cmd_choosability(args) -> int:
    hg, _ = _load_hypergraph(args.path)
    verdict = choosability.is_f_choosable(
        hg,
        [args.f] * hg.n,
        max_vertices=args.max_vertices,
        max_universe=args.max_universe,
    )
    _emit(
        {
            "f": args.f,
            "choosable": verdict.choosable,
            "witness": None if verdict.witness is None else verdict.witness.to_json(),
            "lists_examined": verdict.lists_examined,
        }
    )
    return EXIT_OK


def cmd_exact(args) -> int:
    hg, _ = _load_hypergraph(args.path)
    if args.what == "chi":
        value = choosability.chromatic_number(hg)
    else:
        value = choosability.choice_number(hg, max_vertices=args.max_vertices)
    _emit({"what": args.what, "value": value})
    return EXIT_OK


def cmd_coefficient(args) -> int:
    from .nullstellensatz import coefficient_count

    hg, _ = _load_hypergraph(args.path)
    bip = find_bipartition(hg)
    if bip is None:
        raise PreconditionError("coefficient requires a 2-colorable hypergraph")
    _, phi = orientation.min_orientation(hg)
    coef = coefficient_count(hg, bip, phi)
    b_heads = sum(1 for h in phi.head if bip.side[h] == "B")
    _emit(
        {
            "coef": coef,
            "sign": -1 if b_heads % 2 else 1,
            "choosable_bound": phi.max_degree(hg.n) + 1,
        }
    )
    return EXIT_OK


def cmd_dense_thresholds(args) -> int:
    _emit(
        {
            "s": args.s,
            "l": args.l,
            "t": args.t,
            "ert_upper": dense.cond_ert_upper(args.s, args.l, args.t),
            "corollary": dense.cond_corollary(args.s, args.l, args.t),
            "split_p": dense.split_probability(args.s, args.l),
            "feasibility_margin": dense.feasibility_margin(args.s, args.l, args.t),
        }
    )
    return EXIT_OK


def cmd_dense_split_color(args) -> int:
    hg, _ = _load_hypergraph(args.path)
    lists = _load_lists(args.lists)
    bip = find_bipartition(hg)
    if bip is None:
        raise PreconditionError("split coloring requires a 2-colorable hypergraph")
    coloring, report = dense.random_split_color_report(
        hg, bip, lists, args.max_iters, _seed(args)
    )
    _emit(
        {
            "success": coloring is not None,
            "coloring": None if coloring is None else list(coloring.color),
            "report": report.to_json(),
        }
    )
    return EXIT_OK if coloring is not None else EXIT_NO_COLORING


def cmd_dense_lower_bound(args) -> int:
    seed = _seed(args)
    reports = [
        (t, dense.lower_bound_experiment(args.s, args.l, t, args.trials, seed))
        for t in args.t
    ]
    if args.csv:
        lines = ["s,l,t,trials,witness_fraction,seed"]
        lines.extend(
            f"{args.s},{args.l},{t},{rep.trials},{rep.witness_fraction},{rep.seed}"
            for t, rep in reports
        )
        print("\n".join(lines))
    elif len(reports) == 1:
        _emit(reports[0][1].to_json())
    else:
        _emit([dict(rep.to_json(), t=t) for t, rep in reports])
    return EXIT_OK


def _write_hgr(hg: Hypergraph, output: str | None) -> None:
    text = serialize_hypergraph(hg)
    if output:
        Path(output).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    if args.kind == "complete":
        hg, bip = gen_complete(args.s, args.n, args.m)
        _write_hgr(hg, args.output)
        if args.bipartition:
            Path(args.bipartition).write_text(json.dumps(list(bip.side)) + "\n", "utf-8")
        return EXIT_OK
    if args.kind == "fano":
        _write_hgr(gen_fano(), args.output)
        return EXIT_OK
    hg = gen_k_regular_k_uniform(args.k, args.n, _seed(args), proposals=args.proposals)
    if hg is None:
        print("search budget exhausted without a valid instance", file=sys.stderr)
        return EXIT_GUARD
    _write_hgr(hg, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperchoose",
        description="List-coloring toolkit for 2-colorable hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="density, bounds, and optional exact numbers")
    p.add_argument("path")
    p.add_argument("--exact", action="store_true", help="also compute ch and chi")
    p.add_argument("--flow", action="store_true", help="force the min-cut density route")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("orient", help="minimal or capped orientation")
    p.add_argument("path")
    p.add_argument("--k", type=int, help="test a fixed degree cap instead of minimizing")
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("color", help="proper list coloring via a chosen method")
    p.add_argument("path")
    p.add_argument("lists")
    p.add_argument("--method", choices=("sparse", "gk", "exact"), required=True)
    p.add_argument("--output", "-o")
    p.add_argument(
        "--selection", help="with --method gk: also write the [v,u] incidence pairs"
    )
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("choosability", help="exact uniform choosability verdict")
    p.add_argument("path")
    p.add_argument("--f", type=int, required=True, help="uniform list length")
    p.add_argument("--max-vertices", type=int, default=choosability.MAX_VERTICES)
    p.add_argument("--max-universe", type=int, default=choosability.MAX_UNIVERSE)
    p.set_defaults(func=cmd_choosability)

    p = sub.add_parser("exact", help="exact chromatic or choice number")
    p.add_argument("path")
    p.add_argument("--what", choices=("ch", "chi"), required=True)
    p.add_argument("--max-vertices", type=int, default=choosability.MAX_VERTICES)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("coefficient", help="orientation coefficient certificate")
    p.add_argument("path")
    p.set_defaults(func=cmd_coefficient)

    p = sub.add_parser("dense", help="dense-regime predicates and experiments")
    dense_sub = p.add_subparsers(dest="dense_command", required=True)

    q = dense_sub.add_parser("thresholds", help="closed-form threshold predicates")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--t", type=int, required=True)
    q.set_defaults(func=cmd_dense_thresholds)

    q = dense_sub.add_parser("split-color", help="Las-Vegas palette-split coloring")
    q.add_argument("path")
    q.add_argument("lists")
    q.add_argument("--max-iters", type=int, default=1000)
    q.add_argument("--seed", type=int)
    q.set_defaults(func=cmd_dense_split_color)

    q = dense_sub.add_parser("lower-bound", help="mirrored-random-lists experiment")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--t", type=int, nargs="+", required=True)
    q.add_argument("--trials", type=int, default=10000)
    q.add_argument("--seed", type=int)
    q.add_argument("--csv", action="store_true", help="one CSV row per t value")
    q.set_defaults(func=cmd_dense_lower_bound)

    p = sub.add_parser("generate", help="instance generators")
    gen_sub = p.add_subparsers(dest="kind", required=True)

    q = gen_sub.add_parser("complete", help="complete 2-colorable uniform hypergraph")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--output", "-o")
    q.add_argument("--bipartition", help="also write the defining sides as JSON")
    q.set_defaults(func=cmd_generate)

    q = gen_sub.add_parser("fano", help="the 7-point projective plane")
    q.add_argument("--output", "-o")
    q.set_defaults(func=cmd_generate)

    q = gen_sub.add_parser("regular", help="random k-uniform k-regular instance")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int)
    q.add_argument("--proposals", type=int, default=100_000)
    q.add_argument("--output", "-o")
    q.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HgrFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _NoColoring as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_COLORING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # TheoremContradictionError and anything unforeseen: a defect in the
        # program, never a property of the input.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())
