"""Command-line entry point with JSON reports and stable exit codes.

Exit codes: 0 success; 2 unreadable, malformed or undecodable input, or an
argument out of range (``InputError`` or ``OSError``); 3 guard or budget
exceeded; 4 method precondition failed; 5 no coloring exists (or the sampling
budget produced none); 6 internal error (a proven guarantee failed, or any
other exception, ``ValueError`` included).  Identical invocations print
byte-identical JSON once timing is suppressed with --no-timing; a randomized
command's seed is its --seed option, 0 when omitted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import choosability, degree_constrained, dense, density, orientation
from .core import (
    SIDE_B,
    Hypergraph,
    ListAssignment,
    find_bipartition,
    gen_complete,
    gen_fano,
    gen_k_regular_k_uniform,
    parse_hypergraph,
    serialize_hypergraph,
    validate,
    vertex_counts,
)
from .errors import (
    GuardExceededError,
    InputError,
    PreconditionError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_PRECONDITION = 4
EXIT_NO_COLORING = 5
EXIT_INTERNAL = 6

SCHEMA_VERSION = 1


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _read(path: str) -> tuple[str, bytes]:
    """The text and bytes of the input file ``path``, which must be UTF-8."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8"), raw
    except UnicodeDecodeError as exc:
        raise InputError(str(exc))


def _load_hypergraph(path: str, task: str = "") -> tuple[Hypergraph, bytes]:
    """The hypergraph in ``path`` and its bytes; a ``task`` needs at least one edge."""
    text, raw = _read(path)
    hg = parse_hypergraph(text)
    if task and not hg.edges:
        raise InputError(f"hypergraph has no edges; nothing to {task}")
    return hg, raw


def _seed(args) -> int:
    """The ``--seed`` option, which numpy's generators take only nonnegative."""
    if args.seed < 0:
        raise InputError("--seed must be a nonnegative integer")
    return args.seed


def _load_lists(path: str) -> ListAssignment:
    """The list assignment in ``path``; every fault in the file is an InputError.

    Besides malformed JSON, the parser's own ``ValueError`` (an integer too
    long to convert) and ``RecursionError`` (nesting too deep) are faults of
    the file, and so are the value faults that ``from_json`` raises as plain
    ``ValueError``.  Line ends are translated as a text-mode read would, so
    a JSON error position counts a CRLF as one character.
    """
    text = _read(path)[0].replace("\r\n", "\n").replace("\r", "\n")
    try:
        return ListAssignment.from_json(json.loads(text))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}")


def cmd_analyze(args) -> int:
    start = time.perf_counter()
    hg, raw = _load_hypergraph(args.path, "analyze")
    bounds = density.bounds(hg)
    report = {
        "schema_version": SCHEMA_VERSION,
        "digest": hashlib.sha256(raw).hexdigest(),
        "n": hg.n,
        "metrics": dataclasses.asdict(bounds.metrics),
        "two_colorable": bounds.two_colorable,
        "l_num": bounds.density.numerator,
        "l_den": bounds.density.denominator,
        "bound_sparse": bounds.sparse,
        "bound_degree": bounds.degree,
        "bound_gk": bounds.gk,
        "warnings": validate(hg),
    }
    if args.exact:
        # The input has an edge, so a 2-coloring found by bounds makes chi 2.
        report["chromatic_number"] = (
            2 if bounds.two_colorable else choosability.chromatic_number(hg)
        )
        report["choice_number"] = choosability.choice_number(hg, proven=bounds)
    if not args.no_timing:
        report["timing_seconds"] = round(time.perf_counter() - start, 6)
    _emit(report)
    return EXIT_OK


def cmd_orient(args) -> int:
    hg, _ = _load_hypergraph(args.path, "orient" if args.k is None else "")
    if args.k is not None:
        phi = orientation.hall_orientation(hg, args.k)
        _emit(
            {
                "k": args.k,
                "feasible": phi is not None,
                "head": None if phi is None else list(phi),
                "degrees": None if phi is None else vertex_counts(hg.n, phi),
            }
        )
        return EXIT_OK
    k_star, phi = orientation.min_orientation(hg)
    _emit({"k_star": k_star, "head": list(phi), "degrees": vertex_counts(hg.n, phi)})
    return EXIT_OK


def cmd_color(args) -> int:
    if args.selection and args.method != "gk":
        raise InputError(f"--selection applies to --method gk, not {args.method}")
    hg, _ = _load_hypergraph(args.path, "" if args.method == "exact" else "color")
    lists = _load_lists(args.lists)
    if args.method == "sparse":
        bip = find_bipartition(hg)
        if bip is None:
            raise PreconditionError("sparse method requires a 2-colorable hypergraph")
        color = orientation.list_color_sparse(hg, bip, lists)
    elif args.method == "gk":
        color, pairs = degree_constrained.list_color_gk(hg, lists)
        if args.selection:
            Path(args.selection).write_text(
                json.dumps([list(p) for p in pairs]) + "\n", "utf-8"
            )
    else:
        color = choosability.color_from_lists(hg, lists)
        if color is None:
            msg = "error: no proper coloring exists for the given lists"
            print(msg, file=sys.stderr)
            return EXIT_NO_COLORING
    doc = list(color)
    if args.output:
        Path(args.output).write_text(json.dumps(doc) + "\n", "utf-8")
    _emit(doc)
    return EXIT_OK


def cmd_choosability(args) -> int:
    hg, _ = _load_hypergraph(args.path)
    verdict = choosability.is_f_choosable(
        hg, [args.f] * hg.n, max_universe=args.max_universe
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
        value = choosability.choice_number(hg)
    _emit({"what": args.what, "value": value})
    return EXIT_OK


def cmd_coefficient(args) -> int:
    from .nullstellensatz import coefficient_count

    hg, _ = _load_hypergraph(args.path, "certify")
    bip = find_bipartition(hg)
    if bip is None:
        raise PreconditionError("coefficient requires a 2-colorable hypergraph")
    # min_orientation has checked that the max head degree equals k.
    k, phi = orientation.min_orientation(hg)
    coef = coefficient_count(hg, bip, phi)
    b_heads = sum(1 for h in phi if bip[h] == SIDE_B)
    _emit({"coef": coef, "sign": -1 if b_heads % 2 else 1, "choosable_bound": k + 1})
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
    hg, _ = _load_hypergraph(args.path, "color")
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
            "coloring": None if coloring is None else list(coloring),
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
            Path(args.bipartition).write_text(json.dumps(list(bip)) + "\n", "utf-8")
        return EXIT_OK
    if args.kind == "fano":
        _write_hgr(gen_fano(), args.output)
        return EXIT_OK
    hg = gen_k_regular_k_uniform(args.k, args.n, _seed(args))
    if hg is None:
        raise GuardExceededError("search budget exhausted without a valid instance")
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
    p.add_argument("--max-universe", type=int, default=choosability.MAX_UNIVERSE)
    p.set_defaults(func=cmd_choosability)

    p = sub.add_parser("exact", help="exact chromatic or choice number")
    p.add_argument("path")
    p.add_argument("--what", choices=("ch", "chi"), required=True)
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
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_dense_split_color)

    q = dense_sub.add_parser("lower-bound", help="mirrored-random-lists experiment")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--t", type=int, nargs="+", required=True)
    q.add_argument("--trials", type=int, default=10000)
    q.add_argument("--seed", type=int, default=0)
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
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--output", "-o")
    q.set_defaults(func=cmd_generate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call in this process shares, built on first use.

    Parsing leaves the parser unchanged and returns a fresh namespace, so one
    parser serves any number of calls.  Its defaults bind each subcommand to
    its ``cmd_*`` function when it is built.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # TheoremContradictionError, any other ValueError and anything
        # unforeseen: a defect in the program, never a property of the input.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())
