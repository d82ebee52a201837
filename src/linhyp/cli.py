"""Command-line workbench.

Exit codes: 0 success, 1 malformed input (graph file, rule, signature,
lattice, edge order, negative step budget), failed axiom check or internal
error, 2 parse error, 3 type error, 4 budget exhausted.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .circuits import (UNPRODUCTIVE, LatticeError, evaluate,
                       parse_circuit_signature)
from .extract import extract_term
from .graphs import find_isomorphism, validate
from .interp import equal_mod_stmc, interpret
from .laws import axiom_schemes, law_signature
from .rewrite import (NormalizeResult, RewriteError, normal_forms, normalize,
                      parse_rules)
from .serialize import load_graph, save_graph, to_dot
from .terms import (ParseError, Signature, SignatureError, TypeMismatch,
                    parse_signature, parse_term, render_term)

EXIT_OK, EXIT_PARSE, EXIT_TYPE, EXIT_BUDGET = 0, 2, 3, 4


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_sig(path: str | None) -> Signature:
    if path is None:
        raise ParseError("a --sig file is required", 0)
    return parse_signature(_read(path))


def cmd_interpret(args) -> int:
    sig = _load_sig(args.sig)
    term = parse_term(_read(args.term_file).strip(), sig)
    H = interpret(term, sig)
    report = validate(H, sig)
    if report:
        print("internal error: interpretation failed validation", file=sys.stderr)
        for line in report:
            print("  " + line, file=sys.stderr)
        return 1
    sys.stdout.write(save_graph(H, canonicalize=not args.raw_ids))
    if args.dot:
        Path(args.dot).write_text(to_dot(H))
    return EXIT_OK


def cmd_extract(args) -> int:
    H = load_graph(_read(args.graph_file))
    order = None
    if args.order:
        order = tuple(_edge_id(x, H) for x in args.order.split(","))
    term = extract_term(H, order)
    print(render_term(term))
    return EXIT_OK


def _edge_id(entry: str, H) -> int:
    """One ``--order`` entry as an edge of H."""
    try:
        e = int(entry)
    except ValueError:
        raise ValueError(f"--order: {entry!r} is not an edge id") from None
    if e not in H.labels:
        raise ValueError(f"--order: {entry!r} is not an edge of the graph")
    return e


def cmd_iso(args) -> int:
    A = load_graph(_read(args.graph_a))
    B = load_graph(_read(args.graph_b))
    witness = find_isomorphism(A, B)
    if witness is None:
        print("not isomorphic")
    else:
        print(json.dumps({
            "targets": {str(k): v for k, v in witness.vmap_t.items()},
            "sources": {str(k): v for k, v in witness.vmap_s.items()},
            "edges": {str(k): v for k, v in witness.emap.items()},
        }, indent=2))
    return EXIT_OK


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ValueError(f"--steps must be 0 or more, not {steps}")


def cmd_rewrite(args) -> int:
    _check_steps(args.steps)
    H = load_graph(_read(args.graph_file))
    sig = _load_sig(args.sig)
    rules = parse_rules(_read(args.rules), sig)
    if args.strategy == "exhaustive":
        nfs, exhausted = normal_forms(H, rules, max_steps=args.steps)
        result = NormalizeResult(nfs[0] if nfs else H, [], exhausted)
    else:
        result = normalize(H, rules, max_steps=args.steps)
    for step in result.steps:
        print(step, file=sys.stderr)
    if result.exhausted:
        print(f"step budget ({args.steps}) exhausted", file=sys.stderr)
    sys.stdout.write(save_graph(result.graph, canonicalize=not args.raw_ids))
    if args.dot:
        Path(args.dot).write_text(to_dot(result.graph))
    return EXIT_BUDGET if result.exhausted else EXIT_OK


def cmd_evaluate(args) -> int:
    _check_steps(args.steps)
    csig = parse_circuit_signature(_read(args.lattice))
    sig = csig.signature()
    term = parse_term(_read(args.term_file).strip(), sig)
    inputs = tuple(v for v in args.inputs.split(",") if v) if args.inputs else ()
    out = evaluate(term, inputs, csig, max_steps=args.steps)
    if out is UNPRODUCTIVE:
        print("UNPRODUCTIVE")
        return EXIT_BUDGET
    print(",".join(out))
    return EXIT_OK


def cmd_axioms_check(args) -> int:
    rng = random.Random(args.seed)
    sig = law_signature()
    names: dict[str, list[bool]] = {}
    for _ in range(args.count):
        for name, lhs, rhs in axiom_schemes(rng, sig):
            names.setdefault(name, []).append(equal_mod_stmc(lhs, rhs, sig))
    bad = False
    for name, results in names.items():
        ok = all(results)
        bad = bad or not ok
        print(f"{name:20s} {'PASS' if ok else 'FAIL'} ({len(results)} instances)")
    return 1 if bad else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="linhyp",
        description="Interpret, extract, compare and rewrite wire graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interpret", help="term file -> graph JSON")
    p.add_argument("term_file")
    p.add_argument("--sig", required=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--raw-ids", action="store_true",
                   help="skip canonical renumbering")
    p.set_defaults(fn=cmd_interpret)

    p = sub.add_parser("extract", help="graph JSON -> term text")
    p.add_argument("graph_file")
    p.add_argument("--order", help="comma-separated edge ids")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("iso", help="isomorphism witness between two graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("rewrite", help="normalize a graph under a rule file")
    p.add_argument("graph_file")
    p.add_argument("--rules", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--strategy", choices=["deterministic", "exhaustive"],
                   default="deterministic")
    p.add_argument("--dot")
    p.add_argument("--raw-ids", action="store_true")
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("evaluate", help="run a circuit on input values")
    p.add_argument("term_file")
    p.add_argument("--lattice", required=True)
    p.add_argument("--inputs", default="")
    p.add_argument("--steps", type=int, default=10000)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("axioms-check",
                       help="run the randomized axiom suite and print a table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25)
    p.set_defaults(fn=cmd_axioms_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TypeMismatch as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except (RewriteError, SignatureError, LatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
