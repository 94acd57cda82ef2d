"""Command-line front end.

Subcommands:

    build         construct a polytope or complex, emit canonical JSON
    betti         graded cohomology of the moment-angle manifold
    verify        compare computed vs predicted cut cohomology
    verify-corpus run the whole verification family, print a summary
    isotopy-check endpoint identities and injectivity probes

Polytope expressions are little prefix terms:

    simplex N | polygon M | cube [N] | product EXPR EXPR
    | cut-vertex EXPR V | path/to/file.json

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 resource
limit exceeded.  Output is deterministic: identical invocations give
byte-identical output regardless of --workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .isotopy import endpoint_checks, injectivity_probe, isotopy_map, standard_map
from .moment_angle import (
    DEFAULT_MAX_VERTICES,
    SubsetLimitError,
    betti,
    moment_angle_cohomology,
)
from .polytopes import SimplePolytope, cube, polygon, product, simplex_polytope
from .simplicial import SimplicialComplex
from .surgery import theorem_corpus, verify_all_cuts, verify_cut_theorem

WORKERS_ENV_VAR = "MOMENTANGLE_WORKERS"


class UsageError(ValueError):
    pass


# -- expression parsing ----------------------------------------------------


def _tokenize(parts: Sequence[str]) -> list[str]:
    text = " ".join(parts).replace("(", " ( ").replace(")", " ) ")
    return text.split()


def _parse_int(tokens: list[str], what: str) -> int:
    if not tokens:
        raise UsageError(f"missing {what}")
    tok = tokens.pop(0)
    try:
        return int(tok)
    except ValueError:
        raise UsageError(f"expected an integer {what}, got {tok!r}") from None


def _looks_like_path(token: str) -> bool:
    return token.endswith(".json") or "/" in token or os.path.exists(token)


def _load_object(path: str) -> SimplePolytope | SimplicialComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if isinstance(data, dict) and "vertex_facets" in data:
        return SimplePolytope.from_json_dict(data)
    if isinstance(data, dict) and "maximal_faces" in data:
        return SimplicialComplex.from_json_dict(data)
    raise UsageError(
        f"{path}: JSON object is neither a polytope (vertex_facets) "
        "nor a complex (maximal_faces)"
    )


def _parse_expr(tokens: list[str]) -> SimplePolytope | SimplicialComplex:
    if not tokens:
        raise UsageError("empty expression")
    tok = tokens.pop(0)
    if tok == "(":
        inner = _parse_expr(tokens)
        if not tokens or tokens.pop(0) != ")":
            raise UsageError("unbalanced parentheses")
        return inner
    if tok == "simplex":
        return simplex_polytope(_parse_int(tokens, "dimension for simplex"))
    if tok == "polygon":
        return polygon(_parse_int(tokens, "edge count for polygon"))
    if tok == "cube":
        if tokens and tokens[0].lstrip("-").isdigit():
            return cube(_parse_int(tokens, "dimension for cube"))
        return cube(3)
    if tok == "product":
        left = _parse_expr(tokens)
        right = _parse_expr(tokens)
        if not isinstance(left, SimplePolytope) or not isinstance(
            right, SimplePolytope
        ):
            raise UsageError("product needs two polytopes")
        return product(left, right)
    if tok == "cut-vertex":
        base = _parse_expr(tokens)
        if not isinstance(base, SimplePolytope):
            raise UsageError("cut-vertex needs a polytope")
        return base.cut_vertex(_parse_int(tokens, "vertex index for cut-vertex"))
    if _looks_like_path(tok):
        return _load_object(tok)
    raise UsageError(f"unknown constructor {tok!r}")


def parse_expression(parts: Sequence[str]) -> SimplePolytope | SimplicialComplex:
    """Parse a complete prefix expression; leftover tokens are an error."""
    tokens = _tokenize(parts)
    try:
        obj = _parse_expr(tokens)
    except RecursionError:
        raise UsageError("expression is nested too deeply") from None
    if tokens:
        raise UsageError(f"unexpected trailing tokens: {' '.join(tokens)}")
    return obj


# -- output ----------------------------------------------------------------


def _write(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(args, payload: dict, csv_rows: list[tuple], text_lines: list[str]) -> None:
    """Write a report in the format the flags select.

    JSON is ``payload`` tagged with ``"schema": 1``; CSV is ``csv_rows``,
    header first; text is ``text_lines``.
    """
    if args.json:
        text = json.dumps({"schema": 1, **payload}, sort_keys=True, indent=2)
    elif args.csv:
        text = "\n".join(",".join(_csv_cell(x) for x in row) for row in csv_rows)
    else:
        text = "\n".join(text_lines)
    _write(args, text)


# -- subcommands -----------------------------------------------------------


def cmd_build(args) -> int:
    obj = parse_expression(args.expr)
    if args.csv:
        raise UsageError("build has no csv form; the output is a JSON object")
    # the bare object, whatever the format flag: build output is build input
    _write(args, json.dumps(obj.to_json_dict(), sort_keys=True, indent=2))
    return 0


def cmd_betti(args) -> int:
    obj = parse_expression(args.expr)
    k = obj.dual_complex() if isinstance(obj, SimplePolytope) else obj
    groups = moment_angle_cohomology(
        k, workers=args.workers, max_vertices=args.max_subsets
    )
    poly = betti(groups)
    rows = [
        (d, groups.rank(d), ";".join(str(x) for x in groups.torsion(d)))
        for d in groups.degrees()
    ]
    payload = {
        "kind": "betti",
        "input": obj.to_json_dict(),
        "groups": groups.to_json_dict(),
        "poincare": str(poly),
    }
    if isinstance(obj, SimplePolytope):
        payload.update(m=obj.m, n=obj.n, dim=obj.m + obj.n)
        lines = [
            f"moment-angle manifold: m={obj.m} facets, n={obj.n}, "
            f"dimension {obj.m + obj.n}"
        ]
    else:
        lines = [f"moment-angle complex on {obj.vertex_count} vertices"]
    lines.append("degree  rank  torsion")
    lines += [f"{d:>6}  {r:>4}  {t or '-'}" for d, r, t in rows]
    lines.append(f"poincare: {poly}")
    _render(args, payload, [("degree", "rank", "torsion"), *rows], lines)
    return 0


def _report_lines(report) -> list[str]:
    verdict = "MATCH" if report.match else "MISMATCH"
    lines = [f"{report.polytope}, vertex {report.vertex}: {verdict}"]
    if report.match:
        lines.append(f"  both sides: {betti(report.lhs)}")
    else:
        lines.append(f"  lhs: {betti(report.lhs)}")
        lines.append(f"  rhs: {betti(report.rhs)}")
        for deg, (lr, lt), (rr, rt) in report.diff:
            lines.append(
                f"  degree {deg}: lhs rank {lr} torsion {list(lt)}"
                f" != rhs rank {rr} torsion {list(rt)}"
            )
    return lines


def cmd_verify(args) -> int:
    tokens = list(args.expr)
    if not args.all_vertices:
        if len(tokens) < 2:
            raise UsageError("verify needs an expression and a vertex index")
        try:
            vertex = int(tokens[-1])
        except ValueError:
            raise UsageError(
                f"last argument must be a vertex index, got {tokens[-1]!r}"
            ) from None
        tokens = tokens[:-1]
    obj = parse_expression(tokens)
    if not isinstance(obj, SimplePolytope):
        raise UsageError("verify needs a polytope input")
    options = dict(
        workers=args.workers,
        max_vertices=args.max_subsets,
        description=" ".join(tokens),
    )
    if args.all_vertices:
        reports = verify_all_cuts(obj, **options)
    else:
        reports = [verify_cut_theorem(obj, vertex, **options)]
    all_match = all(r.match for r in reports)
    payload = {
        "kind": "verify",
        "all_match": all_match,
        "reports": [r.to_json_dict() for r in reports],
    }
    rows = [("polytope", "vertex", "match", "lhs", "rhs")]
    rows += [
        (r.polytope, r.vertex, r.match, betti(r.lhs), betti(r.rhs)) for r in reports
    ]
    lines = [line for r in reports for line in _report_lines(r)]
    lines.append(
        f"{len(reports)} vertex cut(s) checked: "
        + ("all match" if all_match else "MISMATCH FOUND")
    )
    _render(args, payload, rows, lines)
    return 0 if all_match else 1


def cmd_verify_corpus(args) -> int:
    rows = []
    for name, p in theorem_corpus():
        reports = verify_all_cuts(
            p, workers=args.workers, max_vertices=args.max_subsets, description=name
        )
        rows.append((name, p.m, p.n, len(reports), all(r.match for r in reports)))
    all_match = all(ok for *_, ok in rows)
    payload = {
        "kind": "verify-corpus",
        "all_match": all_match,
        "entries": [
            {"name": n, "m": m, "n": dim, "vertices": v, "match": ok}
            for n, m, dim, v, ok in rows
        ],
    }
    lines = [f"{'name':<18} {'m':>3} {'n':>3} {'vertices':>8}  result"]
    lines += [
        f"{n:<18} {m:>3} {dim:>3} {v:>8}  {'match' if ok else 'MISMATCH'}"
        for n, m, dim, v, ok in rows
    ]
    lines.append(
        f"corpus: {len(rows)} polytopes, "
        + ("all cuts match" if all_match else "MISMATCH FOUND")
    )
    _render(args, payload, [("name", "m", "n", "vertices", "match"), *rows], lines)
    return 0 if all_match else 1


def cmd_isotopy_check(args) -> int:
    if args.k < 1:
        raise UsageError(f"torus dimension must be >= 1, got {args.k}")
    if args.samples < 2:
        raise UsageError(f"need at least 2 samples, got {args.samples}")
    seed = args.seed if args.seed is not None else args.seed_pos
    endpoints = endpoint_checks(args.k, args.samples, seed)
    maps = [("standard", standard_map(args.k))]
    maps += [(f"isotopy t={t}", isotopy_map(args.k, t)) for t in (0.0, 0.5, 1.0)]
    if args.k == 1:
        # the closed-form circle isotopy F1 is the k = 1 isotopy
        maps += [(f"f1 t={t}", isotopy_map(1, t)) for t in (0.0, 1.0)]
    probes = [
        injectivity_probe(point_map, args.k, args.samples, seed, label=label)
        for label, point_map in maps
    ]
    passed = endpoints.passed and all(p.passed for p in probes)
    payload = {
        "kind": "isotopy-check",
        "endpoints": endpoints.to_json_dict(),
        "probes": [p.to_json_dict() for p in probes],
        "passed": passed,
    }
    deviations = [
        ("standard", "t=1 vs standard torus:", endpoints.max_standard_deviation),
        ("radius", "t=0 circle radius:", endpoints.max_radius_deviation),
        ("base", "t=0 base stability:", endpoints.max_base_deviation),
    ]
    rows = [("check", "value", "passed")]
    rows += [
        (f"endpoint-{name}", value, value <= endpoints.tolerance)
        for name, _, value in deviations
    ]
    rows += [(f"probe {p.label}", p.violations, p.passed) for p in probes]
    lines = [f"isotopy check: k={args.k}, samples={args.samples}, seed={seed}"]
    lines += [
        f"  {what:<22} max deviation {value:.3e}" for _, what, value in deviations
    ]
    for p in probes:
        sep = "inf" if p.min_separation == float("inf") else f"{p.min_separation:.3e}"
        lines.append(
            f"  probe {p.label}: {p.violations} violations, min separation {sep}"
        )
    lines.append("overall: " + ("PASS" if passed else "FAIL"))
    _render(args, payload, rows, lines)
    return 0 if passed else 1


# -- argument parsing ------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, default_workers: int) -> None:
    sub.add_argument(
        "--workers",
        type=int,
        default=default_workers,
        help=f"parallel workers for subset enumeration (env {WORKERS_ENV_VAR})",
    )
    sub.add_argument(
        "--max-subsets",
        type=int,
        default=DEFAULT_MAX_VERTICES,
        metavar="E",
        help="largest vertex count m to enumerate (2^m subsets)",
    )
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    sub.add_argument("--output", metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    try:
        default_workers = max(1, int(os.environ.get(WORKERS_ENV_VAR, "1")))
    except ValueError:
        default_workers = 1
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="moment-angle manifold cohomology and vertex-cut verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_build = subs.add_parser("build", help="construct a polytope or complex")
    p_build.add_argument("expr", nargs="+", help="constructor expression or file")
    _add_common(p_build, default_workers)
    p_build.set_defaults(func=cmd_build)

    p_betti = subs.add_parser("betti", help="cohomology of the moment-angle manifold")
    p_betti.add_argument("expr", nargs="+", help="constructor expression or file")
    _add_common(p_betti, default_workers)
    p_betti.set_defaults(func=cmd_betti)

    p_verify = subs.add_parser("verify", help="check the vertex-cut decomposition")
    p_verify.add_argument(
        "expr", nargs="+", help="expression plus trailing vertex index"
    )
    p_verify.add_argument(
        "--all-vertices", action="store_true", help="verify every vertex"
    )
    _add_common(p_verify, default_workers)
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = subs.add_parser(
        "verify-corpus", help="run the standard verification family"
    )
    _add_common(p_corpus, default_workers)
    p_corpus.set_defaults(func=cmd_verify_corpus)

    p_iso = subs.add_parser("isotopy-check", help="torus embedding identity probes")
    p_iso.add_argument("k", type=int, help="torus dimension")
    p_iso.add_argument("samples", type=int, nargs="?", default=10000)
    p_iso.add_argument("seed_pos", type=int, nargs="?", default=42, metavar="seed")
    p_iso.add_argument("--seed", type=int, default=None, help="override the seed")
    _add_common(p_iso, default_workers)
    p_iso.set_defaults(func=cmd_isotopy_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except SubsetLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise the cap with --max-subsets", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
