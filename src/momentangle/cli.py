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
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _escape
from math import comb, inf as _INF
from typing import Callable, Sequence

from .moment_angle import (
    DEFAULT_MAX_VERTICES,
    SubsetLimitError,
    betti,
    moment_angle_cohomology,
)
from .polytopes import SimplePolytope, cube, polygon, product, simplex_polytope
from .simplicial import SimplicialComplex
from .surgery import theorem_corpus, verify_all_cuts, verify_cut_theorem

class UsageError(ValueError):
    pass


class RecordLimitError(Exception):
    """Raised before ``build`` makes more than 2^limit vertex records."""

    def __init__(self, limit: int):
        super().__init__(
            f"polytope has more than 2^{limit} vertices: building a record for each "
            "exceeds the limit; raise the max-subsets exponent to proceed"
        )


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


def _load_object(path: str, caps: _Caps) -> SimplePolytope | SimplicialComplex:
    """The polytope or complex in the JSON file ``path``, within ``caps``.

    The file is read in chunks, and refused as soon as its first byte
    past any whitespace is not ``{`` or it grows past ``_byte_budget``,
    so an endless stream such as /dev/zero is never held whole.  The
    declared vertex count of a complex, or facet count of a polytope, is
    checked against the subset cap before any face is read.
    """
    budget = _byte_budget(caps)
    raw = bytearray()
    blank = True  # no byte but whitespace read yet
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 16):
                if blank and (head := chunk.lstrip()):
                    if head[:1] != b"{":
                        raise UsageError(
                            f"{path}: not a JSON object: the first byte past any "
                            "whitespace must be '{'"
                        )
                    blank = False
                raw += chunk
                if budget is not None and len(raw) > budget:
                    raise UsageError(
                        f"{path}: more than {budget} bytes, the most that a complex or "
                        "polytope within the subset cap takes; raise the max-subsets "
                        "exponent to proceed"
                    )
        data = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    for kind, faces, count in ((SimplePolytope, "vertex_facets", "facets"),
                               (SimplicialComplex, "maximal_faces", "vertices")):
        if isinstance(data, dict) and faces in data:
            m = data.get(count)
            if caps[0] is not None and type(m) is int and m > caps[0]:
                raise SubsetLimitError(m, caps[0])
            return kind.from_json_dict(data)
    raise UsageError(
        f"{path}: JSON object is neither a polytope (vertex_facets) "
        "nor a complex (maximal_faces)"
    )


_Caps = tuple[int | None, int | None]  # (facet count m, log2 of the vertex count)


def _byte_budget(caps: _Caps) -> int | None:
    """The most bytes read from a file under ``caps`` whose bound is E, None with no bound.

    Within the cap, a complex has at most E vertices, hence at most
    binom(E, E // 2) maximal faces (Sperner), and a polytope with at most
    E facets as many vertex records, each of at most E numbers; ``build``
    writes a number in at most 16 bytes.  Never less than 1 MiB.
    """
    bound = caps[0] if caps[0] is not None else caps[1]
    return None if bound is None else max(1 << 20, 16 * bound * comb(bound, bound // 2))


def _bits(count: int) -> int:
    """The least b with count <= 2^b."""
    return (max(count, 1) - 1).bit_length()


def _check(
    caps: _Caps, m: int, bits: int, vertex: int | None, has: Callable[[int], bool] | None
) -> None:
    """Before a term is built: ``vertex`` must be one of its vertices, then m and the
    vertex count, at most 2^``bits``, within ``caps``.

    ``has(v)`` says whether v >= 0 is one of the term's vertices.  It is
    None when the constructor will refuse its arguments, and then, when a
    vertex is given, the constructor's message comes first.
    """
    if vertex is not None:
        if has is None:
            return
        if vertex < 0 or not has(vertex):
            raise UsageError(f"vertex index {vertex} out of range")
    cap, records = caps
    if cap is not None and m > cap:
        raise SubsetLimitError(m, cap)
    if records is not None and bits > records:
        raise RecordLimitError(records)


def _parse_expr(
    tokens: list[str], caps: _Caps, vertex: int | None = None
) -> SimplePolytope | SimplicialComplex:
    """The object of the first term of ``tokens``, which it consumes.

    Each constructor's facet count m and vertex count are known before it
    runs: simplex N has N + 1 facets and N + 1 vertices, polygon M has M
    and M, cube N has 2N and 2^N, a product the sum of its operands' facets
    and the product of their vertices, and a vertex cut of an n-polytope B
    one facet more than B and n - 1 vertices more.  So each term goes
    through ``_check`` before it is built: the first with ``vertex``, the
    terms inside it without.
    """
    if not tokens:
        raise UsageError("empty expression")
    tok = tokens.pop(0)
    if tok == "(":
        inner = _parse_expr(tokens, caps, vertex)
        if not tokens or tokens.pop(0) != ")":
            raise UsageError("unbalanced parentheses")
        return inner
    if tok == "simplex":
        n = _parse_int(tokens, "dimension for simplex")
        _check(caps, n + 1, _bits(n + 1), vertex, (lambda v: v <= n) if n >= 1 else None)
        return simplex_polytope(n)
    if tok == "polygon":
        n = _parse_int(tokens, "edge count for polygon")
        _check(caps, n, _bits(n), vertex, (lambda v: v < n) if n >= 3 else None)
        return polygon(n)
    if tok == "cube":
        n = 3
        if tokens and tokens[0].lstrip("-").isdigit():
            n = _parse_int(tokens, "dimension for cube")
        # v < 2^n, without building 2^n
        _check(caps, 2 * n, max(n, 0), vertex, (lambda v: v.bit_length() <= n) if n >= 1 else None)
        return cube(n)
    if tok == "product":
        left = _parse_expr(tokens, caps)
        right = _parse_expr(tokens, caps)
        if not isinstance(left, SimplePolytope) or not isinstance(right, SimplePolytope):
            raise UsageError("product needs two polytopes")
        count = left.vertex_count * right.vertex_count
        _check(caps, left.m + right.m, _bits(count), vertex, lambda v: v < count)
        return product(left, right)
    if tok == "cut-vertex":
        base = _parse_expr(tokens, caps)
        if not isinstance(base, SimplePolytope):
            raise UsageError("cut-vertex needs a polytope")
        v = _parse_int(tokens, "vertex index for cut-vertex")
        count = base.vertex_count - 1 + base.n
        has = (lambda w: w < count) if 0 <= v < base.vertex_count else None
        _check(caps, base.m + 1, _bits(count), vertex, has)
        return base.cut_vertex(v)
    if _looks_like_path(tok):
        return _load_object(tok, caps)
    raise UsageError(f"unknown constructor {tok!r}")


def parse_expression(
    parts: Sequence[str], max_vertices: int | None = None, *, vertex: int | None = None
) -> SimplePolytope | SimplicialComplex:
    """Parse a complete prefix expression; leftover tokens are an error.

    With ``max_vertices``, a constructor whose polytope would have more
    facets raises ``SubsetLimitError`` before it runs.  With ``vertex``, the
    outermost one first raises ``UsageError`` if ``vertex`` is not one of
    its vertices, so that a bad index is reported before the cap.
    """
    return _parse(parts, (max_vertices, None), vertex)


def _parse(
    parts: Sequence[str], caps: _Caps, vertex: int | None = None
) -> SimplePolytope | SimplicialComplex:
    """``parse_expression`` under ``caps``, whose second entry bounds the vertex count."""
    tokens = _tokenize(parts)
    try:
        obj = _parse_expr(tokens, caps, vertex)
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


def _float(x: float) -> str:
    """A float as ``json`` writes it, NaN and the infinities by name."""
    if x != x:
        return "NaN"
    return "Infinity" if x == _INF else "-Infinity" if x == -_INF else float.__repr__(x)


# how ``json`` writes a value of each of these exact types, None for a
# container that is not empty; subclasses go through ``_dumps``'s own tests
_LEAVES = {str: _escape, int: int.__repr__, float: _float, type(None): {None: "null"}.__getitem__,
           bool: ("false", "true").__getitem__, dict: lambda d: None if d else "{}",
           list: lambda a: None if a else "[]", tuple: lambda a: None if a else "[]"}


def _dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    ``json`` indents through its pure-Python encoder, a generator per
    container and a test per type; this writes a container's leaves and
    empty containers in its own loop, by their exact type, and recurses
    only into the others.  A type that ``json`` refuses raises ``TypeError``.
    """
    parts: list[str] = []
    write = parts.append

    def dump(value, newline: str) -> None:
        leaf = _LEAVES.get(type(value))
        if leaf is not None and (text := leaf(value)) is not None:
            write(text)
        elif isinstance(value, (dict, list, tuple)):
            inner = newline + "  "
            mapping = isinstance(value, dict)
            sep = ("{" if mapping else "[") + inner
            for key, item in sorted(value.items()) if mapping else enumerate(value):
                if mapping:
                    sep += _escape(key if isinstance(key, str) else _key(key)) + ": "
                leaf = _LEAVES.get(type(item))
                if leaf is not None and (text := leaf(item)) is not None:
                    write(sep + text)
                else:
                    write(sep)
                    dump(item, inner)
                sep = "," + inner
            close = "}" if mapping else "]"
            write(newline + close if value else sep[0] + close)  # sep[0]: "{" or "[" when empty
        elif isinstance(value, str):
            write(_escape(value))
        elif isinstance(value, int):
            write(int.__repr__(value))
        elif isinstance(value, float):
            write(_float(value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    dump(value, "\n")
    return "".join(parts)


def _key(key) -> str:
    """A dict key that is not a str, as ``json`` writes it before quoting it."""
    if isinstance(key, (int, float)) or key is None:  # a bool is an int
        return _dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(
    args, payload: dict, csv_rows: Callable[[], list[tuple]], text_lines: Callable[[], list[str]]
) -> None:
    """Write a report in the format the flags select.

    JSON is ``payload`` tagged with ``"schema": 1``; CSV is ``csv_rows()``,
    header first; text is ``text_lines()``.  Each is made only for its
    own format.
    """
    if args.json:
        text = _dumps({"schema": 1, **payload})
    elif args.csv:
        text = "\n".join(",".join(_csv_cell(x) for x in row) for row in csv_rows())
    else:
        text = "\n".join(text_lines())
    _write(args, text)


# -- subcommands -----------------------------------------------------------


def cmd_build(args) -> int:
    if args.csv:  # refused before the expression is read, as --workers 0 is
        raise UsageError("build has no csv form; the output is a JSON object")
    # build makes one record per vertex, so its budget is 2^E vertices, not m <= E
    obj = _parse(args.expr, (None, args.max_subsets))
    # the bare object, whatever the format flag: build output is build input
    _write(args, _dumps(obj.to_json_dict()))
    return 0


def cmd_betti(args) -> int:
    obj = parse_expression(args.expr, args.max_subsets)
    groups = moment_angle_cohomology(
        obj, workers=args.workers, max_vertices=args.max_subsets
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
    _render(args, payload, lambda: [("degree", "rank", "torsion"), *rows], lambda: lines)
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
    # every polytope has a vertex 0, so --all-vertices is checked as vertex 0 is
    obj = parse_expression(tokens, args.max_subsets, vertex=0 if args.all_vertices else vertex)
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
    header = ("polytope", "vertex", "match", "lhs", "rhs")
    _render(
        args,
        payload,
        lambda: [header] + [(r.polytope, r.vertex, r.match, betti(r.lhs), betti(r.rhs)) for r in reports],
        lambda: [line for r in reports for line in _report_lines(r)]
        + [f"{len(reports)} vertex cut(s) checked: " + ("all match" if all_match else "MISMATCH FOUND")],
    )
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
    _render(args, payload, lambda: [("name", "m", "n", "vertices", "match"), *rows], lambda: lines)
    return 0 if all_match else 1


def cmd_isotopy_check(args) -> int:
    # numpy loads with this command only, not with the package
    from .isotopy import isotopy_check

    try:  # the check tests k and the sample count before it draws
        endpoints, probes = isotopy_check(args.k, args.samples, args.seed)
    except MemoryError:
        raise UsageError(f"{args.samples} samples of {args.k} angles do not fit in memory") from None
    passed = endpoints.passed and all(p.passed for p in probes)
    payload = {"kind": "isotopy-check", "endpoints": endpoints.to_json_dict(),
               "probes": [p.to_json_dict() for p in probes], "passed": passed}
    deviations = [
        ("standard", "t=1 vs standard torus:", endpoints.max_standard_deviation),
        ("radius", "t=0 circle radius:", endpoints.max_radius_deviation),
        ("base", "t=0 base stability:", endpoints.max_base_deviation),
    ]
    rows = [("check", "value", "passed")]
    rows += [(f"endpoint-{name}", v, v <= endpoints.tolerance) for name, _, v in deviations]
    rows += [(f"probe {p.label}", p.violations, p.passed) for p in probes]
    lines = [f"isotopy check: k={args.k}, samples={args.samples}, seed={args.seed}"]
    lines += [f"  {what:<22} max deviation {value:.3e}" for _, what, value in deviations]
    for p in probes:
        sep = "inf" if p.min_separation == float("inf") else f"{p.min_separation:.3e}"
        lines.append(f"  probe {p.label}: {p.violations} violations, min separation {sep}")
    lines.append("overall: " + ("PASS" if passed else "FAIL"))
    _render(args, payload, lambda: rows, lambda: lines)
    return 0 if passed else 1


# -- argument parsing ------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workers", type=int, default=1, help="parallel workers for subset enumeration")
    sub.add_argument(
        "--max-subsets",
        type=int,
        default=DEFAULT_MAX_VERTICES,
        metavar="E",
        help="largest vertex count m to enumerate (2^m subsets); build makes at most 2^E vertices",
    )
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    sub.add_argument("--output", metavar="PATH", help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="moment-angle manifold cohomology and vertex-cut verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_build = subs.add_parser("build", help="construct a polytope or complex")
    p_build.add_argument("expr", nargs="+", help="constructor expression or file")
    _add_common(p_build)

    p_betti = subs.add_parser("betti", help="cohomology of the moment-angle manifold")
    p_betti.add_argument("expr", nargs="+", help="constructor expression or file")
    _add_common(p_betti)

    p_verify = subs.add_parser("verify", help="check the vertex-cut decomposition")
    p_verify.add_argument(
        "expr", nargs="+", help="expression plus trailing vertex index"
    )
    p_verify.add_argument(
        "--all-vertices", action="store_true", help="verify every vertex"
    )
    _add_common(p_verify)

    p_corpus = subs.add_parser(
        "verify-corpus", help="run the standard verification family"
    )
    _add_common(p_corpus)

    p_iso = subs.add_parser("isotopy-check", help="torus embedding identity probes")
    p_iso.add_argument("k", type=int, help="torus dimension")
    p_iso.add_argument("samples", type=int, nargs="?", default=10000)
    p_iso.add_argument("seed", type=int, nargs="?", default=42)
    _add_common(p_iso)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        if args.max_subsets < 0:
            raise UsageError(f"--max-subsets must be at least 0, got {args.max_subsets}")
        # looked up at each call, not kept in the cached parser, so that a
        # rebinding of the module's cmd_* functions is seen
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (SubsetLimitError, RecordLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise the cap with --max-subsets", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
