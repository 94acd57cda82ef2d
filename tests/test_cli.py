import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from complexes import RP2
from isomorphism import are_combinatorially_isomorphic
import momentangle.cli as cli_module
import momentangle.surgery as surgery
from momentangle.cli import main, parse_expression
from momentangle.homology import GradedGroups
from momentangle.moment_angle import DEFAULT_MAX_VERTICES, SubsetLimitError
from momentangle.polytopes import (
    SimplePolytope,
    cube,
    polygon,
    product,
    simplex_polytope,
)
from momentangle.simplicial import SimplicialComplex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpressionParsing:
    def test_constructors(self):
        assert parse_expression(["polygon", "5"]) == polygon(5)
        assert parse_expression(["simplex", "3"]) == simplex_polytope(3)
        assert parse_expression(["cube", "2"]) == cube(2)
        assert parse_expression(["cube"]) == cube(3)

    def test_nested(self):
        got = parse_expression(["product", "(simplex", "1)", "(simplex", "2)"])
        assert got == product(simplex_polytope(1), simplex_polytope(2))
        got = parse_expression(["cut-vertex", "(", "polygon", "4", ")", "1"])
        assert got == polygon(4).cut_vertex(1)

    def test_errors(self):
        for bad in (
            ["frobnicate"],
            ["polygon"],
            ["polygon", "x"],
            ["polygon", "4", "5"],
            ["(", "polygon", "4"],
            ["product", "polygon", "4"],
        ):
            with pytest.raises(ValueError):
                parse_expression(bad)


class TestBuild:
    def test_polygon_round_trip(self, capsys):
        code, out, _ = run(capsys, "build", "polygon", "5")
        assert code == 0
        payload = json.loads(out)
        assert "schema" not in payload
        assert SimplePolytope.from_json_dict(payload) == polygon(5)

    def test_cut_vertex_builds_a_pentagon(self, capsys):
        code, out, _ = run(capsys, "build", "cut-vertex", "(polygon", "4)", "0")
        assert code == 0
        got = SimplePolytope.from_json_dict(json.loads(out))
        assert are_combinatorially_isomorphic(got, polygon(5))

    def test_product_builds_a_square(self, capsys):
        code, out, _ = run(capsys, "build", "product", "(simplex", "1)", "(simplex", "1)")
        assert code == 0
        got = SimplePolytope.from_json_dict(json.loads(out))
        assert are_combinatorially_isomorphic(got, polygon(4))

    def test_polytope_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps(polygon(6).to_json_dict()))
        code, out, _ = run(capsys, "build", str(path))
        assert code == 0
        assert SimplePolytope.from_json_dict(json.loads(out)) == polygon(6)

    def test_complex_file_round_trip(self, capsys, tmp_path):
        k = polygon(5).dual_complex()
        path = tmp_path / "cycle.json"
        path.write_text(k.to_json())
        code, out, _ = run(capsys, "build", str(path))
        assert code == 0
        assert SimplicialComplex.from_json_dict(json.loads(out)) == k

    def test_no_csv_form(self, capsys):
        code, _, err = run(capsys, "build", "polygon", "4", "--csv")
        assert code == 2
        assert "csv" in err


class TestBetti:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "betti", "polygon", "4")
        assert code == 0
        assert "m=4 facets, n=2, dimension 6" in out
        assert "poincare: 1 + 2t^3 + t^6" in out

    def test_simplex_is_a_sphere(self, capsys):
        code, out, _ = run(capsys, "betti", "simplex", "2")
        assert code == 0
        assert "poincare: 1 + t^5" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "betti", "polygon", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["kind"] == "betti"
        assert (payload["m"], payload["n"], payload["dim"]) == (6, 2, 8)
        groups = payload["groups"]
        assert groups["0"]["rank"] == 1
        # rank symmetry of the closed 8-manifold
        for p in range(9):
            low = groups.get(str(p), {"rank": 0})["rank"]
            high = groups.get(str(8 - p), {"rank": 0})["rank"]
            assert low == high
        assert SimplePolytope.from_json_dict(payload["input"]) == polygon(6)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "betti", "polygon", "4", "--csv")
        assert code == 0
        assert out == "degree,rank,torsion\n0,1,\n3,2,\n6,1,\n"

    def test_complex_input(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(polygon(4).dual_complex().to_json())
        code, out, _ = run(capsys, "betti", str(path))
        assert code == 0
        assert "complex on 4 vertices" in out
        assert "poincare: 1 + 2t^3 + t^6" in out


class TestVerify:
    def test_all_vertices(self, capsys):
        code, out, _ = run(capsys, "verify", "polygon", "3", "--all-vertices")
        assert code == 0
        assert out.count("MATCH") == 3
        assert "3 vertex cut(s) checked: all match" in out

    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "verify", "simplex", "3", "0")
        assert code == 0
        assert "both sides: 1 + t^3 + t^5 + t^8" in out

    def test_bare_cube_with_vertex(self, capsys):
        # trailing integer is the vertex, not a cube dimension
        code, out, _ = run(capsys, "verify", "cube", "0")
        assert code == 0
        assert "1 vertex cut(s) checked: all match" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "polygon", "4", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["all_match"] is True
        (report,) = payload["reports"]
        assert report["vertex"] == 1
        assert report["polytope"] == "polygon 4"
        assert report["match"] is True
        assert report["lhs"] == report["rhs"]

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "verify", "polygon", "3", "0", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "polytope,vertex,match,lhs,rhs"
        assert "polygon 3,0,true,1 + 2t^3 + t^6,1 + 2t^3 + t^6" in out

    def test_needs_vertex_index(self, capsys):
        code, _, err = run(capsys, "verify", "polygon")
        assert code == 2
        assert "vertex index" in err
        # the trailing token is consumed as the vertex, so the expression
        # itself comes up short
        code, _, err = run(capsys, "verify", "polygon", "4")
        assert code == 2
        assert "missing edge count" in err

    def test_workers_do_not_change_bytes(self, capsys):
        _, base, _ = run(capsys, "verify", "polygon", "4", "0", "--json")
        _, parallel, _ = run(
            capsys, "verify", "polygon", "4", "0", "--json", "--workers", "2"
        )
        assert parallel == base


class TestVerifyCorpus:
    def test_csv_summary(self, capsys):
        code, out, _ = run(capsys, "verify-corpus", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,m,n,vertices,match"
        assert len(lines) == 13
        assert all(line.endswith(",true") for line in lines[1:])
        assert lines[1].startswith("polygon-3,3,2,3,")


class TestIsotopyCheck:
    def test_human_pass(self, capsys):
        code, out, _ = run(capsys, "isotopy-check", "2", "500", "42")
        assert code == 0
        assert "overall: PASS" in out
        assert "seed=42" in out

    def test_circle_case_includes_closed_form_map(self, capsys):
        code, out, _ = run(capsys, "isotopy-check", "1", "300", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        labels = [p["label"] for p in payload["probes"]]
        assert labels == [
            "standard", "isotopy t=0.0", "isotopy t=0.5", "isotopy t=1.0",
            "f1 t=0.0", "f1 t=1.0",
        ]

    def test_positional_seed_is_used(self, capsys):
        code, out, _ = run(capsys, "isotopy-check", "1", "300", "9")
        assert code == 0
        assert "seed=9" in out

    def test_bad_dimension(self, capsys):
        code, _, err = run(capsys, "isotopy-check", "0", "100")
        assert code == 2
        assert ">= 1" in err

    def test_out_of_memory_draw_is_a_usage_error(self, capsys, monkeypatch):
        class NoRoom:
            def uniform(self, *args, **kwargs):
                raise MemoryError

        import numpy

        monkeypatch.setattr(numpy.random, "default_rng", lambda seed: NoRoom())
        code, out, err = run(capsys, "isotopy-check", "3", "10000", "1")
        assert (code, out) == (2, "")
        assert err == "error: 10000 samples of 3 angles do not fit in memory\n"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_generator_per_call(self, capsys, monkeypatch, k):
        # the probes and the endpoint check share one draw: the endpoint
        # check's fresh innermost angles are read off the probe's second sample
        import numpy

        made = []
        default_rng = numpy.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(numpy.random, "default_rng", counting)
        code, _, _ = run(capsys, "isotopy-check", str(k), "1000", "42")
        assert (code, made) == (0, [(42,)])

    @pytest.mark.parametrize(
        "k, digest",
        [
            (1, "5b8beb7715469ffc18261e8d708ebe6e0e83cfe6307aa85b50226bb6415fc25e"),
            (2, "30efa0a1ccc0a90575f99ddcdd909824ba7920bf5bc3428c3414db82fabd8da3"),
            (3, "55ad2f8759ad117649aae99997e2bb7d072fffc91e7bbf2ef54390310782a201"),
        ],
    )
    def test_json_bytes_are_pinned(self, capsys, k, digest):
        # the reports of 10000 samples at seed 42, as first recorded, before
        # the probes and the endpoint check shared their draw and evaluations
        code, out, err = run(capsys, "isotopy-check", str(k), "10000", "42", "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestErrorsAndLimits:
    def test_build_refuses_vertex_records_over_the_budget(self, capsys, monkeypatch):
        # build makes one record per vertex; cube 40 has 2^40 of them and ran
        # until killed, so it is refused before cube() runs
        def refuse(*args):
            raise AssertionError("a cube over the budget was built")

        monkeypatch.setattr(cli_module, "cube", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "cube", "40")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: polytope has more than 2^{DEFAULT_MAX_VERTICES} vertices: building "
            "a record for each exceeds the limit; raise the max-subsets exponent to proceed\n"
            "hint: raise the cap with --max-subsets\n"
        )

    def test_build_refuses_csv_before_reading_the_expression(self, capsys, monkeypatch):
        # --csv is refused before the expression is parsed, as --workers 0 is:
        # cube 20 is within build's budget, and its 2^20 vertex records were
        # built before the refusal; cube 40 exits 2 on --csv, not 3 on the budget
        def refuse(*args):
            raise AssertionError("the expression was parsed")

        monkeypatch.setattr(cli_module, "_parse", refuse)
        for n in ("20", "40"):
            code, out, err = run(capsys, "build", "cube", n, "--csv")
            assert (code, out) == (2, "")
            assert err == "error: build has no csv form; the output is a JSON object\n"

    @pytest.mark.parametrize(
        "expr, budget, code",
        [
            (["polygon", "23"], None, 0),
            (["cube", "5"], "5", 0),
            (["cube", "6"], "5", 3),
            (["simplex", "31"], "5", 0),
            (["simplex", "32"], "5", 3),
            (["product", "polygon", "4", "polygon", "8"], "5", 0),
            (["product", "polygon", "4", "polygon", "9"], "5", 3),
            (["cut-vertex", "(", "polygon", "31", ")", "0"], "5", 0),
            (["cut-vertex", "(", "polygon", "32", ")", "0"], "5", 3),
        ],
    )
    def test_build_budget_is_two_to_the_cap_vertices(self, capsys, expr, budget, code):
        # polygon 23 has m = 23 > 22 facets but 23 vertices, so build keeps
        # making it; the budget bounds the vertex count, 2^E, not m
        flags = [] if budget is None else ["--max-subsets", budget]
        got, out, err = run(capsys, "build", *expr, *flags)
        assert got == code
        if code == 0:
            assert json.loads(out) == parse_expression(expr).to_json_dict()
        else:
            assert (out, err.splitlines()[-1]) == ("", "hint: raise the cap with --max-subsets")

    def test_unknown_constructor(self, capsys):
        code, _, err = run(capsys, "betti", "frobnicate")
        assert code == 2
        assert "unknown constructor" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "betti", "missing/nope.json")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_polytope_file_names_the_invariant(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"dim": 2, "facets": 3, "vertex_facets": [[0, 1], [0, 1]]})
        )
        code, _, err = run(capsys, "betti", str(path))
        assert code == 2
        assert "distinct_vertices" in err

    def test_subset_limit_exit_code(self, capsys):
        code, _, err = run(capsys, "betti", "polygon", "8", "--max-subsets", "4")
        assert code == 3
        assert "2^8 = 256" in err
        assert "--max-subsets" in err

    @pytest.mark.parametrize(
        "argv, m",
        [(["betti", "cube", "14"], 28), (["verify", "cube", "14", "0"], 28),
         (["verify", "cube", "11", "0"], 23)],
        ids=["betti", "verify", "verify-at-the-cap"],
    )
    def test_subset_limit_comes_before_the_dual_complex(self, capsys, monkeypatch, argv, m):
        # cube-14's dual has 16 384 facets; pruning them alone takes ~25 s
        def refuse(self):
            raise AssertionError("a dual complex was built")

        monkeypatch.setattr(SimplePolytope, "dual_complex", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            f"error: {SubsetLimitError(m, DEFAULT_MAX_VERTICES)}\n"
            "hint: raise the cap with --max-subsets\n"
        )

    def test_all_vertices_over_the_cap_cuts_nothing(self, capsys, monkeypatch):
        # cube-11 has 2048 vertices, and every cut is as large as cube-11
        calls = []
        cut_vertex = SimplePolytope.cut_vertex

        def counted(self, v):
            calls.append(v)
            return cut_vertex(self, v)

        monkeypatch.setattr(SimplePolytope, "cut_vertex", counted)
        code, out, err = run(
            capsys, "verify", "cube", "11", "--all-vertices", "--max-subsets", "11"
        )
        assert (code, out, len(calls)) == (3, "", 0)
        assert err == (
            "error: complex has 22 vertices: enumerating 2^22 = 4194304 subsets "
            "exceeds the limit 2^11; raise the max-subsets exponent to proceed\n"
            "hint: raise the cap with --max-subsets\n"
        )

    @pytest.mark.parametrize(
        "expr, m, polygons",
        [
            (["product", "polygon", "700", "polygon", "700"], 700, []),
            (["polygon", "1000000000"], 10**9, []),
            (["product", "polygon", "20", "polygon", "20"], 40, [20, 20]),
        ],
        ids=["hostile-product", "huge-polygon", "product-of-capped-operands"],
    )
    def test_betti_caps_each_node_before_building_it(
        self, capsys, monkeypatch, expr, m, polygons
    ):
        # no polytope over the cap is built: the product of two 700-gons
        # was, in seconds, before the sum refused it, and of two 3000-gons
        # ran out of memory
        built = []

        def counted(n):
            built.append(n)
            return polygon(n)

        def refuse(*args):
            raise AssertionError("a product over the cap was built")

        monkeypatch.setattr(cli_module, "polygon", counted)
        monkeypatch.setattr(cli_module, "product", refuse)
        code, out, err = run(capsys, "betti", *expr)
        assert (code, out, built) == (3, "", polygons)
        assert err == (
            f"error: {SubsetLimitError(m, DEFAULT_MAX_VERTICES)}\n"
            "hint: raise the cap with --max-subsets\n"
        )

    @pytest.mark.parametrize(
        "tail, m",
        [(["0"], 700), (["--all-vertices"], 700), (["99999"], 700)],
        ids=["one-vertex", "all-vertices", "bad-index"],
    )
    def test_verify_caps_each_operand_before_building_it(
        self, capsys, monkeypatch, tail, m
    ):
        # the product of two 700-gons took 2.9 s and 191 MB to build before
        # the sum refused it; an operand over the cap now stops the parse,
        # ahead of the top term's vertex index
        def refuse(*args):
            raise AssertionError("a product over the cap was built")

        monkeypatch.setattr(cli_module, "product", refuse)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "product", "polygon", "700", "polygon", "700", *tail
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: {SubsetLimitError(m, DEFAULT_MAX_VERTICES)}\n"
            "hint: raise the cap with --max-subsets\n"
        )

    def test_bad_vertex_index_comes_before_the_cap(self, capsys):
        # cube-14 and its cuts are over the cap, but the index is checked first
        code, out, err = run(capsys, "verify", "cube", "14", "99999")
        assert (code, out, err) == (2, "", "error: vertex index 99999 out of range\n")

    @pytest.mark.parametrize(
        "expr, tail, m",
        [
            (["polygon", "200000"], ["0"], 200000),
            (["polygon", "200000"], ["--all-vertices"], 200000),
            (["cube", "1000000000"], [str(2**40)], 2 * 10**9),
            (["product", "polygon", "20", "polygon", "20"], ["399"], 40),
            (["cut-vertex", "(", "polygon", "22", ")", "0"], ["22"], 23),
        ],
        ids=["polygon", "polygon-all-vertices", "huge-cube", "product", "cut"],
    )
    def test_verify_caps_the_top_term_before_building_it(
        self, capsys, monkeypatch, expr, tail, m
    ):
        # verify polygon 200000 0 took 1.5 s and 93 MB to build its polygon
        # before the sum refused it; the index is checked against the vertex
        # count, which each constructor knows from its operands, and then
        # the cap stops the parse
        def refuse(*args):
            raise AssertionError("a polytope over the cap was built")

        if expr[0] != "cut-vertex":
            monkeypatch.setattr(cli_module, expr[0], refuse)
        monkeypatch.setattr(SimplePolytope, "cut_vertex", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *expr, *tail)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: {SubsetLimitError(m, DEFAULT_MAX_VERTICES)}\n"
            "hint: raise the cap with --max-subsets\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["polygon", "200000", "200000"], "vertex index 200000 out of range"),
            (["cube", "40", str(2**40)], f"vertex index {2**40} out of range"),
            (["cube", "1000000000", "-1"], "vertex index -1 out of range"),
            (["product", "polygon", "20", "polygon", "20", "400"], "vertex index 400 out of range"),
            (["cut-vertex", "(", "polygon", "22", ")", "0", "23"], "vertex index 23 out of range"),
            # the cut's own index, and the constructors' own checks, come first
            (["cut-vertex", "(", "polygon", "22", ")", "99", "0"], "vertex index 99 out of range"),
            (["polygon", "2", "5"], "polygon needs at least 3 edges, got 2"),
            (["cube", "0", "9"], "cube dimension must be >= 1, got 0"),
        ],
        ids=["polygon", "cube", "negative", "product", "cut", "inner-cut", "polygon-2", "cube-0"],
    )
    def test_top_term_index_is_checked_against_its_vertex_count(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_format_flags_conflict(self, capsys):
        code, _, _ = run(capsys, "betti", "polygon", "4", "--json", "--csv")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "verify-corpus" in out


class TestOutputRedirect:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        _, direct, _ = run(capsys, "betti", "polygon", "5", "--json")
        path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "betti", "polygon", "5", "--json", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text() == direct


# -- byte-for-byte output pins ----------------------------------------------

EMPTY = hashlib.sha256(b"").hexdigest()

# argv -> (exit code, sha256 of stdout, sha256 of stderr), recorded before the
# three output formats shared one renderer; RP2 stands for a file holding the
# six-vertex projective plane
GOLDEN = {
    "build cube": (
        0,
        "5ef575c3b68996cc91f9b70407afc9b3e5af7437e37e9b5b7af72ed5c2375d95",
        EMPTY,
    ),
    "build cube --json": (
        0,
        "5ef575c3b68996cc91f9b70407afc9b3e5af7437e37e9b5b7af72ed5c2375d95",
        EMPTY,
    ),
    "build cube --csv": (
        2,
        EMPTY,
        "17fb182bcfe75f53aed5a91e7cc5e891a4dfbe439423eab4aa3a8464a9dc68d9",
    ),
    "betti polygon 5": (
        0,
        "82666439e299daf56c6364a8c833e2fce49441c3bc7d1e77d10b1522b64e1650",
        EMPTY,
    ),
    "betti polygon 5 --json": (
        0,
        "9005430291d38e7d8ea5b0d6a924a16df709b170639b79e7a765566c4210a151",
        EMPTY,
    ),
    "betti polygon 5 --csv": (
        0,
        "022a6a462ac57b3a25ba5909db3dbd839d091e6945a7cfef7eea26f4451f7abe",
        EMPTY,
    ),
    "betti RP2": (
        0,
        "f1b871b8e048a910f61fd1654e2198079c69099a44a65293495c918bdb927834",
        EMPTY,
    ),
    "betti RP2 --json": (
        0,
        "8261607c26de24db00a84adc78165998e22c5b8d606aafdde77a3e1eefcdb83d",
        EMPTY,
    ),
    "betti RP2 --csv": (
        0,
        "cbd8305cd11b89710f0eb0af7c7d92c5df0436331c35686c7d9b201da71d4a9f",
        EMPTY,
    ),
    "verify polygon 5 0": (
        0,
        "42174ce69846272b98a1f4a4dfc224a892f338dde29c7df467c735b89ee6ec87",
        EMPTY,
    ),
    "verify polygon 5 0 --json": (
        0,
        "936c09cb49f3ec28661c9f2cc3bec87c00f07d4d828886611619ceb5779fbd17",
        EMPTY,
    ),
    "verify polygon 5 0 --csv": (
        0,
        "36247b6b790af82eb3f6754402c1d27950463e797409a234011cf1201dbda4ac",
        EMPTY,
    ),
    "verify polygon 5 --all-vertices": (
        0,
        "93d78807c210d3ed0f3fa06881c1afaa6622bc38e0c0b9d1dd2efef81309c5b6",
        EMPTY,
    ),
    "verify polygon 5 --all-vertices --json": (
        0,
        "d25561244853317f7d77c09ae0f0c57325b37aef211bad72a2f0bac2a11b9f12",
        EMPTY,
    ),
    "verify polygon 5 --all-vertices --csv": (
        0,
        "161b4d93cbd5db6e6e49256b6fa1d8961d3f231c4e8a2de39a8fb76419c87f11",
        EMPTY,
    ),
    "verify-corpus": (
        0,
        "a8a624ed41fa463ec502a5f40de951dde0fb906e0bd746225f4dc18a3313a7e1",
        EMPTY,
    ),
    "verify-corpus --json": (
        0,
        "80ed6690109d6ec979b4607c4a4405e7fa95ad7b65fad48166a4e510c4cde8fd",
        EMPTY,
    ),
    "verify-corpus --csv": (
        0,
        "a69fd6b35fc6d220f739c55304dd4266292a4edc490df92c494dfa5ef07a8f0b",
        EMPTY,
    ),
    "betti cube --max-subsets 3": (
        3,
        EMPTY,
        "3a6c9cdc3d3bb4cbb30c9f9712a0c2aef94273e56b0041c047a6ae3462f9b6b3",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_bytes_are_pinned(capsys, tmp_path, command):
    path = tmp_path / "rp2.json"
    path.write_text(RP2.to_json())
    argv = [str(path) if a == "RP2" else a for a in command.split()]
    code, out, err = run(capsys, *argv)
    assert (code, sha256(out), sha256(err)) == GOLDEN[command]


# stdout of verify polygon 5 --all-vertices when the prediction is made wrong in
# degree 3, recorded while each report still stored its verdict and differences
MISMATCH_GOLDEN = {
    "": "19cdf954cf25bb431123b4c2b8e397836ba7c93d6f60e40f71b8e866724ae0df",
    "--json": "1c535ad88912f21c805940af4511f04b617bd04daa97bb78047dd1f002c1770f",
    "--csv": "f53753ce5f6d8a2164dc55134308daad53078ae8587de054d33efc157c976649",
}


@pytest.mark.parametrize("fmt", sorted(MISMATCH_GOLDEN))
def test_mismatch_output_bytes_are_pinned(capsys, monkeypatch, fmt):
    def wrong(p, h_z):  # Z^8 + Z/2 in degree 3 where the cut has Z^9
        g = real(p, h_z)
        return GradedGroups({**{d: (g.rank(d), g.torsion(d)) for d in g.degrees()}, 3: (g.rank(3) - 1, (2,))})

    real = surgery._prediction
    monkeypatch.setattr(surgery, "_prediction", wrong)
    code, out, err = run(capsys, "verify", "polygon", "5", "--all-vertices", *fmt.split())
    assert (code, sha256(out), err) == (1, MISMATCH_GOLDEN[fmt], "")
    if not fmt:
        assert "  degree 3: lhs rank 9 torsion [] != rhs rank 8 torsion [2]" in out.splitlines()


def test_isotopy_check_formats_agree(capsys):
    argv = ["isotopy-check", "1", "400", "5"]
    _, as_json, _ = run(capsys, *argv, "--json")
    _, as_csv, _ = run(capsys, *argv, "--csv")
    _, as_text, _ = run(capsys, *argv)
    payload = json.loads(as_json)
    ends, probes = payload["endpoints"], payload["probes"]
    keys = ["max_standard_deviation", "max_radius_deviation", "max_base_deviation"]
    flag = lambda ok: "true" if ok else "false"
    expected_csv = ["check,value,passed"]
    for name, key in zip(["standard", "radius", "base"], keys):
        value = ends[key]
        expected_csv.append(
            f"endpoint-{name},{value!r},{flag(value <= ends['tolerance'])}"
        )
    expected_csv += [
        f"probe {p['label']},{p['violations']},{flag(p['passed'])}" for p in probes
    ]
    assert as_csv.splitlines() == expected_csv

    text = as_text.splitlines()
    assert text[0] == "isotopy check: k=1, samples=400, seed=5"
    for line, key in zip(text[1:4], keys):
        assert line.endswith(f"max deviation {ends[key]:.3e}")
    for line, p in zip(text[4:-1], probes):
        sep = p["min_separation"]
        sep = "inf" if sep is None else f"{sep:.3e}"
        assert line == (
            f"  probe {p['label']}: {p['violations']} violations, min separation {sep}"
        )
    assert len(text) == 4 + len(probes) + 1
    assert text[-1] == "overall: " + ("PASS" if payload["passed"] else "FAIL")


# -- hostile input -----------------------------------------------------------

# name -> (argv, contents of FILE or None, exit code, stderr fragment)
HOSTILE = {
    "deeply nested expression": (
        ["build", *["("] * 5000, "polygon", "4", *[")"] * 5000],
        None,
        2,
        "nested too deeply",
    ),
    "deeply nested json": (
        ["betti", "FILE"], '{"maximal_faces": ' + "[" * 100000, 2, "malformed JSON"
    ),
    "json not an object": (["betti", "FILE"], " \n[[0, 1]]", 2, "not a JSON object"),
    "file over the byte budget": (
        ["betti", "FILE", "--max-subsets", "4"],
        "{" + " " * (1 << 20),
        2,
        "more than 1048576 bytes",
    ),
    "torus past double range": (
        ["isotopy-check", "1100", "2"],
        None,
        2,
        "torus dimension must be <= 1024, got 1100",
    ),
    "faces not a list": (
        ["betti", "FILE"],
        '{"vertices": 3, "maximal_faces": 7}',
        2,
        "maximal_faces must be a list of integer lists",
    ),
    "faces not lists": (
        ["betti", "FILE"],
        '{"vertices": 3, "maximal_faces": [1, 2]}',
        2,
        "maximal_faces must be a list of integer lists",
    ),
    "null vertex": (
        ["betti", "FILE"],
        '{"vertices": 3, "maximal_faces": [[0, null]]}',
        2,
        "maximal_faces entry must be an integer, got None",
    ),
    "fractional vertex": (
        ["betti", "FILE"],
        '{"vertices": 3, "maximal_faces": [[0, 1.5]]}',
        2,
        "maximal_faces entry must be an integer, got 1.5",
    ),
    "vertex_facets not a list": (
        ["betti", "FILE"],
        '{"dim": 2, "facets": 3, "vertex_facets": 5}',
        2,
        "vertex_facets must be a list of integer lists",
    ),
    "vertex_facets not lists": (
        ["betti", "FILE"],
        '{"dim": 2, "facets": 3, "vertex_facets": [5]}',
        2,
        "vertex_facets must be a list of integer lists",
    ),
    "huge facet count": (
        ["betti", "FILE"],
        '{"dim": 2, "facets": 1e30, "vertex_facets": [[0, 1], [1, 2], [0, 2]]}',
        2,
        "facets must be an integer, got 1e+30",
    ),
    # build has no subset cap, so it reads the records and refuses them;
    # betti refuses the declared facet count before it reads a record
    "huge uncovered facet count": (
        ["build", "FILE"],
        '{"dim": 2, "facets": %d, "vertex_facets": [[0, 1], [1, 2], [0, 2]]}' % 10**30,
        2,
        "facets [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and %d more meet" % (10**30 - 13),
    ),
    "huge uncovered facet count over the cap": (
        ["betti", "FILE"],
        '{"dim": 2, "facets": %d, "vertex_facets": [[0, 1], [1, 2], [0, 2]]}' % 10**30,
        3,
        "enumerating 2^%d subsets" % 10**30,
    ),
    "zero workers": (
        ["betti", "polygon", "4", "--workers", "0"],
        None,
        2,
        "--workers must be at least 1, got 0",
    ),
    "negative workers": (
        ["verify-corpus", "--workers", "-3"],
        None,
        2,
        "--workers must be at least 1, got -3",
    ),
    "negative max-subsets": (
        ["betti", "polygon", "4", "--max-subsets", "-1"],
        None,
        2,
        "--max-subsets must be at least 0, got -1",
    ),
    "huge polygon to verify": (
        ["verify", "polygon", "200000", "0"],
        None,
        3,
        "complex has 200000 vertices",
    ),
    "build over the vertex budget": (
        ["build", "cube", "40"],
        None,
        3,
        "more than 2^22 vertices",
    ),
    "huge vertex count": (
        ["betti", "FILE"],
        '{"vertices": %d, "maximal_faces": [[0, 1]]}' % 10**30,
        3,
        "enumerating 2^%d subsets" % 10**30,
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_with_a_message(capsys, tmp_path, case):
    argv, text, expected_code, fragment = HOSTILE[case]
    path = tmp_path / "hostile.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (expected_code, "")
    assert err.startswith("error: ")
    assert fragment in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_an_endless_stream_is_refused_at_its_first_chunk(capsys):
    # json.load read /dev/zero until the process was killed for memory
    code, out, err = run(capsys, "betti", "/dev/zero")
    assert (code, out) == (2, "")
    assert "/dev/zero: not a JSON object" in err


def test_the_cap_is_checked_before_any_face_is_read(capsys, tmp_path, monkeypatch):
    # 8000 faces of 1 to 12 vertices on 40 vertices, about 200 KB: the
    # declared count is over the cap, so no record is read, let alone made
    # canonical, which took about 2 s before exit 3 (2-vCPU VM)
    rng = random.Random(8)
    faces = [sorted(rng.sample(range(40), rng.randint(1, 12))) for _ in range(8000)]
    complex_file, polytope_file = tmp_path / "complex.json", tmp_path / "polytope.json"
    complex_file.write_text(json.dumps({"vertices": 40, "maximal_faces": faces}))
    polytope_file.write_text(json.dumps({"dim": 12, "facets": 40, "vertex_facets": faces}))

    def refuse(cls, data):
        raise AssertionError("a record was read past the cap")

    for cls in (SimplicialComplex, SimplePolytope):
        monkeypatch.setattr(cls, "from_json_dict", classmethod(refuse))
    for argv in (["betti", complex_file], ["betti", polytope_file], ["verify", polytope_file, "0"],
                 ["betti", complex_file, "--max-subsets", "39"]):
        code, out, err = run(capsys, *map(str, argv))
        assert (code, out) == (3, "") and "complex has 40 vertices" in err, argv
    # at the cap the records are read
    with pytest.raises(AssertionError, match="past the cap"):
        main(["betti", str(complex_file), "--max-subsets", "40"])


def test_the_byte_budget_follows_the_cap(capsys, tmp_path):
    # 1 MiB and a byte of blanks is past the budget at --max-subsets 4,
    # but is read whole at the default cap, whose budget is
    # 16 * 22 * binom(22, 11) bytes, and fails as JSON
    path = tmp_path / "blank.json"
    path.write_text("{" + " " * (1 << 20))
    assert cli_module._byte_budget((22, None)) == cli_module._byte_budget((None, 22)) == 248_312_064
    assert cli_module._byte_budget((4, None)) == 1 << 20
    code, _, err = run(capsys, "betti", str(path))
    assert code == 2 and "malformed JSON" in err
    code, _, err = run(capsys, "build", str(path), "--max-subsets", "4")
    assert code == 2 and "more than 1048576 bytes" in err


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; a usage error, a --json call and
    # a text call in turn print what each prints in a fresh parser
    calls = [
        ["verify"],
        ["verify", "cube", "1", "--json"],
        ["betti", "polygon", "5"],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli_module.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert cli_module.build_parser() is cli_module.build_parser()


def test_cached_parser_sees_a_rebound_command(capsys, monkeypatch):
    # an instrument that wraps cmd_betti after the parser is built still
    # sees every call
    run(capsys, "betti", "polygon", "4")
    seen = []
    monkeypatch.setattr(cli_module, "cmd_betti", lambda args: seen.append(args.expr) or 0)
    assert run(capsys, "betti", "polygon", "5") == (0, "", "")
    assert seen == [["polygon", "5"]]


COLD_START = """
import sys
import momentangle, momentangle.cli
betti = momentangle.cli.main(["betti", "polygon", "5"])
loaded = [name for name in ("numpy", "concurrent.futures") if name in sys.modules]
isotopy = momentangle.cli.main(["isotopy-check", "1", "300", "7"])
from momentangle.isotopy import isotopy_batch
print("result", betti, loaded, isotopy, callable(isotopy_batch))
"""


def test_cold_start_loads_neither_numpy_nor_the_pool():
    # betti runs serially; numpy is for isotopy-check, the pool for large sums
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.splitlines()[-1] == "result 0 [] 0 True"
