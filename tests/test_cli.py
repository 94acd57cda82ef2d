import hashlib
import json

import pytest

from isomorphism import are_combinatorially_isomorphic
from momentangle.cli import WORKERS_ENV_VAR, build_parser, main, parse_expression
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

    def test_seed_flag_overrides_positional(self, capsys):
        code, out, _ = run(capsys, "isotopy-check", "1", "300", "7", "--seed", "9")
        assert code == 0
        assert "seed=9" in out

    def test_bad_dimension(self, capsys):
        code, _, err = run(capsys, "isotopy-check", "0", "100")
        assert code == 2
        assert ">= 1" in err


class TestErrorsAndLimits:
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


class TestWorkerEnvironment:
    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        args = build_parser().parse_args(["betti", "polygon", "4"])
        assert args.workers == 3

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        args = build_parser().parse_args(["betti", "polygon", "4", "--workers", "1"])
        assert args.workers == 1

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "zap")
        args = build_parser().parse_args(["betti", "polygon", "4"])
        assert args.workers == 1

    def test_env_workers_compute_correctly(self, capsys, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        code, out, _ = run(capsys, "betti", "polygon", "4")
        assert code == 0
        assert "poincare: 1 + 2t^3 + t^6" in out


# -- byte-for-byte output pins ----------------------------------------------

RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ],
)

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
    "deeply nested json": (["betti", "FILE"], "[" * 100000, 2, "malformed JSON"),
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
    "huge uncovered facet count": (
        ["betti", "FILE"],
        '{"dim": 2, "facets": %d, "vertex_facets": [[0, 1], [1, 2], [0, 2]]}' % 10**30,
        2,
        "facets [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and %d more meet" % (10**30 - 13),
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
