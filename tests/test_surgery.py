import random

import pytest

import momentangle.moment_angle as moment_angle_module
from invariants import euler_characteristic, has_torsion, is_symmetric
from isomorphism import are_combinatorially_isomorphic
from momentangle import cli
from momentangle.homology import GradedGroups
from momentangle.moment_angle import (
    DEFAULT_MAX_VERTICES,
    PoincarePolynomial,
    SubsetLimitError,
    _usable_workers,
    betti,
    moment_angle_cohomology,
)
from momentangle.polytopes import SimplePolytope, cube, polygon, product, simplex_polytope
from momentangle.surgery import (
    TheoremReport,
    _boundary_product_groups,
    _compare,
    _connected_sum_groups,
    _prediction,
    _sphere_product_sum_groups,
    theorem_corpus,
    verify_all_cuts,
    verify_cut_theorem,
)
from test_moment_angle import assert_unlisted_table, sphere_around_rp2, sphere_table_off
from walk import counted, factors_of


def sphere(d):
    return GradedGroups({0: (1, ()), d: (1, ())})


class TestBoundaryProduct:
    def test_five_sphere(self):
        assert betti(_boundary_product_groups(sphere(5), 5)) == PoincarePolynomial(
            {0: 1, 6: 1}
        )

    def test_sphere_product(self):
        s3s3 = GradedGroups({0: (1, ()), 3: (2, ()), 6: (1, ())})
        out = _boundary_product_groups(s3s3, 6)
        assert betti(out) == PoincarePolynomial({0: 1, 3: 2, 4: 2, 7: 1})

    def test_spheres_in_spheres_out(self):
        for d in range(2, 11):
            assert _boundary_product_groups(sphere(d), d) == sphere(d + 1)

    def test_rank_identity_with_input_polynomial(self):
        # P_W(t) = P_Z(t)(1+t) - t - t^d, checked coefficient-wise
        for p in [polygon(5), cube(3), simplex_polytope(4)]:
            d = p.m + p.n
            h = moment_angle_cohomology(p.dual_complex())
            w = betti(_boundary_product_groups(h, d))
            z = betti(h)
            expected = {}
            for deg in z.degrees():
                expected[deg] = expected.get(deg, 0) + z.coefficient(deg)
                expected[deg + 1] = expected.get(deg + 1, 0) + z.coefficient(deg)
            expected[1] = expected.get(1, 0) - 1
            expected[d] = expected.get(d, 0) - 1
            assert w == PoincarePolynomial({k: v for k, v in expected.items() if v})

    def test_duality_propagates(self):
        for p in [polygon(4), polygon(7), simplex_polytope(3)]:
            d = p.m + p.n
            h = moment_angle_cohomology(p.dual_complex())
            assert is_symmetric(betti(h), d)
            assert is_symmetric(betti(_boundary_product_groups(h, d)), d + 1)

    def test_torsion_duplicated_into_adjacent_degree(self):
        g = GradedGroups({0: (1, ()), 2: (1, (3,)), 5: (1, ())})
        out = _boundary_product_groups(g, 5)
        assert out.torsion(2) == (3,)
        assert out.torsion(3) == (3,)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="rank 1"):
            _boundary_product_groups(GradedGroups({0: (2, ()), 5: (1, ())}), 5)
        with pytest.raises(ValueError, match="rank 1"):
            _boundary_product_groups(GradedGroups({0: (1, ())}), 5)
        with pytest.raises(ValueError, match="torsion"):
            _boundary_product_groups(
                GradedGroups({0: (1, ()), 1: (0, (2,)), 5: (1, ())}), 5
            )
        with pytest.raises(ValueError, match="torsion"):
            _boundary_product_groups(
                GradedGroups({0: (1, ()), 5: (1, (2,))}), 5
            )
        with pytest.raises(ValueError, match="outside"):
            _boundary_product_groups(
                GradedGroups({0: (1, ()), 5: (1, ()), 6: (1, ())}), 5
            )
        with pytest.raises(ValueError, match=">= 2"):
            _boundary_product_groups(sphere(1), 1)


class TestSphereProductSum:
    def test_single_summand(self):
        assert _sphere_product_sum_groups(3, 2) == GradedGroups(
            {0: (1, ()), 3: (2, ()), 6: (1, ())}
        )

    def test_two_summand_family(self):
        assert betti(_sphere_product_sum_groups(4, 2)) == PoincarePolynomial(
            {0: 1, 3: 3, 4: 3, 7: 1}
        )

    def test_codimension_one_family(self):
        # m = n+1: a single S^3 x S^{2n-1} summand in dimension 2n+2
        for n in range(2, 7):
            out = _sphere_product_sum_groups(n + 1, n)
            expected = {0: 1, 3: 1, 2 * n - 1: 1, 2 * n + 2: 1}
            if n == 2:  # degrees 3 and 2n-1 coincide
                expected = {0: 1, 3: 2, 6: 1}
            assert betti(out) == PoincarePolynomial(expected)

    def test_symmetry_over_parameter_range(self):
        for m in range(2, 11):
            for n in range(1, m):
                out = _sphere_product_sum_groups(m, n)
                assert is_symmetric(betti(out), m + n + 1)
                assert not has_torsion(out)

    def test_total_rank_counts_summands(self):
        # each of the 2^{m-n} - 1 summands contributes two middle classes
        for m, n in [(5, 2), (6, 3), (8, 2)]:
            out = _sphere_product_sum_groups(m, n)
            middles = sum(out.rank(k) for k in range(1, m + n + 1))
            assert middles == 2 * (2 ** (m - n) - 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="m > n"):
            _sphere_product_sum_groups(3, 3)
        with pytest.raises(ValueError, match="m > n"):
            _sphere_product_sum_groups(2, 0)


class TestConnectedSum:
    def test_sphere_is_identity(self):
        s3s3 = GradedGroups({0: (1, ()), 3: (2, ()), 6: (1, ())})
        assert _connected_sum_groups([sphere(6), s3s3], 6) == s3s3

    def test_two_products(self):
        part = GradedGroups({0: (1, ()), 3: (1, ()), 4: (1, ()), 7: (1, ())})
        out = _connected_sum_groups([part, part], 7)
        assert betti(out) == PoincarePolynomial({0: 1, 3: 2, 4: 2, 7: 1})

    def test_single_part(self):
        part = GradedGroups({0: (1, ()), 2: (1, (5,)), 4: (1, ())})
        assert _connected_sum_groups([part], 4) == part

    def test_associative_and_order_independent(self):
        rng = random.Random(3)
        parts = [
            GradedGroups({0: (1, ()), 2: (2, ()), 5: (1, ())}),
            GradedGroups({0: (1, ()), 3: (1, (2,)), 5: (1, ())}),
            GradedGroups({0: (1, ()), 1: (1, ()), 4: (1, ()), 5: (1, ())}),
        ]
        base = _connected_sum_groups(parts, 5)
        nested = _connected_sum_groups(
            [_connected_sum_groups(parts[:2], 5), parts[2]], 5
        )
        assert nested == base
        for _ in range(4):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert _connected_sum_groups(shuffled, 5) == base

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            _connected_sum_groups([], 5)
        with pytest.raises(ValueError, match="not a d=5"):
            _connected_sum_groups([sphere(4)], 5)
        with pytest.raises(ValueError, match="outside"):
            bad = GradedGroups({0: (1, ()), 6: (1, ()), 5: (1, ())})
            _connected_sum_groups([bad], 5)


def predict_cut_betti(p, workers=1):
    """The prediction for P's cut from P alone, as verify_cut_theorem forms it."""
    return _prediction(p, moment_angle_cohomology(p, workers=workers))


class TestPrediction:
    def test_triangle(self):
        assert betti(predict_cut_betti(simplex_polytope(2))) == PoincarePolynomial(
            {0: 1, 3: 2, 6: 1}
        )

    def test_square(self):
        assert betti(predict_cut_betti(polygon(4))) == PoincarePolynomial(
            {0: 1, 3: 5, 4: 5, 7: 1}
        )

    def test_tetrahedron(self):
        assert betti(predict_cut_betti(simplex_polytope(3))) == PoincarePolynomial(
            {0: 1, 3: 1, 5: 1, 8: 1}
        )

    def test_worker_count_does_not_change_prediction(self):
        p = polygon(5)
        assert predict_cut_betti(p) == predict_cut_betti(p, workers=2)


class TestVerification:
    def test_triangle_report(self):
        report = verify_cut_theorem(simplex_polytope(2), 0)
        assert report.match
        assert report.vertex == 0
        assert report.diff == ()
        assert report.lhs == report.rhs
        assert betti(report.lhs) == PoincarePolynomial({0: 1, 3: 2, 6: 1})

    def test_square_report(self):
        report = verify_cut_theorem(polygon(4), 0)
        assert report.match
        assert betti(report.lhs) == PoincarePolynomial({0: 1, 3: 5, 4: 5, 7: 1})

    def test_pentagon_lhs_is_hexagon_computation(self):
        report = verify_cut_theorem(polygon(5), 0)
        assert report.match
        hexagon_direct = moment_angle_cohomology(polygon(6).dual_complex())
        assert report.lhs == hexagon_direct

    def test_description_defaults(self):
        report = verify_cut_theorem(polygon(4), 1)
        assert report.polytope == "simple 2-polytope with 4 facets"
        named = verify_cut_theorem(polygon(4), 1, description="square")
        assert named.polytope == "square"

    def test_vertex_transitive_inputs_give_identical_reports(self):
        for p in [polygon(5), simplex_polytope(3), cube(3)]:
            reports = verify_all_cuts(p)
            assert len(reports) == p.vertex_count
            assert all(r.match for r in reports)
            first = reports[0]
            for r in reports[1:]:
                assert r.lhs == first.lhs
                assert r.rhs == first.rhs

    def test_mismatch_reporting(self):
        lhs = GradedGroups({0: (1, ()), 3: (2, ()), 6: (1, ())})
        rhs = GradedGroups({0: (1, ()), 3: (1, (2,)), 6: (1, ())})
        report = _compare("probe", 0, lhs, rhs)
        assert not report.match
        assert report.diff == ((3, (2, ()), (1, (2,))),)
        payload = report.to_json_dict()
        assert payload["match"] is False
        assert payload["diff"]["3"]["lhs"] == {"rank": 2, "torsion": []}
        assert payload["diff"]["3"]["rhs"] == {"rank": 1, "torsion": [2]}

    def test_report_json_shape(self):
        payload = verify_cut_theorem(simplex_polytope(2), 0).to_json_dict()
        assert set(payload) == {"polytope", "vertex", "lhs", "rhs", "match", "diff"}
        assert payload["match"] is True
        assert payload["diff"] == {}
        assert payload["lhs"] == payload["rhs"]
        assert payload["lhs"]["3"] == {"rank": 2, "torsion": []}


def cut_in_turn(p, vertices):
    """P after cutting the listed vertices one after another."""
    for v in vertices:
        p = p.cut_vertex(v)
    return p


class TestBeyondTheProvedRange:
    """m >= 3n in dimension n >= 3, outside the range m < 3n proved by Gitler-Lopez."""

    def check(self, p, reports):
        assert p.n >= 3 and p.m >= 3 * p.n
        for r in reports:
            poly = betti(r.lhs)
            assert r.match
            assert is_symmetric(poly, p.m + 1 + p.n)  # Z(P_v) has m + 1 facets
            assert euler_characteristic(poly) == 0

    def test_every_cut_of_a_simplex_after_five_cuts(self):
        p = cut_in_turn(simplex_polytope(3), [0, 4, 1, 7, 2])
        reports = verify_all_cuts(p)
        assert (p.m, len(reports)) == (9, 14)
        self.check(p, reports)

    def test_every_cut_of_a_cube_after_three_cuts(self):
        p = cut_in_turn(cube(3), [0, 9, 3])
        reports = verify_all_cuts(p)
        assert (p.m, len(reports)) == (9, 14)
        self.check(p, reports)

    @pytest.mark.parametrize("v", [0, 10, 25])
    def test_a_simplex_after_seven_cuts(self, v):
        p = cut_in_turn(simplex_polytope(4), [0, 5, 1, 9, 2, 13, 3])
        assert p.m == 12
        self.check(p, [verify_cut_theorem(p, v)])

    def test_a_cut_with_torsion(self, monkeypatch):
        # the 4-sphere around RP2 is the dual of a simple 5-polytope with 16
        # facets; Z(P) has the Z/2 of RP2 and of its complement, and the cut
        # at vertex 0 carries them to degrees 9, 10, 13 and 14.  With the
        # pool threshold at 0 the torsion goes through a pool, one per sum
        p = rp2_polytope()
        report = verify_cut_theorem(p, 0)
        self.check(p, [report])
        torsion = {d: report.lhs.torsion(d) for d in report.lhs.degrees() if report.lhs.torsion(d)}
        assert torsion == {9: (2,), 10: (2,), 13: (2,), 14: (2,)}
        monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 0)
        with counted() as trace:
            assert verify_cut_theorem(p, 0, workers=2) == report
        assert trace.pools == ([2, 2] if _usable_workers(2) == 2 else [])


def rp2_polytope():
    """The simple 5-polytope with 16 facets dual to the 4-sphere around RP2."""
    return SimplePolytope(5, 16, tuple(sorted(sphere_around_rp2().maximal_faces)))


def beyond_the_proved_range():
    """The polytopes of ``TestBeyondTheProvedRange``."""
    return [
        ("simplex-3 cut 5 times", cut_in_turn(simplex_polytope(3), [0, 4, 1, 7, 2])),
        ("cube-3 cut 3 times", cut_in_turn(cube(3), [0, 9, 3])),
        ("simplex-4 cut 7 times", cut_in_turn(simplex_polytope(4), [0, 5, 1, 9, 2, 13, 3])),
        ("rp2-polytope", rp2_polytope()),
    ]


def assert_cut_factors_are_spheres(p):
    """Every join factor of every cut's dual, certified in its own call, is a
    sphere of the dimension of its own faces: listed for the walk, it was
    certified as one; summed unlisted, it is ∂Δ or a sphere of dimension
    ≤ 3 (``assert_unlisted_table``), whose table is the walk's below
    dimension 3.  A 3-sphere's table is left to the sphere-table tests of
    tests/test_engine_properties.py: on the long cut sequences of the
    4-simplex and 4-cube its walk takes about 30 times the rest."""
    for v in range(p.vertex_count):
        cut = p.cut_vertex(v)
        for factor in factors_of(cut):
            if factor.bits is None:
                assert_unlisted_table(cut.dual_complex(), factor, walked=factor.dim < 3)
            else:
                assert factor.dim == max(map(int.bit_count, factor.faces.facets)) - 1, v


# the minimal 7-vertex torus; as vertex records it is a "simple 3-polytope"
# with 7 facets whose dual is not a sphere
TORUS = SimplePolytope(3, 7, tuple(sorted(
    {tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    | {tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)}
)))


class TestInheritedCertificate:
    """verify certifies P's join factors only; each cut inherits the certificate."""

    @pytest.mark.parametrize(
        "p", [p for _, p in theorem_corpus() + beyond_the_proved_range()],
        ids=[name for name, _ in theorem_corpus() + beyond_the_proved_range()],
    )
    def test_every_cut_factor_is_a_sphere(self, p):
        assert_cut_factors_are_spheres(p)

    @pytest.mark.parametrize(
        "p", [p for _, p in theorem_corpus() + beyond_the_proved_range()[:3]],
        ids=[name for name, _ in theorem_corpus() + beyond_the_proved_range()[:3]],
    )
    def test_reports_equal_certified_sums(self, p):
        # moment_angle_cohomology certifies each cut afresh
        reports = verify_all_cuts(p)
        assert [r.vertex for r in reports] == list(range(p.vertex_count))
        for r in reports:
            assert r.lhs == moment_angle_cohomology(p.cut_vertex(r.vertex))

    def test_only_the_polytopes_factors_are_certified(self):
        # the dual of the 3-cube is S^0 * S^0 * S^0, three ∂Δ^1 that need
        # no certificate, so neither it nor its 8 cuts certify anything; the
        # pentagon is certified once, and its 5 cuts inherit that; so is
        # the 3-sphere of simplex-4 cut twice, and its 11 cuts inherit that
        with counted() as trace:
            reports = verify_all_cuts(cube(3))
            assert len(reports) == 8 and all(r.match for r in reports)
            assert trace.certified == trace.tested == []
            reports = verify_all_cuts(polygon(5))
            assert len(reports) == 5 and all(r.match for r in reports)
            assert trace.certified == [] and trace.tested == [(5, 1, True)]
            assert trace.built == trace.numbered == []
            reports = verify_all_cuts(cut_in_turn(simplex_polytope(4), [0, 5]))
            assert len(reports) == 11 and all(r.match for r in reports)
        assert trace.certified == [7]
        assert trace.tested == [(5, 1, True)]

    def test_cuts_of_a_two_sphere_are_summed_unwalked(self, capsys, monkeypatch):
        # cube-3 cut three times is a 2-sphere on 9 vertices, certified once
        # by the facet test; it and each of its 14 cuts, which inherit the
        # certificate, are summed from their facets with no numbering, no
        # face listing and no walk.  The JSON of verify --all-vertices is the
        # same with every factor walked, and then nothing is certified twice
        argv = ["verify", *"cut-vertex ( cut-vertex ( cut-vertex ( cube 3 ) 0 ) 9 ) 3".split(),
                "--all-vertices", "--json"]
        with counted() as trace:
            assert cli.main(argv) == 0
        summed = capsys.readouterr().out
        assert trace.certified == [] and trace.tested == [(9, 2, True)]
        assert trace.summed == [(9, 2)] + [(10, 2)] * 14
        assert trace.built == trace.numbered == trace.walks == []
        sphere_table_off(monkeypatch)
        with counted() as trace:
            assert cli.main(argv) == 0
        assert capsys.readouterr().out == summed
        assert trace.summed == [] and [d for _, d in trace.walks] == [2] * 15
        assert trace.certified == [] and trace.tested == [(9, 2, True)]

    def test_a_non_sphere_certifies_every_cut(self):
        # the torus has 14 triangles on 7 vertices, χ = 7 - 14/2 = 0, so the
        # surface test finds no sphere, in it or in any cut, which is a torus
        # on 8 vertices; each is summed as a surface, not walked
        with counted() as trace:
            reports = verify_all_cuts(TORUS)
        assert trace.tested == [(7, 2, False)] + [(8, 2, False)] * 14
        assert trace.surfaces == [(7, 0, True)] + [(8, 0, True)] * 14
        assert trace.certified == trace.walks == [] and trace.summed == [(7, 2)] + [(8, 2)] * 14
        assert [r.vertex for r in reports] == list(range(14))
        lhs = GradedGroups({0: (1, ()), 3: (4, ()), 4: (6, ()), 5: (26, ()), 6: (75, ()),
                            7: (97, ()), 8: (60, ()), 9: (16, ()), 10: (2, ()), 11: (1, ())})
        for r in reports:
            assert r.match and r.lhs == r.rhs == lhs
            assert r.lhs == moment_angle_cohomology(TORUS.cut_vertex(r.vertex))


class TestWorkerCount:
    @pytest.mark.parametrize(
        "p, pooled",
        [
            (simplex_polytope(4), False),
            (cube(3), True),
            (product(simplex_polytope(2), simplex_polytope(1)), True),
            (polygon(5), True),
        ],
        ids=["simplex-4", "cube-3", "prism", "pentagon"],
    )
    def test_reports_are_the_same_at_one_and_two_workers(self, p, pooled, monkeypatch):
        # with the pool threshold at 0 and no sphere summed from its
        # f-vector, every walked factor goes to the pool, and its reports
        # must equal the serial closed forms; simplex-4 and its cuts, ∂Δ^4
        # and ∂Δ^3 * S^0, walk nothing
        serial = verify_all_cuts(p)
        sphere_table_off(monkeypatch)
        monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 0)
        with counted() as trace:
            assert verify_all_cuts(p, workers=2) == serial
        assert all(r.match for r in serial)
        assert bool(trace.pools) == (pooled and _usable_workers(2) == 2)


class TestSubsetCap:
    """The cap is checked on P's facet count, before any dual complex is built."""

    @pytest.fixture(autouse=True)
    def no_dual_complex(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a dual complex was built")

        monkeypatch.setattr(SimplePolytope, "dual_complex", refuse)

    def test_cut_of_a_polytope_at_the_cap(self):
        # P itself is within the cap; its cut, with one facet more, is not
        with pytest.raises(SubsetLimitError) as caught:
            verify_cut_theorem(polygon(22), 3)
        assert (caught.value.m, caught.value.limit) == (23, DEFAULT_MAX_VERTICES)
        with pytest.raises(SubsetLimitError) as caught:
            verify_all_cuts(polygon(5), max_vertices=5)
        assert (caught.value.m, caught.value.limit) == (6, 5)


class TestCorpus:
    def test_contents(self):
        names = [name for name, _ in theorem_corpus()]
        assert names == [
            "polygon-3", "polygon-4", "polygon-5", "polygon-6", "polygon-7",
            "polygon-8", "simplex-2", "simplex-3", "simplex-4", "cube-3",
            "prism", "pentagon-cut-0",
        ]

    def test_iterated_entry_is_a_hexagon(self):
        entry = dict(theorem_corpus())["pentagon-cut-0"]
        assert are_combinatorially_isomorphic(entry, polygon(6))

    def test_small_corpus_members_verify(self):
        for name, p in theorem_corpus():
            if p.m <= 5:
                assert all(r.match for r in verify_all_cuts(p, description=name))
