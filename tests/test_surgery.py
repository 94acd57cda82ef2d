import random

import pytest

from isomorphism import are_combinatorially_isomorphic
from momentangle.homology import GradedGroups
from momentangle.moment_angle import PoincarePolynomial, betti, moment_angle_cohomology
from momentangle.polytopes import cube, polygon, product, simplex_polytope
from momentangle.surgery import (
    TheoremReport,
    _compare,
    boundary_product_groups,
    connected_sum_groups,
    predict_cut_betti,
    sphere_product_sum_groups,
    theorem_corpus,
    verify_all_cuts,
    verify_cut_theorem,
)


def sphere(d):
    return GradedGroups.sphere(0).direct_sum(GradedGroups.sphere(d))


class TestBoundaryProduct:
    def test_five_sphere(self):
        assert betti(boundary_product_groups(sphere(5), 5)) == PoincarePolynomial(
            {0: 1, 6: 1}
        )

    def test_sphere_product(self):
        s3s3 = GradedGroups({0: (1, ()), 3: (2, ()), 6: (1, ())})
        out = boundary_product_groups(s3s3, 6)
        assert betti(out) == PoincarePolynomial({0: 1, 3: 2, 4: 2, 7: 1})

    def test_spheres_in_spheres_out(self):
        for d in range(2, 11):
            assert boundary_product_groups(sphere(d), d) == sphere(d + 1)

    def test_rank_identity_with_input_polynomial(self):
        # P_W(t) = P_Z(t)(1+t) - t - t^d, checked coefficient-wise
        for p in [polygon(5), cube(3), simplex_polytope(4)]:
            d = p.m + p.n
            h = moment_angle_cohomology(p.dual_complex())
            w = betti(boundary_product_groups(h, d))
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
            assert betti(h).is_symmetric(d)
            assert betti(boundary_product_groups(h, d)).is_symmetric(d + 1)

    def test_torsion_duplicated_into_adjacent_degree(self):
        g = GradedGroups({0: (1, ()), 2: (1, (3,)), 5: (1, ())})
        out = boundary_product_groups(g, 5)
        assert out.torsion(2) == (3,)
        assert out.torsion(3) == (3,)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="rank 1"):
            boundary_product_groups(GradedGroups({0: (2, ()), 5: (1, ())}), 5)
        with pytest.raises(ValueError, match="rank 1"):
            boundary_product_groups(GradedGroups({0: (1, ())}), 5)
        with pytest.raises(ValueError, match="torsion"):
            boundary_product_groups(
                GradedGroups({0: (1, ()), 1: (0, (2,)), 5: (1, ())}), 5
            )
        with pytest.raises(ValueError, match="torsion"):
            boundary_product_groups(
                GradedGroups({0: (1, ()), 5: (1, (2,))}), 5
            )
        with pytest.raises(ValueError, match="outside"):
            boundary_product_groups(
                GradedGroups({0: (1, ()), 5: (1, ()), 6: (1, ())}), 5
            )
        with pytest.raises(ValueError, match=">= 2"):
            boundary_product_groups(sphere(1), 1)


class TestSphereProductSum:
    def test_single_summand(self):
        assert sphere_product_sum_groups(3, 2) == GradedGroups(
            {0: (1, ()), 3: (2, ()), 6: (1, ())}
        )

    def test_two_summand_family(self):
        assert betti(sphere_product_sum_groups(4, 2)) == PoincarePolynomial(
            {0: 1, 3: 3, 4: 3, 7: 1}
        )

    def test_codimension_one_family(self):
        # m = n+1: a single S^3 x S^{2n-1} summand in dimension 2n+2
        for n in range(2, 7):
            out = sphere_product_sum_groups(n + 1, n)
            expected = {0: 1, 3: 1, 2 * n - 1: 1, 2 * n + 2: 1}
            if n == 2:  # degrees 3 and 2n-1 coincide
                expected = {0: 1, 3: 2, 6: 1}
            assert betti(out) == PoincarePolynomial(expected)

    def test_symmetry_over_parameter_range(self):
        for m in range(2, 11):
            for n in range(1, m):
                out = sphere_product_sum_groups(m, n)
                assert betti(out).is_symmetric(m + n + 1)
                assert not out.has_torsion()

    def test_total_rank_counts_summands(self):
        # each of the 2^{m-n} - 1 summands contributes two middle classes
        for m, n in [(5, 2), (6, 3), (8, 2)]:
            out = sphere_product_sum_groups(m, n)
            middles = sum(out.rank(k) for k in range(1, m + n + 1))
            assert middles == 2 * (2 ** (m - n) - 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="m > n"):
            sphere_product_sum_groups(3, 3)
        with pytest.raises(ValueError, match="m > n"):
            sphere_product_sum_groups(2, 0)


class TestConnectedSum:
    def test_sphere_is_identity(self):
        s3s3 = GradedGroups({0: (1, ()), 3: (2, ()), 6: (1, ())})
        assert connected_sum_groups([sphere(6), s3s3], 6) == s3s3

    def test_two_products(self):
        part = GradedGroups({0: (1, ()), 3: (1, ()), 4: (1, ()), 7: (1, ())})
        out = connected_sum_groups([part, part], 7)
        assert betti(out) == PoincarePolynomial({0: 1, 3: 2, 4: 2, 7: 1})

    def test_single_part(self):
        part = GradedGroups({0: (1, ()), 2: (1, (5,)), 4: (1, ())})
        assert connected_sum_groups([part], 4) == part

    def test_associative_and_order_independent(self):
        rng = random.Random(3)
        parts = [
            GradedGroups({0: (1, ()), 2: (2, ()), 5: (1, ())}),
            GradedGroups({0: (1, ()), 3: (1, (2,)), 5: (1, ())}),
            GradedGroups({0: (1, ()), 1: (1, ()), 4: (1, ()), 5: (1, ())}),
        ]
        base = connected_sum_groups(parts, 5)
        nested = connected_sum_groups(
            [connected_sum_groups(parts[:2], 5), parts[2]], 5
        )
        assert nested == base
        for _ in range(4):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert connected_sum_groups(shuffled, 5) == base

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            connected_sum_groups([], 5)
        with pytest.raises(ValueError, match="not a d=5"):
            connected_sum_groups([sphere(4)], 5)
        with pytest.raises(ValueError, match="outside"):
            bad = GradedGroups({0: (1, ()), 6: (1, ()), 5: (1, ())})
            connected_sum_groups([bad], 5)


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
