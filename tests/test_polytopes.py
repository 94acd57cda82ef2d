import pytest

from isomorphism import are_combinatorially_isomorphic, are_isomorphic
from momentangle.polytopes import (
    SimplePolytope,
    cube,
    polygon,
    product,
    simplex_polytope,
)
from momentangle.simplicial import SimplicialComplex


class TestConstructors:
    def test_triangle(self):
        p = simplex_polytope(2)
        assert (p.dim, p.facet_count) == (2, 3)
        assert set(p.vertex_facets) == {(0, 1), (0, 2), (1, 2)}

    def test_segment(self):
        p = simplex_polytope(1)
        assert set(p.vertex_facets) == {(0,), (1,)}

    def test_simplex_three(self):
        p = simplex_polytope(3)
        assert p.facet_count == 4
        assert p.vertex_count == 4
        # vertex i omits facet i
        assert p.vertex_facets[0] == (1, 2, 3)

    def test_polygon_triangle_matches_simplex(self):
        assert set(polygon(3).vertex_facets) == set(simplex_polytope(2).vertex_facets)

    def test_square(self):
        p = polygon(4)
        assert p.vertex_count == 4
        assert set(p.vertex_facets) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_pentagon(self):
        assert polygon(5).vertex_count == 5

    def test_polygon_too_small(self):
        with pytest.raises(ValueError):
            polygon(2)

    def test_cube_is_product_of_segments(self):
        c = cube(3)
        assert (c.dim, c.facet_count, c.vertex_count) == (3, 6, 8)
        assert cube(1) == simplex_polytope(1)

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError):
            simplex_polytope(0)
        with pytest.raises(ValueError):
            cube(0)


class TestValidation:
    def test_simplicity_violation_named(self):
        with pytest.raises(ValueError, match="simplicity"):
            SimplePolytope(2, 3, ((0, 1), (0, 1, 2), (1, 2)))

    def test_repeated_facet_in_record(self):
        with pytest.raises(ValueError, match="simplicity"):
            SimplePolytope(2, 3, ((0, 0), (0, 2), (1, 2)))

    def test_distinct_vertices_named(self):
        with pytest.raises(ValueError, match="distinct_vertices"):
            SimplePolytope(2, 3, ((0, 1), (0, 1), (1, 2)))

    def test_facet_coverage_named(self):
        with pytest.raises(ValueError, match="facet_coverage"):
            SimplePolytope(2, 4, ((0, 1), (1, 2), (0, 2)))

    def test_facet_count_bound(self):
        with pytest.raises(ValueError, match="facet_count"):
            SimplePolytope(2, 2, ((0, 1),))

    def test_out_of_range_facet(self):
        with pytest.raises(ValueError, match="out of range"):
            SimplePolytope(2, 3, ((0, 1), (0, 5), (1, 2)))


class TestProduct:
    def test_square_from_segments(self):
        p = product(simplex_polytope(1), simplex_polytope(1))
        assert (p.dim, p.facet_count, p.vertex_count) == (2, 4, 4)
        assert are_combinatorially_isomorphic(p, polygon(4))

    def test_prism(self):
        p = product(simplex_polytope(1), simplex_polytope(2))
        assert (p.dim, p.facet_count, p.vertex_count) == (3, 5, 6)

    def test_point_is_not_a_polytope(self):
        # there is no valid 0-dimensional SimplePolytope to multiply with
        with pytest.raises(ValueError):
            SimplePolytope(0, 1, ((),))

    def test_simplicity_preserved(self):
        p = product(polygon(5), simplex_polytope(3))
        assert all(len(rec) == p.dim for rec in p.vertex_facets)


class TestDualComplex:
    def test_triangle_dual_is_cycle(self):
        from momentangle.simplicial import boundary_complex

        assert simplex_polytope(2).dual_complex() == boundary_complex(2)

    def test_square_dual_is_four_cycle(self):
        k = polygon(4).dual_complex()
        assert k.maximal_faces == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_product_dual_is_join(self):
        from momentangle.simplicial import join

        left = simplex_polytope(1).dual_complex()
        right = simplex_polytope(1).dual_complex()
        assert are_isomorphic(
            product(simplex_polytope(1), simplex_polytope(1)).dual_complex(),
            join(left, right),
        )


class TestCutVertex:
    def test_triangle_cut_gives_square(self):
        for v in range(3):
            q = simplex_polytope(2).cut_vertex(v)
            assert (q.dim, q.facet_count, q.vertex_count) == (2, 4, 4)
            assert are_combinatorially_isomorphic(q, polygon(4))

    def test_square_cut_gives_pentagon(self):
        for v in range(4):
            q = polygon(4).cut_vertex(v)
            assert are_combinatorially_isomorphic(q, polygon(5))

    def test_polygon_cut_is_next_polygon(self):
        for m in range(3, 9):
            for v in range(m):
                assert are_combinatorially_isomorphic(
                    polygon(m).cut_vertex(v), polygon(m + 1)
                )

    def test_tetrahedron_cut_counts(self):
        q = simplex_polytope(3).cut_vertex(0)
        assert (q.facet_count, q.vertex_count) == (5, 6)
        assert all(len(rec) == 3 for rec in q.vertex_facets)

    def test_counts_grow_as_expected(self):
        for p in [polygon(6), cube(3), simplex_polytope(4)]:
            q = p.cut_vertex(1)
            assert q.facet_count == p.facet_count + 1
            assert q.vertex_count == p.vertex_count + p.dim - 1

    def test_new_facet_takes_index_m(self):
        q = polygon(4).cut_vertex(0)
        new_records = [rec for rec in q.vertex_facets if 4 in rec]
        assert len(new_records) == 2

    def test_invalid_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            polygon(4).cut_vertex(4)

    def test_dual_consistency_exact(self):
        # dual of the cut equals the connected sum on the dual, under the
        # package's shared labeling (new facet = new vertex = old count)
        corpus = [
            polygon(4),
            polygon(6),
            simplex_polytope(2),
            simplex_polytope(3),
            cube(3),
            product(simplex_polytope(1), simplex_polytope(2)),
        ]
        for p in corpus:
            for v in range(p.vertex_count):
                direct = p.cut_vertex(v).dual_complex()
                dual_side = p.dual_complex().connected_sum_at_facet(
                    p.vertex_facets[v]
                )
                assert direct == dual_side


class TestSerialization:
    def test_round_trip(self):
        for p in [polygon(5), cube(3), simplex_polytope(3).cut_vertex(2)]:
            assert SimplePolytope.from_json(p.to_json()) == p

    def test_json_shape(self):
        d = simplex_polytope(2).to_json_dict()
        assert d == {
            "dim": 2,
            "facets": 3,
            "vertex_facets": [[1, 2], [0, 2], [0, 1]],
        }

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            SimplePolytope.from_json_dict({"dim": 2})

    def test_invalid_structure_in_file_data(self):
        with pytest.raises(ValueError, match="simplicity"):
            SimplePolytope.from_json_dict(
                {"dim": 2, "facets": 3, "vertex_facets": [[0, 1, 2], [0, 2], [1, 2]]}
            )


def test_combinatorial_isomorphism_negative():
    assert not are_combinatorially_isomorphic(polygon(4), polygon(5))
    assert not are_combinatorially_isomorphic(cube(3), simplex_polytope(3))


def test_dual_complex_of_cut_vertex_count():
    k = cube(3).cut_vertex(0).dual_complex()
    assert k.vertex_count == 7
    assert len(k.maximal_faces) == 10
