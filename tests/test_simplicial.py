import json
import random

import pytest

from isomorphism import are_isomorphic
from momentangle.simplicial import (
    SimplicialComplex,
    as_simplex,
    boundary_complex,
    full_simplex,
    join,
)


def cycle(m):
    return SimplicialComplex(m, [(i, (i + 1) % m) for i in range(m)])


class TestConstruction:
    def test_canonicalizes_and_prunes(self):
        k = SimplicialComplex(3, [[1, 0], [0], [2]])
        assert k.maximal_faces == frozenset({(0, 1), (2,)})

    def test_duplicate_faces_collapse(self):
        k = SimplicialComplex(2, [[0, 1], [1, 0]])
        assert k.maximal_faces == frozenset({(0, 1)})

    def test_empty_face_pruned_when_others_exist(self):
        k = SimplicialComplex(2, [(), (0,)])
        assert k.maximal_faces == frozenset({(0,)})

    def test_void_and_empty_are_distinct(self):
        void = SimplicialComplex(0, [])
        empty = SimplicialComplex(0, [()])
        assert void != empty
        assert void.dim == -2 and empty.dim == -1
        assert void.is_void and not empty.is_void

    def test_ghost_vertices_tracked(self):
        k = SimplicialComplex(5, [(0, 1)])
        assert k.vertex_count == 5
        assert k.faces_of_dimension(0) == [(0,), (1,)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SimplicialComplex(2, [(0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            SimplicialComplex(2, [(-1,)])

    def test_no_maximal_face_contains_another(self):
        for k in [cycle(5), boundary_complex(3), full_simplex(3)]:
            faces = sorted(k.maximal_faces)
            for i, f in enumerate(faces):
                for j, g in enumerate(faces):
                    if i != j:
                        assert not set(f) <= set(g)


class TestStandardComplexes:
    def test_full_simplex_point(self):
        assert full_simplex(0).maximal_faces == frozenset({(0,)})

    def test_full_simplex_triangle(self):
        k = full_simplex(2)
        assert k.vertex_count == 3
        assert k.maximal_faces == frozenset({(0, 1, 2)})

    def test_full_simplex_three(self):
        k = full_simplex(3)
        assert k.vertex_count == 4
        assert k.maximal_faces == frozenset({(0, 1, 2, 3)})

    def test_full_simplex_negative_rejected(self):
        with pytest.raises(ValueError):
            full_simplex(-1)

    def test_boundary_of_segment(self):
        assert boundary_complex(1).maximal_faces == frozenset({(0,), (1,)})

    def test_boundary_of_triangle(self):
        assert boundary_complex(2).maximal_faces == frozenset(
            {(0, 1), (0, 2), (1, 2)}
        )

    def test_boundary_of_tetrahedron(self):
        k = boundary_complex(3)
        assert k.vertex_count == 4
        assert len(k.maximal_faces) == 4
        assert all(len(f) == 3 for f in k.maximal_faces)

    def test_boundary_of_point_rejected(self):
        with pytest.raises(ValueError):
            boundary_complex(0)


class TestQueries:
    def test_is_face(self):
        k = boundary_complex(2)
        assert k.is_face((0, 1))
        assert not k.is_face((0, 1, 2))
        assert not cycle(4).is_face((0, 2))

    def test_empty_simplex_is_face_of_nonempty(self):
        assert boundary_complex(2).is_face(())
        assert SimplicialComplex(0, [()]).is_face(())
        assert not SimplicialComplex(0, []).is_face(())

    def test_is_face_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            boundary_complex(2).is_face((7,))

    def test_faces_of_dimension(self):
        k = boundary_complex(2)
        assert k.faces_of_dimension(1) == [(0, 1), (0, 2), (1, 2)]
        assert k.faces_of_dimension(2) == []
        assert cycle(4).faces_of_dimension(0) == [(0,), (1,), (2,), (3,)]

    def test_dimension_minus_one(self):
        assert boundary_complex(2).faces_of_dimension(-1) == [()]
        assert SimplicialComplex(3, []).faces_of_dimension(-1) == []
        with pytest.raises(ValueError):
            boundary_complex(2).faces_of_dimension(-2)

    def test_f_vector_euler_for_polytopal_spheres(self):
        # dual of a simple n-polytope boundary is an (n-1)-sphere:
        # alternating sum of face counts is 1 + (-1)^{n-1}
        for n, k in [(2, cycle(6)), (3, boundary_complex(3)), (4, boundary_complex(4))]:
            total = sum(
                (-1) ** d * len(k.faces_of_dimension(d)) for d in range(0, k.dim + 1)
            )
            assert total == 1 + (-1) ** (n - 1)


class TestFullSubcomplex:
    def test_opposite_vertices_of_square(self):
        sub = cycle(4).full_subcomplex([0, 2])
        assert sub.vertex_count == 2
        assert sub.maximal_faces == frozenset({(0,), (1,)})

    def test_edge_of_triangle(self):
        sub = boundary_complex(2).full_subcomplex([0, 1])
        assert sub.maximal_faces == frozenset({(0, 1)})

    def test_identity_case(self):
        k = cycle(4)
        assert k.full_subcomplex(range(4)) == k

    def test_empty_subset_gives_empty_complex(self):
        sub = boundary_complex(2).full_subcomplex([])
        assert sub.vertex_count == 0
        assert sub.is_void

    def test_relabelling_is_order_preserving(self):
        sub = cycle(5).full_subcomplex([1, 3, 4])
        # old edge (3,4) survives as (1,2); vertex 1 is isolated as 0
        assert sub.maximal_faces == frozenset({(0,), (1, 2)})

    def test_subset_with_no_faces_keeps_empty_face(self):
        k = SimplicialComplex(3, [(0, 1)])
        sub = k.full_subcomplex([2])
        # vertex 2 is a ghost: the restriction has only the empty face
        assert sub.vertex_count == 1
        assert sub.maximal_faces == frozenset({()})

    def test_full_subcomplex_of_void(self):
        assert SimplicialComplex(3, []).full_subcomplex([0, 1]).is_void

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            cycle(4).full_subcomplex([0, 9])


class TestConnectedSum:
    def test_triangle_becomes_square(self):
        out = boundary_complex(2).connected_sum_at_facet((0, 1))
        assert out.vertex_count == 4
        assert out.maximal_faces == frozenset({(0, 2), (1, 2), (0, 3), (1, 3)})

    def test_tetrahedron_boundary(self):
        out = boundary_complex(3).connected_sum_at_facet((0, 1, 2))
        assert out.vertex_count == 5
        assert out.maximal_faces == frozenset(
            {(0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 2, 4), (0, 2, 4), (0, 1, 4)}
        )

    def test_face_count_and_purity(self):
        for k, s in [
            (boundary_complex(2), (0, 2)),
            (boundary_complex(3), (1, 2, 3)),
            (cycle(6), (2, 3)),
        ]:
            out = k.connected_sum_at_facet(s)
            assert len(out.maximal_faces) == len(k.maximal_faces) - 1 + len(s)
            assert all(len(f) == len(s) for f in out.maximal_faces)
            assert not out.is_face(s)

    def test_all_edges_of_triangle_give_squares(self):
        square = cycle(4)
        for s in boundary_complex(2).maximal_faces:
            out = boundary_complex(2).connected_sum_at_facet(s)
            assert are_isomorphic(out, square)

    def test_not_maximal_rejected(self):
        with pytest.raises(ValueError, match="not a maximal face"):
            boundary_complex(3).connected_sum_at_facet((0, 1))

    def test_single_face_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            full_simplex(2).connected_sum_at_facet((0, 1, 2))


class TestJoin:
    def test_point_with_point(self):
        out = join(full_simplex(0), full_simplex(0))
        assert out.maximal_faces == frozenset({(0, 1)})

    def test_sphere_zero_twice_is_circle(self):
        out = join(boundary_complex(1), boundary_complex(1))
        assert out.vertex_count == 4
        assert out.maximal_faces == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})
        assert are_isomorphic(out, cycle(4))

    def test_join_with_void_rejected(self):
        with pytest.raises(ValueError, match="at least one face"):
            join(boundary_complex(1), SimplicialComplex(2, []))


class TestRelabeling:
    def test_relabeled_faces(self):
        k = cycle(4).relabeled([1, 2, 3, 0])
        assert k.maximal_faces == frozenset({(1, 2), (2, 3), (0, 3), (0, 1)})

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            cycle(4).relabeled([0, 0, 1, 2])

    def test_relabeling_preserves_isomorphism_type(self):
        rng = random.Random(7)
        for k in [cycle(5), boundary_complex(3)]:
            perm = list(range(k.vertex_count))
            rng.shuffle(perm)
            assert are_isomorphic(k, k.relabeled(perm))


class TestIsomorphism:
    def test_different_sizes(self):
        assert not are_isomorphic(cycle(4), cycle(5))

    def test_cycle_not_path(self):
        path = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)])
        assert not are_isomorphic(cycle(4), path)

    def test_same_f_vector_different_structure(self):
        # disjoint triangle + point vs star on 4 vertices: 4 vertices,
        # 3 edges each, not isomorphic
        tri_plus = SimplicialComplex(4, [(0, 1), (0, 2), (1, 2), (3,)])
        star = SimplicialComplex(4, [(0, 1), (0, 2), (0, 3)])
        assert not are_isomorphic(tri_plus, star)

    def test_ghosts_must_match(self):
        a = SimplicialComplex(3, [(0, 1)])
        b = SimplicialComplex(3, [(1, 2)])
        assert are_isomorphic(a, b)


class TestSerialization:
    def test_round_trip(self):
        for k in [cycle(5), boundary_complex(3), SimplicialComplex(3, [()]),
                  SimplicialComplex(2, [])]:
            assert SimplicialComplex.from_json(k.to_json()) == k

    def test_byte_stable(self):
        k = SimplicialComplex(4, [(3, 1), (0, 2), (1, 2)])
        text = k.to_json()
        assert text == SimplicialComplex.from_json(text).to_json()
        assert json.loads(text) == {
            "vertices": 4,
            "maximal_faces": [[0, 2], [1, 2], [1, 3]],
        }

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            SimplicialComplex.from_json_dict({"vertices": 3})


def test_as_simplex_sorts_and_dedupes():
    assert as_simplex([3, 1, 3, 2]) == (1, 2, 3)
