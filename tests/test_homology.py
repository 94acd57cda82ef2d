import json
import random
from fractions import Fraction

import pytest

import momentangle.homology as homology_module
from cellular_oracle import _rank_over_q
from momentangle.homology import (
    GradedGroups,
    _boundary_column,
    _facet_sphere,
    _masks,
    _rank_and_torsion,
    invariant_factors,
    reduced_homology,
)
from momentangle.polytopes import cube, polygon, product, simplex_polytope
from momentangle.simplicial import (
    SimplicialComplex,
    boundary_complex,
    join,
)
from cellular_oracle import cellular_betti_mod_p
from complexes import (
    RP2,
    TORUS7,
    connected_sum_at_facet,
    cycle,
    faces_of_dimension,
    full_simplex,
    full_subcomplex,
)
from momentangle.moment_angle import _walk, bigraded_table, moment_angle_cohomology
from subset_oracle import IntegerMatrix, boundary_matrix, reference_sum, smith_normal_form, subset_homologies
from subset_oracle import reduced_homology as oracle_homology
from subset_oracle import sphere_dimension as oracle_sphere_dimension
import test_moment_angle
from invariants import has_torsion
from test_moment_angle import FIN, MOORE3, PINCHED_TORUS, RP2_WITH_PATH, cut_at_0, sphere_around_rp2
from walk import certified_dimension, counted, faces_of, neighbour_masks, route, steps


def matrix(rows):
    """The ``IntegerMatrix`` with these rows; the column count is read off the first."""
    return IntegerMatrix(len(rows), len(rows[0]) if rows else 0, tuple(map(tuple, rows)))


class TestInvariantFactors:
    def test_recombination(self):
        assert invariant_factors([4, 6]) == (2, 12)
        assert invariant_factors([2, 2]) == (2, 2)
        assert invariant_factors([2, 3]) == (6,)
        assert invariant_factors([12, 18, 2]) == (2, 6, 36)

    def test_ones_dropped(self):
        assert invariant_factors([1, 1, 5]) == (5,)
        assert invariant_factors([]) == ()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            invariant_factors([0])

    def test_divisibility_chain(self):
        rng = random.Random(11)
        for _ in range(50):
            values = [rng.randrange(2, 200) for _ in range(rng.randrange(1, 6))]
            chain = invariant_factors(values)
            for a, b in zip(chain, chain[1:]):
                assert b % a == 0


class TestSmithNormalForm:
    # the dense Smith normal form of tests/subset_oracle.py, the oracle's own

    def test_worked_example(self):
        diag, rank = smith_normal_form(matrix([[2, 4], [6, 8]]))
        assert (diag, rank) == ((2, 4), 2)

    def test_identity(self):
        diag, rank = smith_normal_form(
            matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        )
        assert (diag, rank) == ((1, 1, 1), 3)

    def test_zero_matrix(self):
        diag, rank = smith_normal_form(IntegerMatrix(2, 3, ((0, 0, 0), (0, 0, 0))))
        assert (diag, rank) == ((), 0)

    def test_empty_matrix(self):
        assert smith_normal_form(IntegerMatrix(0, 0, ())) == ((), 0)
        assert smith_normal_form(IntegerMatrix(3, 0, ((), (), ()))) == ((), 0)

    def test_single_negative_entry(self):
        assert smith_normal_form(matrix([[-6]])) == ((6,), 1)

    def _random_matrix(self, rng, rows, cols, lo=-9, hi=9):
        return matrix(
            [[rng.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)]
        )

    def test_rank_matches_rational_elimination(self):
        rng = random.Random(5)
        for _ in range(60):
            m = self._random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
            _, rank = smith_normal_form(m)
            rational = [[Fraction(x) for x in row] for row in m.entries]
            assert rank == _rank_over_q(rational)

    def test_first_factor_is_gcd_of_entries(self):
        import math

        rng = random.Random(6)
        for _ in range(60):
            m = self._random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            diag, _ = smith_normal_form(m)
            entries = [x for row in m.entries for x in row if x]
            if entries:
                assert diag[0] == math.gcd(*entries) if len(entries) > 1 else abs(entries[0])

    def test_product_of_factors_is_abs_determinant(self):
        rng = random.Random(8)
        hits = 0
        while hits < 40:
            m = self._random_matrix(rng, 3, 3, -6, 6)
            a = m.entries
            det = (
                a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
            )
            if det == 0:
                continue
            hits += 1
            diag, rank = smith_normal_form(m)
            assert rank == 3
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det)

    def test_transpose_invariance(self):
        rng = random.Random(9)
        for _ in range(40):
            m = self._random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            t = matrix(list(map(list, zip(*m.entries))) or [[]])
            if m.cols == 0:
                continue
            assert smith_normal_form(m) == smith_normal_form(t)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, ((1, 2),))


class TestBoundaryMatrix:
    # the dense matrices of the subset oracle in tests/subset_oracle.py

    def test_augmentation_row(self):
        m = boundary_matrix(boundary_complex(2), 0)
        assert (m.rows, m.cols) == (1, 3)
        assert m.entries == ((1, 1, 1),)

    def test_edge_boundaries_of_triangle(self):
        m = boundary_matrix(boundary_complex(2), 1)
        assert (m.rows, m.cols) == (3, 3)
        for j in range(3):
            col = [m.entries[i][j] for i in range(3)]
            assert sorted(col) == [-1, 0, 1]

    def test_degree_above_dimension_is_empty(self):
        m = boundary_matrix(boundary_complex(2), 2)
        assert (m.rows, m.cols) == (3, 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            boundary_matrix(boundary_complex(2), -1)

    def test_boundary_squared_is_zero(self):
        for k in [boundary_complex(3), RP2, cycle(6), full_simplex(3)]:
            for d in range(1, k.dim + 1):
                outer = boundary_matrix(k, d - 1)
                inner = boundary_matrix(k, d)
                for i in range(outer.rows):
                    for j in range(inner.cols):
                        assert (
                            sum(
                                outer.entries[i][x] * inner.entries[x][j]
                                for x in range(outer.cols)
                            )
                            == 0
                        )


def mask(*vertices):
    return sum(1 << v for v in vertices)


class TestBoundaryColumns:
    # the engine's own sparse columns, faces as vertex bitmasks

    def test_vertices_augment_onto_the_empty_face(self):
        faces = faces_of(boundary_complex(2))
        vertices = faces.link(0, faces.ext[0])[0]
        assert sorted(vertices) == [mask(v) for v in range(3)]
        assert [_boundary_column(f) for f in vertices] == [{0: 1}] * 3

    def test_signs_alternate_from_the_lowest_vertex(self):
        assert _boundary_column(mask(1, 3)) == {mask(3): 1, mask(1): -1}
        assert _boundary_column(mask(0, 2, 5)) == {
            mask(2, 5): 1,
            mask(0, 5): -1,
            mask(0, 2): 1,
        }
        assert _boundary_column(0) == {}

    def test_the_degenerate_complexes_list_only_their_faces(self):
        # the void complex and {∅} both have only the empty face here
        for k in [SimplicialComplex(3, []), SimplicialComplex(3, [()])]:
            assert faces_of(k).ext == {0: 0}
        # a ghost vertex, 2, adds no face
        ghost = faces_of(SimplicialComplex(3, [(0, 1)]))
        assert ghost.ext == dict.fromkeys([0, mask(0), mask(1), mask(0, 1)], mask(0, 1))

    def test_columns_agree_with_the_dense_matrices(self):
        for k in [boundary_complex(3), RP2, cycle(6), full_simplex(3)]:
            faces = faces_of(k)
            layers = faces.link(0, faces.ext[0])
            for d in range(k.dim + 1):
                dense = boundary_matrix(k, d)
                rows = [mask(*f) for f in faces_of_dimension(k, d - 1)]
                cols = [mask(*f) for f in faces_of_dimension(k, d)]
                sparse = {
                    cols[j]: {r: dense.entries[i][j] for i, r in enumerate(rows) if dense.entries[i][j]}
                    for j in range(dense.cols)
                }
                assert {f: _boundary_column(f) for f in layers[d]} == sparse

    def test_boundary_squared_is_zero(self):
        for k in [boundary_complex(3), RP2, cycle(6), full_simplex(3)]:
            column = {f: _boundary_column(f) for f in faces_of(k).ext}
            for face, col in column.items():
                total: dict[int, int] = {}
                for row, v in col.items():
                    for row2, v2 in column[row].items():
                        total[row2] = total.get(row2, 0) + v * v2
                assert not any(total.values())


class TestUnitPivotPhase:
    # (rank, invariant factors > 1) must be those of the oracle's dense
    # Smith form, whichever phase of _rank_and_torsion finds them

    @staticmethod
    def dense_answer(columns, rows):
        """Rank and invariant factors > 1 of the given rows of ``columns``."""
        matrix = IntegerMatrix(
            len(rows), len(columns), tuple(tuple(c.get(r, 0) for c in columns) for r in rows)
        )
        diagonal, rank = smith_normal_form(matrix)
        return rank, tuple(x for x in diagonal if x > 1)

    def test_random_sparse_matrices(self):
        # the second value set has no ±1 entry, so the unit phase finds no
        # pivot and the residual phase does all the work
        rng = random.Random(17)
        with_units = [1, -1, 1, -1, 2, -2, 3, 4, 6]
        no_units = [v for v in range(-12, 13) if abs(v) > 1]
        for values in (with_units, no_units):
            for _ in range(300):
                rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
                grid = [
                    [rng.choice(values) if rng.random() < 0.4 else 0 for _ in range(cols)]
                    for _ in range(rows)
                ]
                if rng.random() < 0.25:
                    at = rng.randrange(cols + 1)
                    grid = [row[:at] + [0] + row[at:] for row in grid]  # an empty column
                for entries in (grid, [list(col) for col in zip(*grid)]):
                    columns = [
                        {r: row[j] for r, row in enumerate(entries) if row[j]}
                        for j in range(len(entries[0]))
                    ]
                    # the elimination works on the columns it is given
                    rank, torsion, pivot_rows = _rank_and_torsion([dict(c) for c in columns])
                    assert (rank, torsion) == self.dense_answer(columns, range(len(entries)))
                    # the rows of ±1 pivots are unimodular on their own: their
                    # columns, after the sweep, are unitriangular on them
                    assert self.dense_answer(columns, sorted(pivot_rows)) == (len(pivot_rows), ())
                    if values is no_units:
                        assert pivot_rows == set()

    def test_pivot_rows_of_the_map_above_can_be_dropped(self):
        # each pivot row of ∂_{d+1} is a d-face whose column in ∂_d is an
        # integer combination of the others, so the engine leaves it out
        for k in [RP2, boundary_complex(3), join(RP2, boundary_complex(1)), cycle(5)]:
            faces = faces_of(k)
            layers = faces.link(0, faces.ext[0])
            for i in range(len(layers) - 1):
                pivots = _rank_and_torsion([_boundary_column(f) for f in layers[i + 1]])[2]
                kept = [_boundary_column(f) for f in layers[i] if f not in pivots]
                columns = [_boundary_column(f) for f in layers[i]]
                assert _rank_and_torsion(kept)[:2] == _rank_and_torsion(columns)[:2]

    def test_torsion_survives_to_the_residual(self):
        assert _rank_and_torsion([{0: 1, 1: 1}, {0: 1, 1: -1}])[:2] == (2, (2,))
        assert _rank_and_torsion([{0: 2}, {1: 6}, {}]) == (2, (2, 6), set())
        assert _rank_and_torsion([]) == (0, (), set())


class TestReducedHomology:
    def test_circle(self):
        h = reduced_homology(boundary_complex(2))
        assert h == GradedGroups({1: (1, ())})

    def test_two_points(self):
        h = reduced_homology(boundary_complex(1))
        assert h == GradedGroups({0: (1, ())})

    def test_spheres(self):
        for n in range(1, 7):
            h = reduced_homology(boundary_complex(n))
            assert h == GradedGroups({n - 1: (1, ())})

    def test_full_simplex_acyclic(self):
        for n in range(0, 4):
            assert reduced_homology(full_simplex(n)) == GradedGroups()

    def test_empty_and_void(self):
        expected = GradedGroups({-1: (1, ())})
        assert reduced_homology(SimplicialComplex(0, [])) == expected
        assert reduced_homology(SimplicialComplex(0, [()])) == expected
        assert reduced_homology(SimplicialComplex(4, [()])) == expected

    def test_projective_plane_torsion(self):
        h = reduced_homology(RP2)
        assert h.rank(0) == 0
        assert h.rank(1) == 0 and h.torsion(1) == (2,)
        assert h.rank(2) == 0 and h.torsion(2) == ()

    def test_mod_three_moore_space_torsion(self):
        expected = GradedGroups({1: (0, (3,))})
        assert reduced_homology(MOORE3) == expected
        assert oracle_homology(MOORE3) == expected

    def test_join_shifts_degree(self):
        s0 = boundary_complex(1)
        assert reduced_homology(join(s0, s0)) == GradedGroups({1: (1, ())})
        assert reduced_homology(join(join(s0, s0), s0)) == GradedGroups({2: (1, ())})

    def test_euler_characteristic_matches_face_counts(self):
        for k in [RP2, cycle(5), boundary_complex(4), full_simplex(3)]:
            h = reduced_homology(k)
            chi_faces = sum(
                (-1) ** d * len(faces_of_dimension(k, d)) for d in range(-1, k.dim + 1)
            )
            chi_ranks = sum((-1) ** d * h.rank(d) for d in h.degrees())
            # torsion does not enter Euler characteristics
            assert chi_ranks == chi_faces

    def test_relabeling_invariance(self):
        rng = random.Random(13)
        for k in [RP2, cycle(6), boundary_complex(3)]:
            for _ in range(5):
                perm = list(range(k.vertex_count))
                rng.shuffle(perm)
                assert reduced_homology(k.relabeled(perm)) == reduced_homology(k)

    def test_disjoint_union_counts_components(self):
        three = SimplicialComplex(5, [(0, 1), (2, 3), (4,)])
        assert reduced_homology(three) == GradedGroups({0: (2, ())})


def dropped(k):
    """K with its first maximal face taken out: that facet's ridges lie on one facet."""
    return SimplicialComplex(k.vertex_count, sorted(k.maximal_faces)[1:])


def finned(k):
    """K with a new vertex coned over a ridge of its first facet, which then lies on three facets."""
    ridge = sorted(k.maximal_faces)[0][1:]
    return SimplicialComplex(k.vertex_count + 1, list(k.maximal_faces) + [ridge + (k.vertex_count,)])


def identified(k):
    """K with vertex 0 and the lowest vertex it shares no face with made one, the
    vertices above that one moved down by one."""
    near = {v for f in k.maximal_faces if 0 in f for v in f}
    u = min(set(range(k.vertex_count)) - near)
    label = [0 if v == u else v - (v > u) for v in range(k.vertex_count)]
    return SimplicialComplex(k.vertex_count - 1, [[label[v] for v in f] for f in k.maximal_faces])


def shifted(faces, base, labels):
    """``faces`` with vertex v renamed labels[v] if v < len(labels), else v + base."""
    return [tuple(sorted(labels[v] if v < len(labels) else v + base for v in f)) for f in faces]


def circle_times(n, sphere, twist=False):
    """C_n × S on n copies of S's vertices, S given as a complex: copy i holds
    (i, a) as i·q + a.  Each prism [i, i + 1] × τ over a facet τ = a_0 < ... <
    a_k of S is cut into its staircase simplices {(i, a_0..a_j), (i + 1, a_j..a_k)};
    with ``twist`` the last prism lands on copy 0 with vertices 0 and 1 of S
    swapped, a bundle over the circle whose monodromy reverses S."""
    q = sphere.vertex_count
    swap = [1, 0] + list(range(2, q)) if twist else list(range(q))
    facets = []
    for i in range(n):
        top = [(i + 1) * q + a for a in range(q)] if i + 1 < n else swap
        for tau in sphere.maximal_faces:
            facets += [[i * q + a for a in tau[: j + 1]] + [top[a] for a in tau[j:]] for j in range(len(tau))]
    return SimplicialComplex(n * q, facets)



# the duals of cut sequences of the 4- and 5-simplex and cube, spheres of
# dimension 3 and 4, and each with a facet dropped, a fin added or two
# vertices identified, which no longer is one
CUT_SPHERES = {
    "simplex-4-cut-2": (cut_at_0(simplex_polytope(4), 2).dual_complex(), 3),
    "simplex-5-cut-2": (cut_at_0(simplex_polytope(5), 2).dual_complex(), 4),
    "cube-4-cut-1": (cut_at_0(cube(4), 1).dual_complex(), 3),
    "cube-5-cut-1": (cut_at_0(cube(5), 1).dual_complex(), 4),
}
# complexes of dimension 3 to 5 on which the certificate must give the
# oracle's answer; the oracle's dense Smith forms take about 0.5 s in all
HIGHER_CASES = {
    **CUT_SPHERES,
    "simplex-6-cut-1": (simplex_polytope(6).cut_vertex(0).dual_complex(), 5),
    **{f"{name}-{change.__name__}": (change(k), None)
       for name, (k, _) in CUT_SPHERES.items() for change in (dropped, finned, identified)},
    **{f"{name}-join-{other}": (join(sphere, k), None)
       for name, sphere in (("s0", boundary_complex(1)), ("square", cycle(4)))
       for other, k in (("rp2", RP2), ("fin", FIN), ("torus-7", SimplicialComplex(7, TORUS7)))},
    **{f"two-simplex-{n}-boundaries-at-a-vertex": (SimplicialComplex(2 * n + 1, [
        *boundary_complex(n).maximal_faces, *shifted(boundary_complex(n).maximal_faces, n, [0])]), None)
       for n in (4, 5, 6)},
    # a ghost vertex: K is connected on the vertices it has, but not on all
    "simplex-4-cut-2-and-a-ghost": (
        SimplicialComplex(8, CUT_SPHERES["simplex-4-cut-2"][0].maximal_faces), None),
    # closed 3-manifolds: every link is a sphere, and only H~(K) tells
    "circle-times-2-sphere": (circle_times(4, boundary_complex(3)), None),
    "twisted-circle-times-2-sphere": (circle_times(4, boundary_complex(3), twist=True), None),
}


class TestSphereCertificate:
    """``_facet_sphere``, the one sphere certificate, against the subset
    oracle's ``sphere_dimension``, which shares no code with it."""

    @pytest.mark.parametrize(
        "k, d",
        [
            (boundary_complex(1), 0),  # S^0
            (boundary_complex(2), 1),
            (boundary_complex(3), 2),
            (boundary_complex(5), 4),
            (polygon(7).dual_complex(), 1),
            (cube(4).dual_complex(), 3),
            (product(simplex_polytope(2), polygon(5)).dual_complex(), 3),
            (simplex_polytope(3).cut_vertex(0).cut_vertex(2).dual_complex(), 2),
            (join(boundary_complex(2), boundary_complex(3)), 4),
            (join(boundary_complex(1), polygon(5).dual_complex()), 2),
            (connected_sum_at_facet(boundary_complex(3), (0, 1, 2)), 2),
            (connected_sum_at_facet(cube(3).dual_complex(), (0, 2, 4)), 2),
        ],
    )
    def test_accepts_spheres(self, k, d):
        assert certified_dimension(k) == oracle_sphere_dimension(k) == d

    @pytest.mark.parametrize(
        "k",
        [
            RP2,
            join(RP2, cycle(4)),
            SimplicialComplex(4, boundary_complex(2).maximal_faces),  # ghost vertex 3
            SimplicialComplex(5, list(boundary_complex(3).maximal_faces) + [(0, 4)]),
            # a square with a pendant edge: the homology and the reduced Euler
            # characteristic of S^1; only the ridge count (vertex 4) tells
            SimplicialComplex(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]),
            FIN,
            # two tetrahedron boundaries meeting at vertex 3
            SimplicialComplex(
                7, list(boundary_complex(3).maximal_faces)
                + [tuple(v + 3 for v in f) for f in boundary_complex(3).maximal_faces]
            ),
            SimplicialComplex(0, [()]),
            SimplicialComplex(3, [()]),
            full_simplex(3),
            # two disjoint circles: pure, two edges at each vertex, and the
            # reduced Euler characteristic of S^1; only H~(K) tells
            SimplicialComplex(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        ],
        ids=[
            "rp2", "rp2-join-square", "ghost-vertex", "pendant-edge",
            "square-with-pendant-edge", "fin",
            "tetrahedra-at-a-vertex", "m0-empty-face", "ghosts-only", "solid-simplex",
            "two-circles",
        ],
    )
    def test_rejects_non_spheres(self, k):
        assert certified_dimension(k) is oracle_sphere_dimension(k) is None

    @pytest.mark.parametrize("name", sorted(HIGHER_CASES))
    def test_agrees_with_the_oracle_in_dimensions_three_to_five(self, name):
        k, d = HIGHER_CASES[name]
        assert 3 <= max(map(len, k.maximal_faces)) - 1 <= 5
        assert certified_dimension(k) == oracle_sphere_dimension(k) == d

    @pytest.mark.parametrize("k", range(1, 9))
    def test_simplex_boundaries_are_spheres(self, k):
        # relabelled ∂Δ^k passes the certificate, and the oracle agrees:
        # every face's link, ∅'s and the facets' included, has the homology
        # of S^(k-1-|σ|).  That is why the sum takes Z = S^(2k+1) for it in
        # closed form, with nothing listed (tests/test_engine_properties.py)
        perm = list(range(k + 1))
        random.Random(k).shuffle(perm)
        sphere = boundary_complex(k).relabeled(perm)
        assert certified_dimension(sphere) == oracle_sphere_dimension(sphere) == k - 1

    def test_rp2_join_is_rejected_before_any_homology(self):
        # its ridges lie on two facets each, but the link of an edge of the
        # square is RP2, whose 10 triangles fail the facet test; the links
        # of dimension 2 come first, so no homology is computed
        with counted() as trace:
            assert certified_dimension(join(RP2, cycle(4))) is None
        assert trace.results == []

    def test_a_closed_3_manifold_is_rejected_by_its_homology_alone(self):
        # every vertex link of C4 × S^2 is a 2-sphere, so only H~(K) tells;
        # its one elimination is of K, the link of ∅, though the vertex
        # links were listed after K's faces
        k = circle_times(4, boundary_complex(3))
        with counted() as trace:
            assert certified_dimension(k) is None
        assert trace.results == [("eliminated", ((1, (1, ())), (2, (1, ())), (3, (1, ()))))]
        assert oracle_homology(k) == GradedGroups({1: (1, ()), 2: (1, ()), 3: (1, ())})

    @pytest.mark.parametrize("name, links, homology", [
        # d = 3: each vertex link is a 2-sphere for the facet test, and K is eliminated
        ("simplex-4-cut-2", [], [((3, (1, ())),)]),
        # d = 4: each vertex link is eliminated as a 3-sphere, each edge link
        # goes to the facet test, and then K is eliminated
        ("cube-5-cut-1", [((3, (1, ())),)] * 11, [((4, (1, ())),)]),
    ])
    def test_no_link_of_dimension_two_or_less_is_eliminated(self, name, links, homology, monkeypatch):
        k, d = CUT_SPHERES[name]
        tested = []  # (m, d) per facet test of a link

        def testing(vertices, facets, d, linked):
            tested.append((vertices.bit_count(), d))
            return facet_sphere(vertices, facets, d, linked)

        facet_sphere = homology_module._facet_sphere
        monkeypatch.setattr(homology_module, "_facet_sphere", testing)
        with counted() as trace:
            assert certified_dimension(k) == d
        assert [h for _, h in trace.results] == links + homology
        # no graph: the links' eliminations, then K's
        assert [kind for kind, _ in trace.results] == ["link_eliminated"] * len(links) + ["eliminated"]
        # the certificate's own call is made before the patch is looked up
        assert sorted(tested) == sorted(
            (len({v for g in k.maximal_faces if set(f) <= set(g) for v in g} - set(f)), 2)
            for f in faces_of_dimension(k, d - 3)
        )

    def test_fin_has_the_homology_of_a_sphere(self):
        # so the fin is rejected by its ridge, not by H~(K)
        assert reduced_homology(FIN) == GradedGroups({2: (1, ())})


# the octahedron and ∂Δ^3, as maximal faces
OCTAHEDRON = sorted(cube(3).dual_complex().maximal_faces)
TETRAHEDRON = sorted(boundary_complex(3).maximal_faces)
# two octahedra and two ∂Δ^3 wedged at vertex 0; a torus wedged at vertex 1
OCTAHEDRA = OCTAHEDRON + shifted(OCTAHEDRON, 5, [0])
TETRAHEDRA = TETRAHEDRON + shifted(TETRAHEDRON, 3, [0])

# complexes of dimension at most 2 on which the facet test and the
# oracle's sphere_dimension must agree, with whether they are spheres
FACET_CASES = {
    "torus-7": (SimplicialComplex(7, TORUS7), False),
    "rp2": (RP2, False),
    "two-2-spheres": (SimplicialComplex(8, TETRAHEDRON + shifted(TETRAHEDRON, 4, [])), False),
    "2-sphere-and-torus": (SimplicialComplex(11, TETRAHEDRON + shifted(TORUS7, 4, [])), False),
    # χ = 3; with a torus wedged on, χ = 2 and each edge lies on two
    # triangles, but the link of the wedge vertex 0 is two cycles
    "octahedra-at-a-vertex": (SimplicialComplex(11, OCTAHEDRA), False),
    "octahedra-at-a-vertex-and-torus": (SimplicialComplex(17, OCTAHEDRA + shifted(TORUS7, 10, [1])), False),
    "tetrahedra-at-a-vertex-and-torus": (SimplicialComplex(13, TETRAHEDRA + shifted(TORUS7, 6, [1])), False),
    # S^2 and RP^2 at a vertex: F = 2m - 4 and a closed pseudo-surface
    "2-sphere-and-rp2-at-a-vertex": (SimplicialComplex(9, TETRAHEDRON + shifted(RP2.maximal_faces, 3, [0])), False),
    # the sphere with its two poles pinched together, a pinched torus
    "pinched-2-sphere": (PINCHED_TORUS, False),
    "mobius-band": (SimplicialComplex(5, [tuple(sorted({i, (i + 1) % 5, (i + 2) % 5})) for i in range(5)]), False),
    "cone-on-a-pentagon": (SimplicialComplex(6, [(i, (i + 1) % 5, 5) for i in range(5)]), False),
    "triangle-and-dangling-edge": (SimplicialComplex(4, [(0, 1, 2), (2, 3)]), False),
    "2-sphere-and-ghost": (SimplicialComplex(5, TETRAHEDRON), False),
    "two-circles": (SimplicialComplex(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), False),
    "fin": (FIN, False),
    "octahedron": (SimplicialComplex(6, OCTAHEDRON), True),
    "hexagon": (cycle(6), True),
    "s0": (boundary_complex(1), True),
}
# the subset oracle takes about 33 s on the 2^17 subsets of this one
SLOW_FOR_THE_ORACLE = {"octahedra-at-a-vertex-and-torus"}


class TestFacetSphere:
    """``_facet_sphere`` on complexes of dimension ≤ 2, read from the facets
    alone, against the subset oracle's ``sphere_dimension`` and sums."""

    @pytest.mark.parametrize("name", sorted(FACET_CASES))
    def test_agrees_with_the_sphere_certificate(self, name):
        k, sphere = FACET_CASES[name]
        d = max(map(len, k.maximal_faces)) - 1
        assert d <= 2
        passed = _facet_sphere((1 << k.vertex_count) - 1, _masks(k.maximal_faces), d, neighbour_masks(faces_of(k)))
        assert passed == (oracle_sphere_dimension(k) == d) == sphere

    @pytest.mark.parametrize("name", sorted(set(FACET_CASES) - SLOW_FOR_THE_ORACLE))
    def test_sums_equal_the_oracle(self, name):
        k, _ = FACET_CASES[name]
        groups, table = reference_sum(subset_homologies(k))
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table


# dimensions of H*(Z_K; F_p) that universal coefficients predict from H*(Z_K)
predicted_mod_p = test_moment_angle.TestTorsionAgainstModPRanks.predicted

# a 3-vertex path is a cone over its end points; a 4-vertex path is not
PATH3 = SimplicialComplex(3, [(0, 1), (1, 2)])
PATH4 = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)])
RP2_CONE = join(RP2, full_simplex(0))  # apex 6
RP2_CONE_GHOST = SimplicialComplex(8, RP2_CONE.maximal_faces)  # ghost vertex 7


# a 3-vertex star on centre 0: K_J is a cone on 0, but the link of 0 is
# two points and the parent is two points, so no rule settles it
STAR3 = SimplicialComplex(3, [(0, 1), (0, 2)])


class TestConeTest:
    # the walk steps into K_J from J minus its lowest vertex v, and reaches
    # _reduced_groups for K_J only when no rule settles the step: a ghost v
    # or an acyclic link of v (a cone among them) keeps the parent's groups,
    # an empty link adds a point, and an acyclic parent gives the link's
    # groups one degree up

    @pytest.mark.parametrize(
        "k, subset, expected, rule",
        [
            (RP2_CONE, mask(*range(7)), {}, "reused"),
            (RP2_CONE, mask(*range(6)), {1: (0, (2,))}, "computed"),
            (RP2, mask(*range(6)), {1: (0, (2,))}, "computed"),
            (PATH3, mask(0, 1, 2), {}, "reused"),
            (PATH3, mask(0, 2), {0: (1, ())}, "point"),
            (PATH4, mask(0, 1, 2, 3), {}, "reused"),
            (cycle(4), mask(0, 1, 2, 3), {1: (1, ())}, "suspended"),
            # J = ∅, and J holding only a ghost vertex: no vertex, no cone
            (RP2_CONE_GHOST, 0, {-1: (1, ())}, None),
            (RP2_CONE_GHOST, mask(7), {-1: (1, ())}, "reused"),
            # a ghost vertex in J is never the apex, and does not hide one
            (RP2_CONE_GHOST, mask(*range(6), 7), {1: (0, (2,))}, "computed"),
            (RP2_CONE_GHOST, mask(*range(8)), {}, "reused"),
            (RP2_CONE_GHOST, mask(3, 7), {}, "point"),
            (STAR3, mask(0, 1, 2), {}, "computed"),
        ],
        ids=[
            "rp2-cone", "rp2-cone-base", "rp2", "path3", "path3-ends", "path4",
            "square", "empty-j", "ghost-only", "rp2-ghost", "rp2-cone-ghost",
            "point-ghost", "star3",
        ],
    )
    def test_skips_cones_only(self, k, subset, expected, rule):
        vertices = [v for v in range(k.vertex_count) if subset >> v & 1]
        step = steps(faces_of(k), [subset])[subset]
        assert step.groups == GradedGroups(expected)
        assert step.computed == (rule == "computed")
        assert (route(k, vertices) if vertices else None) == rule
        assert oracle_homology(full_subcomplex(k, vertices)) == GradedGroups(expected)

    def test_ext_is_built_once_per_complex(self):
        faces = faces_of(RP2_CONE)
        assert faces.ext[0] == mask(*range(7))
        assert faces.ext[mask(0)] == mask(0, 1, 2, 3, 4, 5, 6)
        assert faces.ext[mask(0, 1, 4)] == mask(0, 1, 4, 6)
        built = faces.ext
        _walk(faces, None, 0, RP2_CONE.vertex_count)
        assert faces.ext is built


class TestGraphPath:
    # dimension <= 1: H~_0 = Z^(c-1) and H~_1 = Z^(E-V+c), no matrix at all;
    # the groups come as the walk keeps them, (degree, (rank, torsion)) pairs

    @pytest.mark.parametrize(
        "k, expected",
        [
            (SimplicialComplex(8, [(0, 1), (1, 2), (1, 3), (4, 5), (6,)]), ((0, (2, ())),)),
            (SimplicialComplex(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
             ((0, (1, ())), (1, (2, ())))),
            (SimplicialComplex(5, [(0,), (1,), (2,), (4,)]), ((0, (3, ())),)),
            (SimplicialComplex(1, [(0,)]), ()),
            (SimplicialComplex(5, [(a, b) for a in range(5) for b in range(a + 1, 5)]),
             ((1, (6, ())),)),
        ],
        ids=["forest", "two-circles", "isolated-vertices", "point", "k5-graph"],
    )
    def test_forests_circles_and_points(self, k, expected):
        faces = faces_of(k)
        with counted() as trace:
            assert homology_module._reduced_groups(faces.link(0, faces.ext[0])) == expected
        assert trace.results == [("graph", expected)]
        assert oracle_homology(k) == GradedGroups(expected)


class TestTorsionReachesElimination:
    # no rule of the walk may make torsion up: each torsion subset must be
    # eliminated with its invariant factors, or take them one degree down
    # from the elimination of v's link (an acyclic parent), or take them
    # from a parent, J minus its lowest vertex, that did one of these in turn

    @staticmethod
    def assert_eliminated(faces, torsion):
        walked = steps(faces, torsion)
        for J, expected in torsion.items():
            assert walked[J].groups == expected, J
            source = J
            while not (walked[source].computed or walked[source].link_torsion):
                source &= source - 1
                assert [walked[source].groups.torsion(d) for d in expected.degrees()] == [
                    expected.torsion(d) for d in expected.degrees()
                ], (J, source)
            step = walked[source]
            assert step.torsion if step.computed else step.link_torsion, (J, source)

    def test_every_torsion_subset_of_the_pendant_path(self):
        faces = faces_of(RP2_WITH_PATH)
        torsion = {J: h for J, h in subset_homologies(RP2_WITH_PATH).items() if has_torsion(h)}
        # RP2 on 0..5 with any of the path vertices 6..9
        assert sorted(torsion) == sorted(
            tuple(range(6)) + tuple(v for v in range(6, 10) if s >> (v - 6) & 1)
            for s in range(16)
        )
        self.assert_eliminated(faces, {mask(*J): h for J, h in torsion.items()})
        groups = moment_angle_cohomology(RP2_WITH_PATH)
        assert cellular_betti_mod_p(RP2_WITH_PATH, 2) == predicted_mod_p(groups, 2)

    def test_torsion_taken_from_a_parent(self):
        # with the labels reversed the path is 3-2-1-0 and RP2 sits on 4..9,
        # so a torsion subset's lowest vertex is a path vertex: a point, or
        # a vertex whose link is one point, and the torsion is the parent's
        k = RP2_WITH_PATH.relabeled(list(range(9, -1, -1)))
        torsion = {mask(*J): h for J, h in subset_homologies(k).items() if has_torsion(h)}
        assert len(torsion) == 16
        walked = steps(faces_of(k), torsion)
        assert sum(not walked[J].computed for J in torsion) == 15
        self.assert_eliminated(faces_of(k), torsion)

    def test_torsion_taken_from_a_link(self):
        # the suspension of RP2 with the poles 0 and 1: the step that adds
        # 0 to the cone from 1 finds an acyclic parent, so its Z/2 in H~_2
        # is the link's Z/2 in H~_1, one degree up, and K_J is not eliminated
        k = join(boundary_complex(1), RP2)
        torsion = {mask(*J): h for J, h in subset_homologies(k).items() if has_torsion(h)}
        everything = mask(*range(8))
        assert torsion == {
            mask(*range(2, 8)): GradedGroups({1: (0, (2,))}),
            everything: GradedGroups({2: (0, (2,))}),
        }
        assert route(k, list(range(8))) == "suspended"
        walked = steps(faces_of(k), torsion)
        assert walked[everything].link_torsion and not walked[everything].computed
        self.assert_eliminated(faces_of(k), torsion)

    def test_the_torsion_subsets_of_the_sphere_around_rp2(self):
        # a scan of all 2^16 subsets (about 10 s) finds torsion in exactly two
        # full subcomplexes: RP2 on 0..5 and, by Alexander duality, its
        # complement on 6..15
        k = sphere_around_rp2()
        torsion = {}
        for vertices in (range(6), range(6, 16)):
            sub = full_subcomplex(k, list(vertices))
            torsion[mask(*vertices)] = oracle_homology(sub)
            assert torsion[mask(*vertices)] == GradedGroups({1: (0, (2,))})
            groups = moment_angle_cohomology(sub)
            assert cellular_betti_mod_p(sub, 2) == predicted_mod_p(groups, 2)
        self.assert_eliminated(faces_of(k), torsion)


class TestGradedGroups:
    def test_normalization_drops_zero_groups(self):
        g = GradedGroups({0: (0, ()), 1: (2, ()), 5: (0, (1,))})
        assert g.degrees() == [1]

    def test_torsion_normalized_to_invariant_factors(self):
        g = GradedGroups({2: (0, (4, 6))})
        assert g.torsion(2) == (2, 12)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            GradedGroups({0: (-1, ())})

    def test_sphere_and_zero(self):
        assert GradedGroups({5: (1, ())}).rank(5) == 1
        with pytest.raises(ValueError):
            GradedGroups({}).max_degree

    def test_equality_and_hash(self):
        a = GradedGroups({1: (1, (2, 4))})
        b = GradedGroups({1: (1, (4, 2))})
        assert a == b
        assert hash(a) == hash(b)

    def test_json_round_trip(self):
        # the JSON form the CLI prints holds the groups in full
        g = GradedGroups({0: (1, ()), 3: (2, (2, 6)), 9: (0, (3,))})
        data = json.loads(json.dumps(g.to_json_dict()))
        assert GradedGroups({int(d): (x["rank"], x["torsion"]) for d, x in data.items()}) == g
