import random
from fractions import Fraction

import pytest

from cellular_oracle import _rank_over_q
from momentangle.homology import (
    GradedGroups,
    IntegerMatrix,
    boundary_matrix,
    invariant_factors,
    reduced_homology,
    smith_normal_form,
)
from momentangle.simplicial import (
    SimplicialComplex,
    boundary_complex,
    full_simplex,
    join,
)

# minimal 6-vertex projective plane, the standard torsion fixture
RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ],
)


def cycle(m):
    return SimplicialComplex(m, [(i, (i + 1) % m) for i in range(m)])


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
    def test_worked_example(self):
        diag, rank = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
        assert (diag, rank) == ((2, 4), 2)

    def test_identity(self):
        diag, rank = smith_normal_form(
            IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        )
        assert (diag, rank) == ((1, 1, 1), 3)

    def test_zero_matrix(self):
        diag, rank = smith_normal_form(IntegerMatrix(2, 3, ((0, 0, 0), (0, 0, 0))))
        assert (diag, rank) == ((), 0)

    def test_empty_matrix(self):
        assert smith_normal_form(IntegerMatrix(0, 0, ())) == ((), 0)
        assert smith_normal_form(IntegerMatrix(3, 0, ((), (), ()))) == ((), 0)

    def test_single_negative_entry(self):
        assert smith_normal_form(IntegerMatrix.from_rows([[-6]])) == ((6,), 1)

    def _random_matrix(self, rng, rows, cols, lo=-9, hi=9):
        return IntegerMatrix.from_rows(
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
            t = IntegerMatrix.from_rows(list(map(list, zip(*m.entries))) or [[]])
            if m.cols == 0:
                continue
            assert smith_normal_form(m) == smith_normal_form(t)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, ((1, 2),))


class TestBoundaryMatrix:
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
            assert reduced_homology(full_simplex(n)).is_zero

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

    def test_join_shifts_degree(self):
        s0 = boundary_complex(1)
        assert reduced_homology(join(s0, s0)) == GradedGroups({1: (1, ())})
        assert reduced_homology(join(join(s0, s0), s0)) == GradedGroups({2: (1, ())})

    def test_euler_characteristic_matches_face_counts(self):
        for k in [RP2, cycle(5), boundary_complex(4), full_simplex(3)]:
            h = reduced_homology(k)
            chi_faces = sum(
                (-1) ** d * len(k.faces_of_dimension(d)) for d in range(-1, k.dim + 1)
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

    def test_direct_sum(self):
        a = GradedGroups({0: (1, ()), 3: (2, (2,))})
        b = GradedGroups({3: (1, (4,)), 7: (1, ())})
        s = a.direct_sum(b)
        assert s.rank(3) == 3
        assert s.torsion(3) == (2, 4)
        assert s.rank(7) == 1

    def test_shifted(self):
        g = GradedGroups({-1: (1, ())}).shifted(3)
        assert g == GradedGroups({2: (1, ())})

    def test_sphere_and_zero(self):
        assert GradedGroups.sphere(5).rank(5) == 1
        assert GradedGroups.zero().is_zero
        with pytest.raises(ValueError):
            GradedGroups.zero().max_degree

    def test_equality_and_hash(self):
        a = GradedGroups({1: (1, (2, 4))})
        b = GradedGroups({1: (1, (4, 2))})
        assert a == b
        assert hash(a) == hash(b)

    def test_json_round_trip(self):
        g = GradedGroups({0: (1, ()), 3: (2, (2, 6)), 9: (0, (3,))})
        assert GradedGroups.from_json_dict(g.to_json_dict()) == g

    def test_euler_characteristic(self):
        g = GradedGroups({0: (1, ()), 3: (2, ()), 6: (1, ())})
        assert g.euler_characteristic() == 0
