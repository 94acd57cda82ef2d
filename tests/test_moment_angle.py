import os
from itertools import combinations

import pytest

from cellular_oracle import cellular_betti
from momentangle.homology import GradedGroups, reduced_homology
from momentangle.moment_angle import (
    PoincarePolynomial,
    SubsetLimitError,
    _usable_workers,
    betti,
    bigraded_table,
    moment_angle_cohomology,
)
from momentangle.polytopes import cube, polygon, product, simplex_polytope
from momentangle.simplicial import SimplicialComplex, boundary_complex, full_simplex

RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (2, 4, 5), (1, 3, 4), (3, 4, 5),
    ],
)


def reference_sum(k):
    """Plain re-statement of the subset sum, used to cross-check bookkeeping.

    Iterates subsets via itertools instead of bitmasks and assembles groups
    with none of the package's merging machinery.
    """
    groups: dict[int, tuple[int, list[int]]] = {}
    for size in range(k.vertex_count + 1):
        for J in combinations(range(k.vertex_count), size):
            h = reduced_homology(k.full_subcomplex(J))
            for q in h.degrees():
                r, t = h.rank(q), h.torsion(q)
                if r:
                    deg = q + size + 1
                    old = groups.get(deg, (0, []))
                    groups[deg] = (old[0] + r, old[1])
                if t:
                    deg = q + size + 2
                    old = groups.get(deg, (0, []))
                    groups[deg] = (old[0], old[1] + list(t))
    return GradedGroups(groups)


class TestKnownManifolds:
    def test_triangle_dual_gives_five_sphere(self):
        g = moment_angle_cohomology(boundary_complex(2))
        assert g == GradedGroups({0: (1, ()), 5: (1, ())})

    def test_four_cycle_gives_sphere_product(self):
        g = moment_angle_cohomology(polygon(4).dual_complex())
        assert betti(g) == PoincarePolynomial({0: 1, 3: 2, 6: 1})

    def test_five_cycle(self):
        g = moment_angle_cohomology(polygon(5).dual_complex())
        assert betti(g) == PoincarePolynomial({0: 1, 3: 5, 4: 5, 7: 1})

    def test_simplex_boundaries_give_odd_spheres(self):
        for m in range(2, 6):
            g = moment_angle_cohomology(boundary_complex(m - 1))
            assert g == GradedGroups({0: (1, ()), 2 * m - 1: (1, ())})

    def test_ghost_only_complex_gives_torus(self):
        from math import comb

        for m in range(1, 5):
            g = moment_angle_cohomology(SimplicialComplex(m, [()]))
            assert betti(g) == PoincarePolynomial(
                {p: comb(m, p) for p in range(m + 1)}
            )

    def test_full_simplex_is_contractible(self):
        for n in range(0, 4):
            g = moment_angle_cohomology(full_simplex(n))
            assert g == GradedGroups({0: (1, ())})


class TestAgainstCellularOracle:
    # the oracle builds the cellular chain complex of the space itself;
    # any complex with at most 4 vertices is cheap on both routes
    CASES = [
        boundary_complex(1),
        boundary_complex(2),
        boundary_complex(3),
        polygon(4).dual_complex(),
        full_simplex(2),
        SimplicialComplex(3, [(0, 1), (2,)]),
        SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)]),
        SimplicialComplex(4, [()]),
        SimplicialComplex(4, [(0,), (1,), (2,), (3,)]),
        SimplicialComplex(3, [(0, 1, 2), (0,)]),
    ]

    @pytest.mark.parametrize("k", CASES, ids=lambda k: repr(k)[:40])
    def test_betti_numbers_agree(self, k):
        ours = betti(moment_angle_cohomology(k))
        oracle = cellular_betti(k)
        assert {d: ours.coefficient(d) for d in ours.degrees()} == oracle


class TestAgainstReferenceSum:
    CASES = [
        polygon(5).dual_complex(),
        boundary_complex(3),
        RP2,
        SimplicialComplex(4, [()]),
        cube(3).dual_complex(),
    ]

    @pytest.mark.parametrize("k", CASES, ids=lambda k: f"m={k.vertex_count}")
    def test_groups_agree(self, k):
        assert moment_angle_cohomology(k) == reference_sum(k)


class TestTorsionCarryThrough:
    def test_projective_plane_contributes_shifted_torsion(self):
        g = moment_angle_cohomology(RP2)
        # the full subset J (|J| = 6) contributes its homology Z/2 from
        # degree 1 at total degree 1 + 6 + 2 = 9
        assert g.torsion(9) == (2,)
        torsion_degrees = [d for d in g.degrees() if g.torsion(d)]
        assert torsion_degrees == [9]


class TestBigradedTable:
    def test_triangle_boundary(self):
        assert bigraded_table(boundary_complex(2)) == {(0, 0): 1, (3, 5): 1}

    def test_four_cycle(self):
        assert bigraded_table(polygon(4).dual_complex()) == {
            (0, 0): 1,
            (2, 3): 2,
            (4, 6): 1,
        }

    def test_five_cycle(self):
        assert bigraded_table(polygon(5).dual_complex()) == {
            (0, 0): 1,
            (2, 3): 5,
            (3, 4): 5,
            (5, 7): 1,
        }

    def test_empty_subset_entry_is_always_one(self):
        for k in [boundary_complex(3), RP2, polygon(6).dual_complex()]:
            assert bigraded_table(k)[(0, 0)] == 1

    def test_rows_sum_to_betti(self):
        for k in [polygon(6).dual_complex(), boundary_complex(3), RP2]:
            table = bigraded_table(k)
            poly = betti(moment_angle_cohomology(k))
            sums: dict[int, int] = {}
            for (_, degree), rank in table.items():
                sums[degree] = sums.get(degree, 0) + rank
            assert sums == {d: poly.coefficient(d) for d in poly.degrees()}


class TestManifoldProperties:
    CORPUS = [
        polygon(m) for m in range(3, 9)
    ] + [simplex_polytope(n) for n in range(2, 5)] + [
        cube(3),
        product(simplex_polytope(1), simplex_polytope(2)),
    ]

    @pytest.mark.parametrize("p", CORPUS, ids=lambda p: f"m{p.m}n{p.n}")
    def test_poincare_duality_and_euler(self, p):
        poly = betti(moment_angle_cohomology(p.dual_complex()))
        dim = p.m + p.n
        assert poly.coefficient(0) == 1
        assert poly.coefficient(dim) == 1
        assert poly.is_symmetric(dim)
        assert poly.euler_characteristic() == 0

    def test_kunneth_on_products(self):
        seg, tri = simplex_polytope(1), simplex_polytope(2)
        cases = [(seg, seg), (seg, tri)]
        for a, b in cases:
            joint = betti(moment_angle_cohomology(product(a, b).dual_complex()))
            pa = betti(moment_angle_cohomology(a.dual_complex()))
            pb = betti(moment_angle_cohomology(b.dual_complex()))
            assert joint == pa * pb


class TestParallelism:
    def test_worker_count_does_not_change_results(self):
        k = polygon(5).dual_complex()
        base = moment_angle_cohomology(k, workers=1)
        table = bigraded_table(k, workers=1)
        for workers in (2, 3):
            assert moment_angle_cohomology(k, workers=workers) == base
            assert bigraded_table(k, workers=workers) == table

    def test_parallel_torsion_merge(self):
        assert moment_angle_cohomology(RP2, workers=2) == moment_angle_cohomology(RP2)

    def test_worker_count_is_clamped_to_usable_cpus(self):
        # checked on the clamp itself, so no pool is started
        assert 1 <= _usable_workers(10**9) <= (os.cpu_count() or 1)
        assert _usable_workers(1) == 1


class TestLimitsAndErrors:
    def test_vertex_cap_raises_named_resource_error(self):
        k = polygon(6).dual_complex()
        with pytest.raises(SubsetLimitError, match=r"2\^6 = 64"):
            moment_angle_cohomology(k, max_vertices=5)

    def test_cap_is_inclusive(self):
        k = boundary_complex(2)
        assert moment_angle_cohomology(k, max_vertices=3) is not None

    def test_void_complex_rejected(self):
        with pytest.raises(ValueError, match="at least one face"):
            moment_angle_cohomology(SimplicialComplex(3, []))

    def test_limit_error_carries_counts(self):
        try:
            moment_angle_cohomology(RP2, max_vertices=4)
        except SubsetLimitError as exc:
            assert exc.m == 6
            assert exc.limit == 4
        else:
            pytest.fail("expected SubsetLimitError")


class TestPoincarePolynomial:
    def test_str(self):
        assert str(PoincarePolynomial({0: 1, 3: 2, 6: 1})) == "1 + 2t^3 + t^6"
        assert str(PoincarePolynomial({})) == "0"
        assert str(PoincarePolynomial({1: 1})) == "t"
        assert str(PoincarePolynomial({1: 3, 2: 1})) == "3t + t^2"

    def test_multiplication(self):
        a = PoincarePolynomial({0: 1, 3: 1})
        b = PoincarePolynomial({0: 1, 5: 1})
        assert a * b == PoincarePolynomial({0: 1, 3: 1, 5: 1, 8: 1})

    def test_addition(self):
        a = PoincarePolynomial({0: 1, 3: 1})
        assert a + a == PoincarePolynomial({0: 2, 3: 2})

    def test_zero_coefficients_dropped(self):
        p = PoincarePolynomial({0: 1, 4: 0})
        assert p.degrees() == [0]
        assert p.degree == 0
        assert PoincarePolynomial({}).degree == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            PoincarePolynomial({-1: 1})
        with pytest.raises(ValueError):
            PoincarePolynomial({2: -3})

    def test_symmetry_check(self):
        assert PoincarePolynomial({0: 1, 3: 5, 4: 5, 7: 1}).is_symmetric(7)
        assert not PoincarePolynomial({0: 1, 3: 5, 4: 4, 7: 1}).is_symmetric(7)

    def test_betti_drops_negative_degrees_and_torsion(self):
        g = GradedGroups({-1: (1, ()), 2: (3, ()), 5: (0, (2,))})
        poly = betti(g)
        assert poly == PoincarePolynomial({2: 3})
        assert poly.coefficient(5) == 0

    def test_betti_of_zero(self):
        assert betti(GradedGroups.zero()) == PoincarePolynomial({})
