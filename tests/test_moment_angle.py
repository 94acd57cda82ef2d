import os
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import momentangle.moment_angle as moment_angle_module
from momentangle import cli
from cellular_oracle import cellular_betti, cellular_betti_mod_p
from momentangle.homology import GradedGroups, _Faces, _facet_sphere, _masks
from momentangle.moment_angle import (
    PoincarePolynomial,
    SubsetLimitError,
    _check_input,
    _component_sums,
    _gather,
    _kunneth,
    _mirror,
    _usable_workers,
    _walk,
    betti,
    bigraded_table,
    moment_angle_cohomology,
)
from momentangle.polytopes import cube, polygon, product, simplex_polytope
from momentangle.simplicial import (
    SimplicialComplex,
    boundary_complex,
    join,
)
from momentangle.surgery import theorem_corpus
from complexes import RP2, cyclic_4_polytope_boundary, full_simplex, full_subcomplex
from invariants import euler_characteristic, has_torsion, is_symmetric, poincare_product
from subset_oracle import reference_sum, subset_homologies
from subset_oracle import sphere_dimension as oracle_sphere_dimension
from walk import (
    certified_dimension,
    counted,
    factors_of,
    faces_of,
    minimal_nonface_factors,
    neighbour_masks,
    route,
    subset_table,
    walk_groups,
)

# RP2 with the path 5-6-7-8-9 hung from vertex 5: 2-torsion, not a sphere and
# not a join, on 10 vertices
RP2_WITH_PATH = SimplicialComplex(
    10, list(RP2.maximal_faces) + [(5, 6), (6, 7), (7, 8), (8, 9)]
)

# the mod-3 Moore space S^1 ∪_3 D^2, with H~_1 = Z/3: a disk whose boundary
# 9-gon wraps three times around the triangle 0-1-2.  An annulus joins the
# 9-gon to the pentagon 3-4-5-6-7, each of whose vertices meets at most
# three consecutive boundary vertices, all with different labels, so no two
# simplices of the disk are identified; a fan from 3 fills the pentagon
MOORE3 = SimplicialComplex(
    8,
    [
        (0, 1, 3), (1, 2, 3), (2, 3, 4),
        (0, 2, 4), (0, 1, 4), (1, 4, 5),
        (1, 2, 5), (0, 2, 5), (0, 5, 6),
        (0, 1, 6), (1, 2, 6), (2, 6, 7),
        (0, 2, 7), (0, 3, 7),
        (3, 4, 5), (3, 5, 6), (3, 6, 7),
    ],
)


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
        MOORE3,
    ]

    @pytest.mark.parametrize("k", CASES, ids=lambda k: f"m={k.vertex_count}")
    def test_groups_agree(self, k):
        groups, table = reference_sum(subset_homologies(k))
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table


class TestTorsionCarryThrough:
    def test_projective_plane_contributes_shifted_torsion(self):
        g = moment_angle_cohomology(RP2)
        # the full subset J (|J| = 6) contributes its homology Z/2 from
        # degree 1 at total degree 1 + 6 + 2 = 9
        assert g.torsion(9) == (2,)
        torsion_degrees = [d for d in g.degrees() if g.torsion(d)]
        assert torsion_degrees == [9]


class TestTorsionAgainstModPRanks:
    # universal coefficients: dim H^i(Z_K; F_p) = b_i + (number of invariant
    # factors of H^i divisible by p) + (the same for H^(i+1)); the left side
    # comes from the cellular chain complex mod p, with no SNF anywhere
    CASES = {
        "rp2": RP2,
        "rp2-suspension": join(RP2, boundary_complex(1)),
        "pentagon": polygon(5).dual_complex(),
        "moore3": MOORE3,
    }

    @staticmethod
    def predicted(groups, p):
        def factors(degree):
            return sum(1 for t in groups.torsion(degree) if t % p == 0)

        dims = {
            d: groups.rank(d) + factors(d) + factors(d + 1)
            for d in range(max(groups.degrees()) + 1)
        }
        return {d: n for d, n in dims.items() if n}

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_universal_coefficients(self, name, p):
        k = self.CASES[name]
        groups = moment_angle_cohomology(k)
        assert cellular_betti_mod_p(k, p) == self.predicted(groups, p)

    def test_projective_plane_torsion_is_two_primary(self):
        groups = moment_angle_cohomology(RP2)
        free = {d: groups.rank(d) for d in groups.degrees() if groups.rank(d)}
        mod2, mod3 = cellular_betti_mod_p(RP2, 2), cellular_betti_mod_p(RP2, 3)
        assert mod3 == free
        extra = {d: n - free.get(d, 0) for d, n in mod2.items()}
        # Z/2 in degree 9: once through H^9 (x) F_2, once through Tor(H^9, F_2)
        assert {d: n for d, n in extra.items() if n} == {8: 1, 9: 1}

    def test_moore_space_torsion_is_three_primary(self):
        groups = moment_angle_cohomology(MOORE3)
        assert groups.torsion(11) == (3,)
        free = {d: groups.rank(d) for d in groups.degrees() if groups.rank(d)}
        mod2, mod3 = cellular_betti_mod_p(MOORE3, 2), cellular_betti_mod_p(MOORE3, 3)
        assert mod2 == free
        extra = {d: n - free.get(d, 0) for d, n in mod3.items()}
        # Z/3 in degree 11 = 1 + 8 + 2: once in H^11 (x) F_3, once in Tor(H^11, F_3)
        assert {d: n for d, n in extra.items() if n} == {10: 1, 11: 1}

    def test_torsion_free_case_has_no_extra_classes(self):
        k = polygon(5).dual_complex()
        groups = moment_angle_cohomology(k)
        assert not has_torsion(groups)
        free = {d: groups.rank(d) for d in groups.degrees()}
        assert cellular_betti_mod_p(k, 2) == cellular_betti_mod_p(k, 3) == free


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
        assert is_symmetric(poly, dim)
        assert euler_characteristic(poly) == 0

    def test_kunneth_on_products(self):
        seg, tri = simplex_polytope(1), simplex_polytope(2)
        cases = [(seg, seg), (seg, tri)]
        for a, b in cases:
            joint = betti(moment_angle_cohomology(product(a, b).dual_complex()))
            pa = betti(moment_angle_cohomology(a.dual_complex()))
            pb = betti(moment_angle_cohomology(b.dual_complex()))
            assert joint == poincare_product(pa, pb)


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

    def test_small_sums_start_no_pool(self):
        # polygon-11 has 2^11 subsets, but as a sphere computes only 2^10,
        # each against its 23 faces: far below the threshold
        with counted() as trace:
            for k in (polygon(9).dual_complex(), polygon(11).dual_complex(), RP2):
                assert moment_angle_cohomology(k, workers=2) == moment_angle_cohomology(k)
                assert bigraded_table(k, workers=2) == bigraded_table(k)
        assert trace.pools == []

    @pytest.mark.parametrize(
        "k",
        [polygon(10).dual_complex(), RP2_WITH_PATH],
        ids=["polygon-10", "rp2-pendant-path"],
    )
    def test_pool_merge_at_ten_vertices(self, k, monkeypatch):
        # polygon-10 takes the duality path (2^9 subsets computed, 21 faces),
        # RP^2 with a path the full one (2^10, 40 faces); neither is a join,
        # and the threshold is lowered so both reach the pool and its
        # merge of subtrees; the polygon walks only with its closed form off
        assert minimal_nonface_factors(k) == [list(range(10))]
        groups = moment_angle_cohomology(k)
        table = bigraded_table(k)
        sphere_table_off(monkeypatch)
        monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 2**13)
        with counted() as trace:
            assert moment_angle_cohomology(k, workers=2) == groups
            assert bigraded_table(k, workers=2) == table
        assert trace.pools == ([2, 2] if _usable_workers(2) == 2 else [])

    def test_one_pool_serves_every_factor_of_a_call(self, monkeypatch):
        # pentagon * hexagon, the dual of polygon-5 x polygon-6: with the
        # threshold at the pentagon's work (2^4 subsets visited x 11 faces)
        # and the closed form of a polygon off, both factors reach the
        # pool, and the first starts the one pool that walks both
        k = product(polygon(5), polygon(6)).dual_complex()
        assert sorted(map(len, minimal_nonface_factors(k))) == [5, 6]
        groups, table = moment_angle_cohomology(k), bigraded_table(k)
        sphere_table_off(monkeypatch)
        monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 2**4 * 11)
        with counted() as trace:
            assert moment_angle_cohomology(k, workers=2) == groups
            assert bigraded_table(k, workers=2) == table
        if _usable_workers(2) == 2:
            assert trace.pools == [2, 2]  # one per call
            assert trace.maps == [8, 8] * 2  # both factors, 2^3 prefix roots each
        else:
            assert trace.pools == trace.maps == []

    def test_the_pool_threshold_counts_subsets_times_faces(self, monkeypatch):
        # polygon-10, walked with its closed form off, computes 2^9 subsets
        # (duality) against 21 faces, the empty one included; a pool is
        # asked for exactly from that product
        k = polygon(10).dual_complex()
        groups = moment_angle_cohomology(k)
        sphere_table_off(monkeypatch)
        with counted() as trace:
            monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 2**9 * 21 + 1)
            assert moment_angle_cohomology(k, workers=2) == groups
            assert trace.pools == []
            monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 2**9 * 21)
            assert moment_angle_cohomology(k, workers=2) == groups
        assert trace.pools == ([2] if _usable_workers(2) == 2 else [])


def stellar(facets, tau, v):
    """Facets after the stellar subdivision at face ``tau`` with new vertex ``v``."""
    t = set(tau)
    out = [f for f in facets if not t <= set(f)]
    for f in facets:
        if t <= set(f):
            rest = [x for x in f if x not in t]
            out.extend(tuple(sorted(rest + [y for y in tau if y != x] + [v])) for x in tau)
    return out


def sphere_around_rp2():
    """A 4-sphere on 16 vertices whose full subcomplex on 0..5 is RP2.

    ∂Δ^5 on 0..5 is subdivided at each of the ten triangles missing from
    RP2, so the faces left on 0..5 are those of RP2.
    """
    facets = list(boundary_complex(5).maximal_faces)
    missing = [t for t in combinations(range(6), 3) if t not in RP2.maximal_faces]
    for v, tau in enumerate(missing, start=6):
        facets = stellar(facets, tau, v)
    return SimplicialComplex(16, facets)


class TestAlexanderDuality:
    def test_mirror_equals_the_complement_computed(self):
        # ``_mirror`` adds each computed subset's groups for its complement
        # too; here the complement is computed directly instead, including
        # 2-torsion on both sides of the RP2 pair
        k = sphere_around_rp2()
        faces = faces_of(k)
        d = certified_dimension(k)
        assert d == oracle_sphere_dimension(k) == 4
        m = k.vertex_count
        everything = (1 << m) - 1
        rp2 = 0b111111
        z2 = GradedGroups({1: (0, (2,))})
        assert walk_groups(faces, rp2) == walk_groups(faces, everything ^ rp2) == z2
        for mask in (0, rp2, 0b1010101, 0b1111100000000, 0b0011111100000000):
            assert 2 * mask.bit_count() <= m and not mask >> (m - 1) & 1
            # the walk from a root with no vertex below it visits the root alone
            half = _walk(faces, d, mask, 0)
            direct = _walk(faces, None, mask, 0) + _walk(faces, None, everything ^ mask, 0)
            assert _mirror(half, m, d) == direct
            if mask == rp2:
                assert direct == {(6, 9, 2): 1, (10, 13, 2): 1}

    def test_mirror_on_a_non_sphere_is_wrong(self, monkeypatch):
        # the fin has the homology of S^2 and passes everything but the ridge
        # count; summing it as a 2-sphere anyway never gives the right groups,
        # so the check matters: its facets give a wrong f-vector, and a
        # negative rank, which GradedGroups refuses, or wrong groups follow.
        # A complex of dimension 2 is certified by the facet test alone
        fin = SimplicialComplex(5, list(boundary_complex(3).maximal_faces) + [(0, 1, 4)])
        groups, _ = reference_sum(subset_homologies(fin))
        assert oracle_sphere_dimension(fin) is None
        assert not _facet_sphere(0b11111, _masks(fin.maximal_faces), 2, neighbour_masks(faces_of(fin)))
        assert moment_angle_cohomology(fin) == groups
        monkeypatch.setattr(moment_angle_module, "_facet_sphere", lambda vertices, facets, d, linked: True)
        try:
            forced = moment_angle_cohomology(fin)
        except ValueError as error:
            assert "must be >= 0" in str(error)
        else:
            assert forced != groups
        # the walk, mirrored as on a sphere, gives wrong groups
        sphere_table_off(monkeypatch)
        assert moment_angle_cohomology(fin) != groups


def vertices_of(part: int) -> list[int]:
    return [v for v in range(part.bit_length()) if part >> v & 1]


def assert_unlisted_table(k, factor, walked=True):
    """A ``Factor`` of K summed unlisted, on its vertices as given, has
    ``_sphere_table``'s table ``factor.faces`` and sphere dimension ``factor.dim``.

    Either its traces are ∂Δ's facets and its table is that of Z = S^{2k-1},
    or it was certified as a sphere of its own dimension ``dim`` ≤ 3 and,
    when ``walked``, the table is the mirrored walk's on its full
    subcomplex, numbered in increasing order.
    """
    labels, faces, dim = vertices_of(factor.part), factor.faces, factor.dim
    n = len(labels)
    assert factor.bits is None, labels
    sub = full_subcomplex(k, labels)  # numbered in increasing order
    listed = faces_of(sub)
    if n > 1 and faces == Counter({(0, 0, 0): 1, (n, 2 * n - 1, 0): 1}):
        assert listed.ext == faces_of(boundary_complex(n - 1)).ext and dim == n - 2, labels
    else:
        assert dim == max(map(len, sub.maximal_faces)) - 1 and 0 < dim <= 3, labels
        assert not walked or faces == _mirror(_walk(listed, dim, 0, n), n, dim), labels


def split_factors(k):
    """The join factors the sum takes for K, as vertex lists by lowest vertex.

    Each factor's sphere dimension must be the one that the subset oracle's
    ``sphere_dimension`` finds on its full subcomplex.  Each listed
    factor's face table, built from its traces in the factor's own
    numbering, must be that of its full subcomplex numbered the same way; a
    factor summed unlisted must pass ``assert_unlisted_table``.
    """
    out = []
    for factor in factors_of(k):
        vertices = vertices_of(factor.part)
        assert factor.dim == oracle_sphere_dimension(full_subcomplex(k, vertices)), vertices
        if factor.bits is None:
            assert_unlisted_table(k, factor)
        else:
            labels = [bit.bit_length() - 1 for bit in factor.bits]  # the vertex numbered i
            # full_subcomplex numbers the vertices in increasing order
            sub = faces_of(full_subcomplex(k, vertices).relabeled([labels.index(v) for v in vertices]))
            assert factor.faces.ext == sub.ext, labels
        out.append(vertices)
    return sorted(out)


def factor_search_off(patch):
    """Make the sum take K as one factor: each relation has one component."""
    patch.setattr(
        moment_angle_module, "_components", lambda near, vertices: [(1 << len(near)) - 1]
    )


def order_off(patch):
    """Make each factor keep its vertices in increasing order, as given."""
    patch.setattr(
        moment_angle_module,
        "_order",
        lambda part, linked: [1 << v for v in range(part.bit_length()) if part >> v & 1],
    )


def sphere_table_off(patch):
    """Make every factor go to the walk: no sphere is summed from its f-vector."""
    patch.setattr(moment_angle_module, "_sphere_table", lambda vertices, facets, d, linked: None)


class TestJoinFactors:
    # (complex, its join factors); the subset oracle never splits K
    CASES = {
        # RP2 on 0, 2, 3, 5, 6, 7 and S^0 on 1, 4: the factors interleave
        "rp2-join-s0": (
            join(RP2, boundary_complex(1)).relabeled([0, 2, 3, 5, 6, 7, 1, 4]),
            [[0, 2, 3, 5, 6, 7], [1, 4]],
        ),
        "rp2-ghost": (SimplicialComplex(7, RP2.maximal_faces), [list(range(6)), [6]]),
        "rp2-cone": (join(RP2, full_simplex(0)), [list(range(6)), [6]]),
        "simplex-3": (full_simplex(3), [[0], [1], [2], [3]]),
        # neither has a missing edge: the product test, applied vertex by
        # vertex, splits them
        "triangle-join-tetrahedron": (
            join(boundary_complex(2), boundary_complex(3)).relabeled([0, 3, 5, 1, 2, 4, 6]),
            [[0, 3, 5], [1, 2, 4, 6]],
        ),
        "empty-m0": (SimplicialComplex(0, [()]), []),
        "empty-m1": (SimplicialComplex(1, [()]), [[0]]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_against_the_subset_oracle(self, name):
        k, factors = self.CASES[name]
        assert minimal_nonface_factors(k) == split_factors(k) == factors
        groups, table = reference_sum(subset_homologies(k))
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table

    def test_torsion_in_the_tensor_and_the_tor_degree(self, monkeypatch):
        # Z_RP2 has Z/2 in degree 9, so Z_(RP2 * RP2) = Z_RP2 x Z_RP2 has
        # Z/2 (x) Z/2 in degree 18 and Tor(Z/2, Z/2) in degree 17.  The subset
        # oracle takes about 21 s on its 2^12 subsets (2-vCPU VM), so the groups are checked
        # against the unsplit engine sum, and their F_p dimensions against
        # the field Kunneth formula applied to the oracle's groups of Z_RP2
        k = join(RP2, RP2)
        factors = [list(range(6)), list(range(6, 12))]
        assert minimal_nonface_factors(k) == split_factors(k) == factors
        groups, table = moment_angle_cohomology(k), bigraded_table(k)
        assert groups.torsion(17) == groups.torsion(18) == (2,)
        rp2, _ = reference_sum(subset_homologies(RP2))
        for p in (2, 3):
            one = TestTorsionAgainstModPRanks.predicted(rp2, p)
            square = Counter()
            for a, x in one.items():
                for b, y in one.items():
                    square[a + b] += x * y
            assert TestTorsionAgainstModPRanks.predicted(groups, p) == square
        factor_search_off(monkeypatch)
        assert split_factors(k) == [list(range(12))]
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table

    def test_kunneth_rule_on_a_hand_computed_table(self):
        # Z^2 and Z/4 in one factor, (Z/6)^3 and Z/3 in the other, keyed by
        # (|J|, degree, a) with a = 0 for Z; the second factor's unit checks
        # Z (x) Z = Z and Z/4 (x) Z = Z/4
        x = Counter({(1, 3, 0): 2, (1, 5, 4): 1})
        y = Counter({(0, 0, 0): 1, (2, 7, 6): 3, (2, 11, 3): 1})
        assert _kunneth(x, y) == {
            (1, 3, 0): 2,  # Z^2 (x) Z
            (1, 5, 4): 1,  # Z/4 (x) Z
            (3, 10, 6): 6,  # Z^2 (x) (Z/6)^3
            (3, 14, 3): 2,  # Z^2 (x) Z/3
            (3, 12, 2): 3,  # Z/4 (x) (Z/6)^3, gcd(4, 6) = 2
            (3, 11, 2): 3,  # Tor(Z/4, (Z/6)^3), one degree lower
        }  # Z/4 (x) Z/3 and its Tor vanish: gcd(4, 3) = 1
        assert _kunneth(y, x) == _kunneth(x, y)

    def test_products_split_into_their_factors(self):
        for p, factors in [
            (product(polygon(5), polygon(6)), [range(5), range(5, 11)]),
            (product(simplex_polytope(3), polygon(6)), [range(4), range(4, 10)]),
            (cube(3), [range(2), range(2, 4), range(4, 6)]),
        ]:
            k = p.dual_complex()
            expected = [list(r) for r in factors]
            assert minimal_nonface_factors(k) == split_factors(k) == expected

    @pytest.mark.parametrize("n", [3, 5, 6, 9, 12])
    def test_polygons_are_one_factor(self, n):
        k = polygon(n).dual_complex()
        assert minimal_nonface_factors(k) == split_factors(k) == [list(range(n))]

    def test_a_product_lists_only_its_factors_faces(self, monkeypatch):
        # cube-11's dual is the join of eleven copies of S^0 on 22 vertices,
        # with 3^11 faces; each S^0 is ∂Δ^1, summed with no listing, and no
        # SimplicialComplex is made along the way.  Pentagon x cube-3 lists
        # nothing, the pentagon being a circle summed from its facets, and
        # with that closed form off the pentagon's 11 faces alone.  The duals
        # of simplex-3^4 and of
        # C(7, 4) * ∂Δ^2 have no missing edge, so the product test splits
        # them vertex by vertex: the first lists nothing, the second the
        # 71 faces of C(7, 4) alone, not the 497 of the join
        perm = list(range(10))
        random.Random(7).shuffle(perm)
        neighbourly = join(cyclic_4_polytope_boundary(7), boundary_complex(2)).relabeled(perm)
        oracle = reference_sum(subset_homologies(neighbourly))[0]
        tetrahedra = simplex_polytope(3)
        for _ in range(3):
            tetrahedra = product(tetrahedra, simplex_polytope(3))

        def refuse(*args, **kwargs):
            raise AssertionError("a SimplicialComplex was built")

        monkeypatch.setattr(SimplicialComplex, "__post_init__", refuse)
        with counted() as trace:
            groups = moment_angle_cohomology(cube(11))
            assert trace.built == []
            # Z = (S^3)^11
            assert groups == GradedGroups.from_ranks({3 * i: comb(11, i) for i in range(12)})
            moment_angle_cohomology(product(polygon(5), cube(3)))
            assert trace.built == []
            with pytest.MonkeyPatch.context() as patch:
                sphere_table_off(patch)
                moment_angle_cohomology(product(polygon(5), cube(3)))
            assert [len(faces.ext) for faces in trace.built] == [11]
            trace.built.clear()
            # Z = (S^7)^4
            groups = moment_angle_cohomology(tetrahedra)
            assert groups == GradedGroups.from_ranks({7 * i: comb(4, i) for i in range(5)})
            assert trace.built == []
            assert moment_angle_cohomology(neighbourly) == oracle
            assert [len(faces.ext) for faces in trace.built] == [71]

    def test_the_cap_counts_every_vertex(self):
        # cube-5 splits into five 2-vertex factors, but the cap sees m = 10
        with pytest.raises(SubsetLimitError, match=r"2\^10 = 1024"):
            moment_angle_cohomology(cube(5).dual_complex(), max_vertices=9)


def settles(k, kind):
    """The serial sum of K's calls of kind "graph" or "eliminated", as
    ``counted`` splits them: (the walk's K_J settles, its link calls, the
    certificate's)."""
    with counted() as trace:
        moment_angle_cohomology(k)
    calls = trace.calls
    return calls[kind], calls["link_" + kind], calls["certificate_" + kind]


class TestWalkCounter:
    # the counter's K_J settles are the visited subsets J of each walked
    # factor, in its own numbering, that route() settles by computing K_J:
    # on a certified sphere the walk visits those with 2|J| < m and those
    # with 2|J| = m that leave out vertex m - 1.  Every factor is walked,
    # spheres of dimension 3 or less included

    @pytest.fixture(autouse=True)
    def walked(self, monkeypatch):
        sphere_table_off(monkeypatch)

    @pytest.mark.parametrize(
        "name, settled",
        [("polygon-12-relabelled", 46), ("cube-5-cut-at-0", 20), ("simplex-2-join-3", 0)],
    )
    def test_settles_are_the_computed_routes(self, name, settled):
        perm = list(range(12))
        random.Random("1:polygon-12").shuffle(perm)
        k = {
            "polygon-12-relabelled": polygon(12).dual_complex().relabeled(perm),
            "cube-5-cut-at-0": cube(5).cut_vertex(0).dual_complex(),
            "simplex-2-join-3": join(boundary_complex(2), boundary_complex(3)),
        }[name]
        with counted() as trace:
            moment_angle_cohomology(k)
        computed = 0
        for decided in trace.factors:
            if decided.bits is None:  # ∂Δ, summed in closed form
                continue
            faces = decided.faces
            m = faces.vertex_count
            factor = SimplicialComplex(m, [[v for v in range(m) if f >> v & 1] for f in faces.facets])
            dim = oracle_sphere_dimension(factor)
            assert decided.dim == dim
            for J in range(1, 1 << m):
                half = 2 * J.bit_count() - m
                if dim is None or half < 0 or (half == 0 and not J >> (m - 1) & 1):
                    computed += route(factor, [v for v in range(m) if J >> v & 1]) == "computed"
        assert trace.calls["graph"] + trace.calls["eliminated"] == computed == settled


class TestVertexOrder:
    # each factor is numbered by maximum cardinality search, so that a step
    # into J ∪ {v} mostly finds v's neighbours above v spanning a face with
    # v, and reuses the parent's groups; these counts are the point of it.
    # Every factor is walked, spheres of dimension 3 or less included

    @pytest.fixture(autouse=True)
    def walked(self, monkeypatch):
        sphere_table_off(monkeypatch)

    def test_order_on_a_path(self):
        # the path 4-1-0-2-3 and a ghost 5: 0, the lowest vertex, takes the
        # top label, then its neighbour 1; 4 and 2 both have one labelled
        # neighbour, and 4 is 1's, so it comes before 2, then 3
        linked = [0b000111, 0b010011, 0b001101, 0b001100, 0b010010, 0]
        bits = moment_angle_module._order(0b011111, linked)
        assert [bit.bit_length() - 1 for bit in bits] == [3, 2, 4, 1, 0]
        # the part with no vertex, which only a sum forced to take m = 0
        # as one factor asks for
        assert moment_angle_module._order(0, []) == []

    def test_relabelled_polygons_settle_the_same(self):
        # the 12-gon under 30 relabellings is numbered along its cycle, so
        # only the steps that add the lowest vertex to a J holding both its
        # neighbours need a graph, 46 of them in the half that the walk
        # visits (the cycle itself, whose parent is an acyclic path, lies
        # past it); the link of two points is filled once, and the facet
        # test certifies the circle with no homology call
        k = polygon(12).dual_complex()
        given = set()
        for seed in range(30):
            perm = list(range(12))
            random.Random(seed).shuffle(perm)
            relabelled = k.relabeled(perm)
            assert settles(relabelled, "graph") == (46, 1, 0), seed
            assert settles(relabelled, "eliminated") == (0, 0, 0), seed
            with pytest.MonkeyPatch.context() as patch:
                order_off(patch)
                given.add(settles(relabelled, "graph")[0])
        assert min(given) > 46

    def test_simplex_cuts_eliminate_less(self):
        # simplex-4 after 8 cuts at vertex 0, a 3-sphere on 13 vertices; the
        # certificate eliminates K alone, its vertex links being 2-spheres
        # for the facet test
        p = simplex_polytope(4)
        for _ in range(8):
            p = p.cut_vertex(0)
        assert settles(p, "eliminated") == (48, 8, 1)
        with pytest.MonkeyPatch.context() as patch:
            order_off(patch)
            assert settles(p, "eliminated") == (902, 164, 1)

    def test_the_boundary_of_a_simplex_keeps_its_order(self):
        # ∂Δ^3 * pentagon, the dual of simplex-3 x polygon-5, its labels
        # shuffled: ∂Δ^3, whose vertices the product test merges one at a
        # time, is summed in closed form, so it keeps its vertices as given
        # with no search and no listing; the pentagon, a circle whose closed
        # form is off here, is searched and listed
        k = product(simplex_polytope(3), polygon(5)).dual_complex()
        perm = list(range(9))
        random.Random(3).shuffle(perm)
        k = k.relabeled(perm)
        with counted() as trace:
            moment_angle_cohomology(k)
        assert sorted(factor.part.bit_count() for factor in trace.factors) == [4, 5]
        searched = [part.bit_count() for part in trace.numbered]
        assert searched == [faces.vertex_count for faces in trace.built] == [5]
        (simplex,) = [factor for factor in trace.factors if factor.bits is None]
        assert simplex.part.bit_count() == 4 and simplex.faces == {(0, 0, 0): 1, (4, 7, 0): 1}
        groups, table = reference_sum(subset_homologies(k))
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table

    def test_pool_tasks_take_the_renumbered_facets(self, monkeypatch):
        # in RP2 * S^0 with the labels interleaved the RP2 factor is
        # renumbered, and with the threshold lowered it alone reaches the
        # pool, whose tasks list its faces from the facets they are sent
        k = TestJoinFactors.CASES["rp2-join-s0"][0]
        (bits,) = [f.bits for f in factors_of(k) if f.part.bit_count() == 6]
        assert list(bits) != sorted(bits)
        groups, table = moment_angle_cohomology(k), bigraded_table(k)
        monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 2**10)
        with counted() as trace:
            assert moment_angle_cohomology(k, workers=2) == groups
            assert bigraded_table(k, workers=2) == table
        assert trace.pools == ([2, 2] if _usable_workers(2) == 2 else [])

    def test_the_sphere_around_rp2_without_the_order(self, monkeypatch):
        # the (|J|, degree, a) table in full, the Z/2 of RP2 and its
        # complement included; the oracle is too slow for its 2^16 subsets
        m, facets = moment_angle_module._check_input(sphere_around_rp2(), 16)
        table, _ = moment_angle_module._gather(m, facets, 1)
        assert table[(6, 9, 2)] == table[(10, 13, 2)] == 1
        order_off(monkeypatch)
        assert moment_angle_module._gather(m, facets, 1)[0] == table


def link_listings(faces, dim, bound):
    """The serial walk's table of one factor, a sphere of dimension ``dim`` or
    None, with the link memo kept at the vertices with at most ``bound``
    neighbours above, and how often each link (faces, v, A) was listed."""
    with pytest.MonkeyPatch.context() as patch, counted() as trace:
        patch.setattr(moment_angle_module, "_MEMO_NEIGHBOURS", bound)
        table = _walk(faces, dim, 0, faces.vertex_count)
    return table, trace.listed


class TestLinkMemo:
    # v's link in K_{J ∪ v} depends on v and A = J ∩ N(v) alone; the walk
    # memoises its groups at each vertex with at most _MEMO_NEIGHBOURS
    # neighbours numbered above it, which bounds a memo at 2^that entries

    def test_only_a_vertex_with_a_memo_lists_each_link_once(self):
        # cube-6 cut 5 times, a 5-sphere on 17 vertices, one factor; no
        # vertex has more than 10 neighbours above it, and an A recurs
        p = cube(6)
        for _ in range(5):
            p = p.cut_vertex(0)
        (factor,) = factors_of(p)
        faces = factor.faces
        assert factor.dim == 5

        def above(sigma):  # the neighbours of the vertex sigma above it
            return (faces.ext[sigma] >> sigma.bit_length()).bit_count()

        table, listed = link_listings(faces, 5, 10)
        assert set(listed.values()) == {1}
        for bound in (3, -1):
            again, relisted = link_listings(faces, 5, bound)
            assert again == table
            twice = {sigma for (_, sigma, _), n in relisted.items() if n > 1}
            assert twice and all(above(sigma) > bound for sigma in twice)
            assert sum(relisted.values()) > sum(listed.values())

    def test_a_cyclic_polytope_against_the_oracle(self, monkeypatch):
        # on the boundary of C(9, 4) every two vertices span an edge, so
        # A = J at every step and no A recurs; with the bound at 2 most
        # vertices keep no memo.  The 3-sphere is walked only with its
        # closed form off
        k = cyclic_4_polytope_boundary(9)
        groups, table = reference_sum(subset_homologies(k))
        assert moment_angle_cohomology(k) == groups
        sphere_table_off(monkeypatch)
        for bound in (2, 10):
            monkeypatch.setattr(moment_angle_module, "_MEMO_NEIGHBOURS", bound)
            assert moment_angle_cohomology(k) == groups
            assert bigraded_table(k) == table


def cut_at_0(p, times):
    """P cut ``times`` times at vertex 0."""
    for _ in range(times):
        p = p.cut_vertex(0)
    return p


class TestSphereTable:
    # a certified sphere of dimension 1, 2 or 3 is summed from its f-vector
    # and the connected vertex sets of its 1-skeleton: no walk, no link
    # listing and no K_J settle; the certificate's own calls remain
    INPUTS = {
        "polygon-12-relabelled": (
            lambda: polygon(12).dual_complex().relabeled(random.Random(1).sample(range(12), 12)),
            1,
        ),
        "cube-3-cut-4": (lambda: cut_at_0(cube(3), 4), 2),
        "simplex-4-cut-8": (lambda: cut_at_0(simplex_polytope(4), 8), 3),
        "cyclic-4-polytope-9": (lambda: cyclic_4_polytope_boundary(9), 3),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_no_factor_is_walked(self, name, monkeypatch):
        make, dim = self.INPUTS[name]
        k = make()
        with counted() as trace:
            groups, table = moment_angle_cohomology(k), bigraded_table(k)
        assert [d for _, d in trace.summed] == [dim, dim]  # one factor, one per call
        assert trace.walks == [] and trace.listed == Counter() and trace.pools == []
        assert {kind for kind, _ in trace.results} <= {"certificate_graph", "certificate_eliminated"}
        sphere_table_off(monkeypatch)
        with counted() as trace:
            assert moment_angle_cohomology(k) == groups
            assert bigraded_table(k) == table
        assert trace.summed == [] and [d for _, d in trace.walks] == [dim, dim]

    @pytest.mark.parametrize("argv, tested, certified", [
        ("betti polygon 12", [(12, 1, True)], []),
        ("betti cut-vertex ( cube 3 ) 0", [(7, 2, True)], []),
        ("verify polygon 5 --all-vertices", [(5, 1, True)], []),
        # a 3-sphere on 7 vertices: its faces are listed once, inside the certificate
        ("betti cut-vertex ( cut-vertex ( simplex 4 ) 0 ) 0", [], [7]),
    ])
    def test_spheres_of_dimension_three_or_less_are_certified_unlisted(self, argv, tested, certified, capsys):
        # a circle, a 2-sphere or a 3-sphere passes the certificate and is
        # summed from its facets with no numbering, no face table of its own
        # and no walk
        with counted() as trace:
            assert cli.main(argv.split()) == 0
        capsys.readouterr()
        assert trace.tested == tested
        assert trace.certified == certified
        assert trace.numbered == trace.walks == []
        assert [faces.vertex_count for faces in trace.built] == certified

    INTERLEAVED = {
        # each factor's labels are shuffled among the other's, so every
        # vertex's facet neighbourhood in K holds the other factor's vertices
        "pentagon-join-hexagon": (lambda: join(polygon(5).dual_complex(), polygon(6).dual_complex()), [(5, 1, True), (6, 1, True)]),
        "triangle-join-heptagon": (lambda: join(boundary_complex(2), polygon(7).dual_complex()), [(7, 1, True)]),
        # the 2-sphere of the prism cut at a vertex is not a join
        "two-sphere-join-pentagon": (
            lambda: join(product(simplex_polytope(2), simplex_polytope(1)).cut_vertex(0).dual_complex(),
                         polygon(5).dual_complex()),
            [(6, 2, True), (5, 1, True)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(INTERLEAVED))
    def test_interleaved_factors_are_certified_from_their_facets(self, name):
        # the facet test and the component sums read each vertex's
        # neighbours from K's masks cut to the factor; uncut, the facet test
        # fails and the factor is walked, and the sums of an inherited
        # certificate come out wrong
        make, tested = self.INTERLEAVED[name]
        k = make()
        k = k.relabeled(random.Random(name).sample(range(k.vertex_count), k.vertex_count))
        expected = subset_table(subset_homologies(k))
        m, facets = _check_input(k, 22)
        with counted() as trace:
            assert _gather(m, facets, 1) == (expected, True)
        assert sorted(trace.tested) == sorted(tested)  # in the order of the lowest labels
        assert trace.numbered == trace.built == trace.walks == []
        with counted() as trace:
            assert _gather(m, facets, 1, sphere=True) == (expected, True)
        assert trace.tested == trace.numbered == trace.built == trace.walks == []

    def test_higher_dimensions_are_walked(self):
        # the cube-5 cut at vertex 0 is a 4-sphere on 11 vertices
        with counted() as trace:
            moment_angle_cohomology(cut_at_0(cube(5), 1))
        assert trace.summed == [] and [d for _, d in trace.walks] == [4]

    def test_the_route_ignores_the_worker_count(self, monkeypatch):
        # with the pool threshold at 0 a walked polygon reaches the pool;
        # summed from its f-vector it stays in this process
        k = polygon(10).dual_complex()
        groups = moment_angle_cohomology(k)
        monkeypatch.setattr(moment_angle_module, "_POOL_MIN_WORK", 0)
        with counted() as trace:
            assert moment_angle_cohomology(k, workers=2) == groups
        assert trace.pools == [] and [d for _, d in trace.summed] == [1]


def components(J, linked):
    """c(J): the components of the graph on J whose edges are read off ``linked[v] & J``."""
    c = 0
    while J:
        c += 1
        part, grown = 0, J & -J
        while grown != part:
            part = grown
            for v in vertices_of(part):
                grown |= linked[v] & J
        J &= ~part
    return c


class TestComponentSums:
    # count[s] of _component_sums is the sum of c(J) over the J of s
    # vertices, on graphs whose vertex mask leaves labels out and whose
    # masks reach those labels, as a join factor's do; the stop where
    # S ∪ N(S) is every vertex fires often on dense graphs and the
    # complete one, rarely on a path
    NAMES = [f"{kind}-{m}" for kind in ("sparse", "dense") for m in (7, 10, 12)]
    NAMES += ["complete-12", "path-12", "star-12", "complete-1", "path-2"]

    @staticmethod
    def graph(name):
        """m of m + 3 labels, and ``linked`` on all of them: v, the ends of
        v's edges, and random labels outside the m."""
        kind, m = name.split("-")
        r = random.Random(name)
        n = int(m) + 3
        labels = r.sample(range(n), int(m))
        if kind in ("sparse", "dense"):
            p = 0.2 if kind == "sparse" else 0.8
            edges = [e for e in combinations(labels, 2) if r.random() < p]
        elif kind == "complete":
            edges = list(combinations(labels, 2))
        elif kind == "path":
            edges = list(zip(labels, labels[1:]))
        else:  # a star centred on labels[0]
            edges = [(labels[0], v) for v in labels[1:]]
        outside = sorted(set(range(n)) - set(labels))
        edges += [(v, w) for w in outside for v in range(n) if v != w and r.random() < 0.5]
        linked = [1 << v for v in range(n)]
        for v, w in edges:
            linked[v] |= 1 << w
            linked[w] |= 1 << v
        return labels, linked

    @pytest.mark.parametrize("name", NAMES)
    def test_equals_the_components_summed_by_size(self, name):
        labels, linked = self.graph(name)
        count = _component_sums(sum(1 << v for v in labels), linked)
        for s in range(len(labels) + 1):
            expected = sum(components(sum(1 << v for v in J), linked) for J in combinations(labels, s))
            assert count[s] == expected, (name, s)


class TestPolytopeInput:
    """A polytope P in place of K is its dual complex K_P, in both entry points."""

    POLYTOPES = [
        *theorem_corpus(),
        ("polygon-5 x simplex-2", product(polygon(5), simplex_polytope(2))),
        ("cube-3 cut at vertex 4", cube(3).cut_vertex(4)),
    ]

    @pytest.mark.parametrize("p", [p for _, p in POLYTOPES], ids=[n for n, _ in POLYTOPES])
    def test_same_as_the_dual_complex(self, p):
        k = p.dual_complex()
        assert moment_angle_cohomology(p) == moment_angle_cohomology(k)
        assert bigraded_table(p) == bigraded_table(k)

    def test_the_cap_reads_the_facet_count(self):
        # cube-4 has 16 vertices but 8 facets, the vertices of its dual
        with pytest.raises(SubsetLimitError) as caught:
            bigraded_table(cube(4), max_vertices=7)
        assert (caught.value.m, caught.value.limit) == (8, 7)
        assert moment_angle_cohomology(cube(4), max_vertices=8) is not None


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
        assert poincare_product(a, b) == PoincarePolynomial({0: 1, 3: 1, 5: 1, 8: 1})

    def test_zero_coefficients_dropped(self):
        p = PoincarePolynomial({0: 1, 4: 0})
        assert p.degrees() == [0]
        assert PoincarePolynomial({}).degrees() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PoincarePolynomial({-1: 1})
        with pytest.raises(ValueError):
            PoincarePolynomial({2: -3})

    def test_symmetry_check(self):
        assert is_symmetric(PoincarePolynomial({0: 1, 3: 5, 4: 5, 7: 1}), 7)
        assert not is_symmetric(PoincarePolynomial({0: 1, 3: 5, 4: 4, 7: 1}), 7)

    def test_betti_drops_negative_degrees_and_torsion(self):
        g = GradedGroups({-1: (1, ()), 2: (3, ()), 5: (0, (2,))})
        poly = betti(g)
        assert poly == PoincarePolynomial({2: 3})
        assert poly.coefficient(5) == 0

    def test_betti_of_zero(self):
        assert betti(GradedGroups({})) == PoincarePolynomial({})
