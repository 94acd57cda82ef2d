"""Property tests: the bitmask engine against the per-subset oracle.

Inputs are random complexes on at most 8 vertices (ghost vertices and the
complex whose only face is the empty one included), joins with the
6-vertex RP^2, and dual complexes of polytopes built by products and
vertex cuts with at most 9 facets.  For each, the engine must agree with
``tests/subset_oracle.py`` on every full subcomplex (as the subset walk
reaches it, and by ``reduced_homology``), on H*(Z_K) and on the bigraded
table.  Examples are derandomized so every run checks the same inputs.

The face table ``_Faces.ext``, each face with the vertices it extends
by, equals one built by brute force from ``faces_of_dimension`` on random
complexes, joins with RP^2 and the corpus with its cuts.

Polytope duals are spheres, so their sums take the duality path, which
computes one subset of each complementary pair; they are also checked
against the same sums with the sphere certificate forced to fail.  Random
joins, with their vertices shuffled, and the corpus polytopes, whose
products are joins, are checked against the same sums with the join
factor search forced to report a single factor; there and on random
complexes, the factors that the sum splits off are checked against a
brute-force search for the minimal non-faces.  The whole (|J|, degree, a)
table, with each join factor numbered by the maximum cardinality search
and, with that search off, as given, equals the oracle's on random
complexes and joins, joins with RP^2, RP^2 with and without a path, the
mod-3 Moore space and the corpus with its cuts.  Random complexes, joins
with RP^2 and the corpus polytopes with their cuts are checked, subset by
subset and summed, three ways: the walk's groups against the oracle's;
the rule the walk takes for each subset (a reused parent, a point, a
suspended link, or ``_reduced_groups``) against the rule read off the
maximal faces, and each rule's claim against the oracle's groups; and every K_J through
elimination alone, with no rule and no graph path, against the oracle.
The walk's tables from the prefix roots of the top 1, 2 and 3 vertices,
each root walked alone as a pool task walks it, merged equal the oracle's
on the same inputs and on RP^2, RP^2 with a path and the mod-3 Moore
space.  Every join factor of every cut's dual passes the sphere
certificate on cut sequences of the 3- and 4-simplex and cube with
m >= 3n, which is what lets ``verify`` skip each cut's certificate.
Relabelled ∂Δ^1 ... ∂Δ^8, and joins of ∂Δ^2 or ∂Δ^3 with random
complexes, equal the oracle while ``counted`` shows that no ∂Δ factor is
listed, certified, numbered or walked: its table is the closed form.
The table of a sphere of dimension 1, 2 or 3 from its f-vector and its
1-skeleton (``_sphere_table``) equals, key for key and with no zero
count, the oracle's on relabelled cut sequences of polygons, the 3- and
4-simplex, the cube and the prism with at most 10 vertices, and the
mirrored walk's on such sequences with at most 16; and the f-vector that
it takes from the vertex and facet counts (Dehn-Sommerville) equals the
one counted from the face table on the same spheres.
"""

import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import momentangle.homology as homology_module  # noqa: E402
import momentangle.moment_angle as moment_angle_module  # noqa: E402
from momentangle.homology import GradedGroups, _facet_sphere, _masks, reduced_homology  # noqa: E402
from momentangle.moment_angle import (  # noqa: E402
    _check_input,
    _gather,
    _mirror,
    _sphere_table,
    _walk,
    bigraded_table,
    moment_angle_cohomology,
)
from momentangle.polytopes import cube, polygon, product, simplex_polytope  # noqa: E402
from momentangle.simplicial import SimplicialComplex, boundary_complex, join  # noqa: E402
from momentangle.surgery import theorem_corpus  # noqa: E402
from complexes import RP2, cyclic_4_polytope_boundary, faces_of_dimension, full_subcomplex  # noqa: E402
from subset_oracle import _reduced_homology, reference_sum, subset_homologies  # noqa: E402
from subset_oracle import sphere_dimension as oracle_sphere_dimension  # noqa: E402
from test_surgery import assert_cut_factors_are_spheres  # noqa: E402
from test_moment_angle import (  # noqa: E402
    MOORE3,
    RP2_WITH_PATH,
    factor_search_off,
    order_off,
    sphere_table_off,
    split_factors,
)
from walk import (  # noqa: E402
    certified_dimension,
    counted,
    factors_of,
    faces_of,
    link,
    loop_groups,
    mask,
    minimal_nonface_factors,
    neighbour_masks,
    route,
    steps,
    subset_table,
    walk_groups,
)


def checked(examples):
    return settings(
        max_examples=examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def complexes(draw, max_vertices=8, max_face=4):
    m = draw(st.integers(0, max_vertices))
    if not m:
        return SimplicialComplex(0, [()])
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=10))
    faces = [[v for v in range(m) if mask >> v & 1][:max_face] for mask in masks]
    # no face drawn gives {()}, the complex whose only face is the empty one
    return SimplicialComplex(m, faces or [()])


@st.composite
def rp2_joins(draw):
    other = draw(complexes(max_vertices=3, max_face=2))
    return join(other, RP2) if draw(st.booleans()) else join(RP2, other)


FACTORS = [simplex_polytope(1), simplex_polytope(2), simplex_polytope(3), polygon(4), polygon(5)]


@st.composite
def polytope_complexes(draw, max_facets=9):
    p = draw(st.sampled_from(FACTORS[1:]))
    q = draw(st.sampled_from(FACTORS))
    if p.m + q.m <= max_facets and draw(st.booleans()):
        p = product(p, q)
    while p.m < max_facets and draw(st.booleans()):
        p = p.cut_vertex(draw(st.integers(0, p.vertex_count - 1)))
    return p.dual_complex()


def assert_engine_matches_oracle(k):
    homologies = subset_homologies(k)
    faces = faces_of(k)
    for J, expected in homologies.items():
        assert walk_groups(faces, mask(J)) == expected, J
        assert reduced_homology(full_subcomplex(k, J)) == expected, J
    groups, table = reference_sum(homologies)
    assert moment_angle_cohomology(k) == groups
    assert bigraded_table(k) == table


@checked(100)
@given(complexes())
def test_random_complexes(k):
    assert_engine_matches_oracle(k)


@checked(10)
@given(rp2_joins())
def test_joins_with_the_projective_plane(k):
    assert_engine_matches_oracle(k)


@checked(12)
@given(polytope_complexes())
def test_polytopes_from_products_and_cuts(k):
    assert k.vertex_count <= 9
    assert_engine_matches_oracle(k)


def assert_duality_changes_nothing(k):
    assert certified_dimension(k) is not None
    groups, table = moment_angle_cohomology(k), bigraded_table(k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moment_angle_module, "_facet_sphere", lambda vertices, facets, d, linked: False)
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table


@checked(12)
@given(polytope_complexes())
def test_duality_on_equals_off_on_polytopes(k):
    assert_duality_changes_nothing(k)


CORPUS = theorem_corpus() + [
    (f"{name}-cut-{v}", p.cut_vertex(v))
    for name, p in theorem_corpus()
    for v in range(p.vertex_count)
]


def assert_face_table_is_brute_force(k):
    """``_Faces`` against the faces that ``faces_of_dimension`` lists by combinations."""
    faces = {mask(f) for d in range(-1, k.dim + 1) for f in faces_of_dimension(k, d)}
    ext = {f: f | mask(w for w in range(k.vertex_count) if f | 1 << w in faces) for f in faces}
    assert faces_of(k).ext == ext


@checked(100)
@given(st.one_of(complexes(), rp2_joins()))
def test_face_table_on_random_complexes(k):
    assert_face_table_is_brute_force(k)


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_face_table_on_the_corpus(p):
    assert_face_table_is_brute_force(p.dual_complex())


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_duality_on_equals_off_on_the_corpus(p):
    assert_duality_changes_nothing(p.dual_complex())


def assert_factor_search_changes_nothing(k):
    # the missing edges and the product test find the minimal non-faces
    assert split_factors(k) == minimal_nonface_factors(k)
    groups, table = moment_angle_cohomology(k), bigraded_table(k)
    with pytest.MonkeyPatch.context() as patch:
        factor_search_off(patch)
        assert split_factors(k) == [list(range(k.vertex_count))]
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table


@st.composite
def random_joins(draw, max_vertices=11):
    k = draw(complexes(max_vertices=4))
    for _ in range(draw(st.integers(1, 2))):
        room = max_vertices - k.vertex_count
        if room >= 6 and draw(st.booleans()):
            k = join(k, RP2)
        else:
            k = join(k, draw(complexes(max_vertices=min(4, room))))
    return k.relabeled(draw(st.permutations(range(k.vertex_count))))


@checked(30)
@given(random_joins())
def test_factor_search_on_equals_off_on_random_joins(k):
    assert_factor_search_changes_nothing(k)


@checked(100)
@given(complexes())
def test_split_finds_the_minimal_nonfaces_of_random_complexes(k):
    # non-joins and non-pure complexes among them; about one in five has
    # components that the product test merges one at a time
    assert split_factors(k) == minimal_nonface_factors(k)


@st.composite
def boundary_joins(draw, max_joins=2):
    # ∂Δ^2, ∂Δ^3 and the neighbourly C(7, 4) have no missing edge, so only
    # the product test, applied one vertex at a time, separates them from
    # each other and from a random complex; at most one C(7, 4), m ≤ 14
    k = draw(complexes(max_vertices=3))
    cyclic = False
    for _ in range(draw(st.integers(1, max_joins))):
        if not cyclic and draw(st.integers(0, 3)) == 0:
            k, cyclic = join(k, cyclic_4_polytope_boundary(7)), True
        else:
            k = join(k, boundary_complex(draw(st.integers(2, 3))))
    return k.relabeled(draw(st.permutations(range(k.vertex_count))))


@checked(30)
@given(boundary_joins())
def test_split_finds_the_minimal_nonfaces_of_simplex_boundary_joins(k):
    assert split_factors(k) == minimal_nonface_factors(k)


def simplex_boundary(m, facets):
    """Whether the distinct maximal faces ``facets``, as masks, make ∂Δ on m > 1 vertices."""
    return m > 1 and len(facets) == m and all(f.bit_count() == m - 1 for f in facets)


def assert_boundaries_are_summed_unlisted(k):
    """The sum of K against the oracle, with no ∂Δ factor listed, certified,
    numbered or walked; returns what was, as (vertex count, maximal faces).

    The face tables built, the certificate's included, and walked hold a
    factor's own facets; a vertex set numbered by ``_order`` has its
    maximal traces read off K.
    """
    groups, table = reference_sum(subset_homologies(k))
    with counted() as trace:
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table
    tables = trace.built + [faces for faces, _ in trace.walks]
    seen = [(faces.vertex_count, list(faces.facets)) for faces in tables]
    masks = _masks(k.maximal_faces)
    for part in trace.numbered:
        traces = {f & part for f in masks}
        maximal = [t for t in traces if not any(t != u and t | u == u for u in traces)]
        seen.append((part.bit_count(), maximal))
    assert not any(simplex_boundary(m, facets) for m, facets in seen), seen
    return seen


@pytest.mark.parametrize("n", range(1, 9))
def test_relabelled_simplex_boundaries_are_summed_unlisted(n):
    # the whole sum is the closed form: nothing is listed or walked
    perm = list(range(n + 1))
    random.Random(n).shuffle(perm)
    assert assert_boundaries_are_summed_unlisted(boundary_complex(n).relabeled(perm)) == []


@checked(30)
@given(boundary_joins(max_joins=1))
def test_joins_with_a_simplex_boundary_sum_it_unlisted(k):
    assert_boundaries_are_summed_unlisted(k)


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_factor_search_on_equals_off_on_the_corpus(p):
    assert_factor_search_changes_nothing(p.dual_complex())


def assert_order_changes_nothing(k):
    # the table of every subset, each factor numbered by the search and as
    # given, against the oracle's
    expected = subset_table(subset_homologies(k))
    m, facets = _check_input(k, k.vertex_count)
    assert _gather(m, facets, 1)[0] == expected
    with pytest.MonkeyPatch.context() as patch:
        order_off(patch)
        assert _gather(m, facets, 1)[0] == expected


@checked(60)
@given(complexes())
def test_order_on_equals_off_on_random_complexes(k):
    assert_order_changes_nothing(k)


@checked(30)
@given(random_joins(max_vertices=8))
def test_order_on_equals_off_on_random_joins(k):
    assert_order_changes_nothing(k)


@checked(10)
@given(rp2_joins())
def test_order_on_equals_off_on_joins_with_the_projective_plane(k):
    assert_order_changes_nothing(k)


@pytest.mark.parametrize(
    "k", [RP2, RP2_WITH_PATH, MOORE3], ids=["rp2", "rp2-pendant-path", "moore3"]
)
def test_order_on_equals_off_with_torsion(k):
    assert_order_changes_nothing(k)


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_order_on_equals_off_on_the_corpus(p):
    assert_order_changes_nothing(p.dual_complex())


def assert_parts_match_oracle(k, homologies):
    """The walk from each prefix root of the top t vertices, merged, against the oracle.

    t = 0 is the serial sum, from the root ∅; t = 1, 2 and 3 split it as a
    pool does, each root walked alone.
    """
    faces = faces_of(k)
    expected = subset_table(homologies)
    m, d = k.vertex_count, oracle_sphere_dimension(k)
    for dim in {d, None}:
        for t in range(min(m, 3) + 1):
            table = sum(
                (_walk(faces, dim, prefix << (m - t), m - t) for prefix in range(1 << t)),
                Counter(),
            )
            assert (table if dim is None else _mirror(table, m, dim)) == expected, (dim, t)


@pytest.mark.parametrize(
    "k", [RP2, RP2_WITH_PATH, MOORE3], ids=["rp2", "rp2-pendant-path", "moore3"]
)
def test_walk_parts_equal_the_oracle_with_torsion(k):
    assert_parts_match_oracle(k, subset_homologies(k))


def assert_loop_matches_oracle(k, homologies):
    """Each subset's groups as the full walk's loop settles its step, both ways, against the oracle."""
    for J, h in homologies.items():
        if J:
            assert loop_groups(k, J) == (h, h), J


@checked(60)
@given(complexes())
def test_the_loop_settles_each_subset_as_the_oracle_on_random_complexes(k):
    assert_loop_matches_oracle(k, subset_homologies(k))


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_the_loop_settles_each_subset_as_the_oracle_on_the_corpus(p):
    k = p.dual_complex()
    assert_loop_matches_oracle(k, subset_homologies(k))


@pytest.mark.parametrize(
    "k", [RP2, RP2_WITH_PATH, MOORE3], ids=["rp2", "rp2-pendant-path", "moore3"]
)
def test_the_loop_settles_each_subset_as_the_oracle_with_torsion(k):
    assert_loop_matches_oracle(k, subset_homologies(k))


@pytest.mark.parametrize(
    "p", [simplex_polytope(1), polygon(5), polygon(6)], ids=["interval", "pentagon", "hexagon"]
)
def test_roots_past_the_duality_half_walk_nothing(p):
    # every subset below such a root is past the half too, so its subtree,
    # down to the root's lowest vertex, is left to the mirror whole
    k = p.dual_complex()
    faces = faces_of(k)
    m, d = k.vertex_count, oracle_sphere_dimension(k)
    past = [
        root
        for root in range(1 << m)
        if 2 * root.bit_count() > m or (2 * root.bit_count() == m and root >> (m - 1) & 1)
    ]
    assert len(past) == 1 << (m - 1)  # the complements of the visited half
    for root in past:
        assert _walk(faces, d, root, (root & -root).bit_length() - 1) == Counter(), root


def sum_groups(a, b):
    """The direct sum of two graded groups."""
    return GradedGroups(
        {
            d: (a.rank(d) + b.rank(d), a.torsion(d) + b.torsion(d))
            for d in set(a.degrees()) | set(b.degrees())
        }
    )


def assert_rules_change_nothing(k):
    faces = faces_of(k)
    homologies = subset_homologies(k)
    by_mask = {mask(J): h for J, h in homologies.items()}
    walked = steps(faces, by_mask)
    point = GradedGroups({0: (1, ())})
    for J, h in homologies.items():
        assert walked[mask(J)].groups == h, J
        if not J:
            continue
        rule = route(k, J)
        # the walk takes the rule that the maximal faces call for
        assert walked[mask(J)].computed == (rule == "computed"), (J, rule)
        # and each rule's claim holds on the oracle's groups: an acyclic
        # link keeps the parent's groups, and an acyclic parent gives the
        # link's groups one degree up
        parent = by_mask[mask(J[1:])]
        if rule == "reused":
            assert h == parent, J
        elif rule == "point":
            empty = parent == GradedGroups({-1: (1, ())})
            assert h == (GradedGroups() if empty else sum_groups(parent, point)), J
        elif rule == "suspended":
            lk = _reduced_homology(link(k, J))
            assert parent == GradedGroups(), J
            assert h == GradedGroups({q + 1: (lk.rank(q), lk.torsion(q)) for q in lk.degrees()}), J
    # elimination alone, with no rule and no graph path, on every K_J
    for J, h in by_mask.items():
        present = []
        for layer in faces.link(0, faces.ext[0]):
            kept = [f for f in layer if f & J == f]
            if not kept:
                break
            present.append(kept)
        assert GradedGroups(homology_module._matrix_groups(present)) == h, J
    groups, table = reference_sum(homologies)
    assert moment_angle_cohomology(k) == groups
    assert bigraded_table(k) == table
    assert_parts_match_oracle(k, homologies)


@checked(60)
@given(complexes())
def test_rules_on_equals_off_on_random_complexes(k):
    assert_rules_change_nothing(k)


@checked(10)
@given(rp2_joins())
def test_rules_on_equals_off_on_joins_with_the_projective_plane(k):
    assert_rules_change_nothing(k)


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_rules_on_equals_off_on_the_corpus(p):
    assert_rules_change_nothing(p.dual_complex())


@st.composite
def long_cut_sequences(draw, n):
    """The n-simplex or n-cube cut at drawn vertices until m >= 3n, and maybe twice more."""
    p = draw(st.sampled_from([simplex_polytope(n), cube(n)]))
    while p.m < 3 * n or (p.m < 3 * n + 2 and draw(st.booleans())):
        p = p.cut_vertex(draw(st.integers(0, p.vertex_count - 1)))
    return p


@pytest.mark.parametrize("n", [3, 4])
@checked(8)
@given(data=st.data())
def test_every_cut_factor_of_a_long_cut_sequence_is_a_sphere(n, data):
    # the fact that lets verify skip each cut's certificate, past m = 3n
    assert_cut_factors_are_spheres(data.draw(long_cut_sequences(n)))


@st.composite
def low_dimensional_spheres(draw, max_facets):
    """The dual of polygon-k, simplex-3, cube-3, the prism or simplex-4, cut at
    drawn vertices, its labels shuffled: a sphere of dimension 1, 2 or 3 on
    at most ``max_facets`` vertices, or a join of such and of ∂Δ factors."""
    p = draw(st.sampled_from([
        polygon(draw(st.integers(4, max_facets))),
        simplex_polytope(3),
        cube(3),
        product(simplex_polytope(2), simplex_polytope(1)),
        simplex_polytope(4),
    ]))
    for _ in range(draw(st.integers(0, max_facets - p.m))):
        p = p.cut_vertex(draw(st.integers(0, p.vertex_count - 1)))
    k = p.dual_complex()
    return k.relabeled(draw(st.permutations(range(k.vertex_count))))


def listed_factors(k):
    """The join factors of K as the sum decides them with ``_sphere_table`` off, so
    that each sphere but ∂Δ is listed with its certified dimension; ∂Δ is left out."""
    with pytest.MonkeyPatch.context() as patch:
        sphere_table_off(patch)
        return [factor for factor in factors_of(k) if factor.bits is not None]


def sphere_tables(k):
    """Each listed join factor of K as a complex, with ``_sphere_table``'s table and the mirrored walk's."""
    out = []
    for listed in listed_factors(k):
        faces = listed.faces
        m, d = faces.vertex_count, listed.dim
        assert d == max(map(int.bit_count, faces.facets)) - 1 and 0 < d <= 3
        table = _sphere_table((1 << m) - 1, faces.facets, d, neighbour_masks(faces), True)
        assert all(type(n) is int and n > 0 for n in table.values()), table
        factor = SimplicialComplex(m, [[v for v in range(m) if f >> v & 1] for f in faces.facets])
        out.append((factor, dict(table), dict(_mirror(_walk(faces, d, 0, m), m, d))))
    return out


@checked(50)
@given(low_dimensional_spheres(10))
def test_sphere_tables_equal_the_oracle(k):
    for factor, table, walked in sphere_tables(k):
        assert table == walked == dict(subset_table(subset_homologies(factor)))


@checked(50)
@given(low_dimensional_spheres(16))
def test_sphere_tables_equal_the_walk(k):
    for _, table, walked in sphere_tables(k):
        assert table == walked


# the f-vector, the empty face first, of a Z-homology d-sphere with m vertices
# and F facets, as ``_sphere_table`` takes it (Dehn-Sommerville; Klee, 1964)
DEHN_SOMMERVILLE = {
    1: lambda m, F: [1, m, F],
    2: lambda m, F: [1, m, 3 * F // 2, F],
    3: lambda m, F: [1, m, m + F, 2 * F, F],
}


@checked(50)
@given(st.one_of(low_dimensional_spheres(10), low_dimensional_spheres(16)))
def test_the_f_vector_of_a_sphere_follows_from_its_facets(k):
    for listed in listed_factors(k):
        faces = listed.faces
        d = listed.dim
        counted = [0] * (d + 2)
        for face in faces.ext:
            counted[face.bit_count()] += 1
        assert counted == DEHN_SOMMERVILLE[d](faces.vertex_count, len(faces.facets))


def assert_facet_test_is_the_certificate(k):
    """``_facet_sphere`` on K, of dimension d ≤ 2, passes exactly when the
    subset oracle's ``sphere_dimension`` finds a d-sphere; returns whether it passed."""
    d = max(map(len, k.maximal_faces), default=0) - 1
    assert d <= 2
    passed = _facet_sphere((1 << k.vertex_count) - 1, _masks(k.maximal_faces), d, neighbour_masks(faces_of(k)))
    assert passed == (oracle_sphere_dimension(k) == d)
    return passed


def at_most_two_dimensional(k):
    return all(len(f) <= 3 for f in k.maximal_faces)


@st.composite
def relabelled_cut_sequences(draw):
    """The dual of the 3-simplex or 3-cube cut at drawn vertices to m >= 9, its labels shuffled."""
    k = draw(long_cut_sequences(3)).dual_complex()
    return k.relabeled(draw(st.permutations(range(k.vertex_count))))


@st.composite
def near_spheres(draw):
    """A sphere of dimension at most 2 with one facet taken out or one simplex
    of at most 3 vertices put in, maybe on a new vertex."""
    k = draw(st.one_of(low_dimensional_spheres(10).filter(at_most_two_dimensional), relabelled_cut_sequences()))
    faces = sorted(k.maximal_faces)
    m = k.vertex_count + draw(st.integers(0, 1))
    if draw(st.booleans()):
        faces.pop(draw(st.integers(0, len(faces) - 1)))
    else:
        faces.append(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True)))
    return SimplicialComplex(m, faces)


@checked(300)
@given(complexes(max_face=3))
def test_the_facet_test_is_the_certificate_on_random_complexes(k):
    assert_facet_test_is_the_certificate(k)


@checked(60)
@given(st.one_of(low_dimensional_spheres(16).filter(at_most_two_dimensional), relabelled_cut_sequences()))
def test_the_facet_test_passes_low_dimensional_spheres(k):
    assert assert_facet_test_is_the_certificate(k)


@checked(150)
@given(near_spheres())
def test_the_facet_test_is_the_certificate_near_spheres(k):
    assert_facet_test_is_the_certificate(k)
