"""Property tests: the bitmask engine against the per-subset oracle.

Inputs are random complexes on at most 8 vertices (ghost vertices and the
complex whose only face is the empty one included), joins with the
6-vertex RP^2, and dual complexes of polytopes built by products and
vertex cuts with at most 9 facets.  For each, the engine must agree with
``tests/subset_oracle.py`` on every full subcomplex, on H*(Z_K) and on the
bigraded table.  Examples are derandomized so every run checks the same
inputs.

Polytope duals are spheres, so their sums take the duality path, which
computes one subset of each complementary pair; they are also checked
against the same sums with the sphere certificate forced to fail.  Random
joins, with their vertices shuffled, and the corpus polytopes, whose
products are joins, are checked against the same sums with the join
factor search forced to report a single factor.  Random complexes, joins
with RP^2 and the corpus polytopes with their cuts are checked, subset by
subset and summed, against the engine with its cone test and its graph
path forced off, so that every subset goes through elimination.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import momentangle.homology as homology_module  # noqa: E402
from momentangle.homology import GradedGroups, _Faces, reduced_homology  # noqa: E402
from momentangle.moment_angle import bigraded_table, moment_angle_cohomology  # noqa: E402
from momentangle.polytopes import polygon, product, simplex_polytope  # noqa: E402
from momentangle.simplicial import SimplicialComplex, join  # noqa: E402
from momentangle.surgery import theorem_corpus  # noqa: E402
from complexes import is_face  # noqa: E402
from subset_oracle import reference_sum, subset_homologies  # noqa: E402

RP2 = SimplicialComplex(
    6,
    [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ],
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
    faces = _Faces(k)
    for J, expected in homologies.items():
        assert GradedGroups(faces.homology(sum(1 << v for v in J))) == expected, J
        assert reduced_homology(k.full_subcomplex(J)) == expected, J
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
    assert _Faces(k).sphere_dimension() is not None
    groups, table = moment_angle_cohomology(k), bigraded_table(k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Faces, "sphere_dimension", lambda self: None)
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


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_duality_on_equals_off_on_the_corpus(p):
    assert_duality_changes_nothing(p.dual_complex())


def assert_factor_search_changes_nothing(k):
    groups, table = moment_angle_cohomology(k), bigraded_table(k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Faces, "join_factors", lambda self: [list(range(self.vertex_count))])
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


@pytest.mark.parametrize("p", [p for _, p in CORPUS], ids=[name for name, _ in CORPUS])
def test_factor_search_on_equals_off_on_the_corpus(p):
    assert_factor_search_changes_nothing(p.dual_complex())


def force_rules_off(patch):
    """Every subset through elimination: no cone test and no graph path."""

    def homology(self, subset):
        present = []
        for layer in self.layers[1:]:
            faces = [(face, col) for face, col in layer if face & subset == face]
            if not faces:
                break
            present.append(faces)
        return homology_module._matrix_groups(present)

    patch.setattr(_Faces, "homology", homology)
    patch.setattr(homology_module, "_reduced_groups", homology_module._matrix_groups)


def is_cone(k, vertices):
    """Whether K_J has a vertex w with F ∪ {w} a face for each of its facets F."""
    sub = k.full_subcomplex(vertices)  # on the vertices 0, ..., |J| - 1
    return any(
        is_face(sub, (w,)) and all(is_face(sub, set(f) | {w}) for f in sub.maximal_faces)
        for w in range(sub.vertex_count)
    )


def assert_rules_change_nothing(k):
    faces = _Faces(k)
    subsets = range(1 << k.vertex_count)
    on, reached = [], set()
    with pytest.MonkeyPatch.context() as patch:
        reduced_groups = homology_module._reduced_groups

        def spy(present):
            reached.add(len(on))  # the subset being computed
            return reduced_groups(present)

        patch.setattr(homology_module, "_reduced_groups", spy)
        for J in subsets:
            on.append(faces.homology(J))
    groups, table = moment_angle_cohomology(k), bigraded_table(k)
    with pytest.MonkeyPatch.context() as patch:
        force_rules_off(patch)
        assert [faces.homology(J) for J in subsets] == on
        assert moment_angle_cohomology(k) == groups
        assert bigraded_table(k) == table
    homologies = subset_homologies(k)
    for J, expected in homologies.items():
        assert GradedGroups(on[sum(1 << v for v in J)]) == expected, J
    assert reference_sum(homologies) == (groups, table)
    # the cone test skips exactly the cones, and nothing else
    cones = {sum(1 << v for v in J) for J in homologies if is_cone(k, J)}
    assert set(subsets) - reached == cones


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
