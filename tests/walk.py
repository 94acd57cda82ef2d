"""The subset walk one subset at a time, for tests that follow single subsets.

``_walk`` from the root J with no vertex left below it reaches J by adding
J's vertices from the top down and visits nothing else, so its table is
J's alone.  The walk to J repeats the walk to J's parent, J minus its
lowest vertex, and adds one step; what a spy sees in the walk to J beyond
what it saw in the walk to the parent is that step's own.

The root path settles each step through ``step``, the helper that the
walk's loop calls only for the steps it does not settle itself; so
``loop_groups`` follows J's step through the loop instead, both where it
settles J in place as the one child of J minus its lowest vertex and
where it steps into J from the loop's own vertex.

``route`` says which rule settles the step into J, from the maximal faces
of K, the definitions and the oracle's homology alone, and
``minimal_nonface_factors`` which join factors the sum splits K into.

``counted`` counts what the engine computes while a block runs, by spies
on the three functions a settle passes through; the route pins and
``bench/walk_bench.py --routes`` both read it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations

import pytest

import momentangle.homology as homology_module
import momentangle.moment_angle as moment_angle_module
from momentangle.homology import GradedGroups, _Faces, _masks
from momentangle.moment_angle import _walk
from momentangle.simplicial import SimplicialComplex
from complexes import full_subcomplex
from subset_oracle import _reduced_homology


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def faces_of(k) -> _Faces:
    """The engine's face lists of a ``SimplicialComplex``, from its maximal faces."""
    return _Faces(k.vertex_count, _masks(k.maximal_faces))


def minimal_nonface_factors(k) -> list[list[int]]:
    """The finest join factors of K by brute force, as vertex lists by lowest vertex.

    Every vertex set S is tried: S is a minimal non-face when it is not a
    face and S minus any one of its vertices is.  A union-find merges the
    vertices of each minimal non-face, and its classes are the factors.
    """
    m = k.vertex_count
    faces = {
        mask(c) for f in k.maximal_faces for r in range(len(f) + 1) for c in combinations(f, r)
    }
    root = list(range(m))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for S in range(1, 1 << m):
        vertices = [v for v in range(m) if S >> v & 1]
        if S in faces or any(S ^ 1 << v not in faces for v in vertices):
            continue
        for v in vertices[1:]:
            a, b = find(vertices[0]), find(v)
            root[max(a, b)] = min(a, b)
    factors: dict[int, list[int]] = {}
    for v in range(m):
        factors.setdefault(find(v), []).append(v)
    return list(factors.values())


def walk_groups(faces, subset: int) -> GradedGroups:
    """H~(K_J), J = ``subset``, read back from the walk's table for J alone."""
    table = _walk(faces, None, subset, 0)
    assert {s for s, _, _ in table} <= {subset.bit_count()}
    return table_groups(table, subset.bit_count())


def loop_groups(k, vertices) -> tuple[GradedGroups, GradedGroups]:
    """H~(K_J), J = ``vertices`` (nonempty), as the loop of the full walk settles J's step.

    The full walk of K_J, J numbered 0..n-1 in order, visits J alone among
    its subsets of n vertices, last, and settles it in place as the one
    child of J - {0} when n > 1.  Below a ghost vertex 0, J numbered 1..n,
    J's step is the loop's own at vertex 1, and J ∪ {0} has J's groups.
    Either way J's step adds J's lowest vertex to the same parent, whose
    link in K_J is its link in K.
    """
    sub = full_subcomplex(k, vertices)
    n = len(vertices)
    below = SimplicialComplex(n + 1, {tuple(v + 1 for v in f) for f in sub.maximal_faces})
    return (
        table_groups(_walk(faces_of(sub), None, 0, n), n),
        table_groups(_walk(faces_of(below), None, 0, n + 1), n + 1),
    )


def table_groups(table: Counter, size: int) -> GradedGroups:
    """The groups of the subsets of ``size`` vertices in a walk's table, summed."""
    groups: dict[int, list] = {}
    for (s, degree, a), n in table.items():
        if s != size:
            continue
        group = groups.setdefault(degree - size - (2 if a else 1), [0, []])
        if a:
            group[1] += [a] * n
        else:
            group[0] += n
    return GradedGroups(groups)


def subset_table(homologies) -> Counter:
    """The (|J|, degree, a) table of the sum, from each K_J's groups."""
    table: Counter = Counter()
    for J, h in homologies.items():
        for q in h.degrees():
            if h.rank(q):
                table[(len(J), q + len(J) + 1, 0)] += h.rank(q)
            for a in h.torsion(q):
                table[(len(J), q + len(J) + 2, a)] += 1
    return table


@dataclass(frozen=True)
class Step:
    groups: GradedGroups
    computed: bool  # the step settled K_J by ``_reduced_groups``
    torsion: bool  # an elimination of K_J in the step found torsion
    link_torsion: bool  # an elimination of v's link in the step found torsion


def steps(faces, subsets) -> dict[int, Step]:
    """The walk's step into each of ``subsets`` and into each of their ancestors.

    A call of ``_reduced_groups`` settles K_J when the faces it is given
    were listed as the link of ∅, and fills a link memo entry otherwise.
    """
    todo = {0}
    for J in subsets:
        while J:
            todo.add(J)
            J &= J - 1
    listed = [0]  # the σ of the last ``_Faces.link`` call
    calls: dict[bool, list] = {True: [], False: []}  # settle? -> eliminations per call
    eliminated: list = []
    walks = {}
    with pytest.MonkeyPatch.context() as patch:
        link = _Faces.link

        def link_spy(self, sigma, within):
            listed[0] = sigma
            return link(self, sigma, within)

        reduce = moment_angle_module._reduced_groups

        def reduce_spy(layers):
            before = len(eliminated)
            out = reduce(layers)
            calls[listed[0] == 0].append(eliminated[before:])
            return out

        eliminate = homology_module._rank_and_torsion

        def eliminate_spy(columns):
            eliminated.append(eliminate(columns))
            return eliminated[-1]

        patch.setattr(_Faces, "link", link_spy)
        patch.setattr(moment_angle_module, "_reduced_groups", reduce_spy)
        patch.setattr(homology_module, "_rank_and_torsion", eliminate_spy)
        for J in sorted(todo):
            for log in (calls[True], calls[False], eliminated):
                log.clear()
            groups = walk_groups(faces, J)
            walks[J] = (list(calls[True]), list(calls[False]), groups)
    out = {0: Step(walks[0][2], False, False, False)}
    for J in todo - {0}:
        settles, fills, groups = walks[J]
        parent_settles, parent_fills, _ = walks[J & (J - 1)]
        own_settles = settles[len(parent_settles) :]
        own_fills = fills[len(parent_fills) :]
        out[J] = Step(
            groups,
            bool(own_settles),
            any(t for call in own_settles for _, t, _ in call),
            any(t for call in own_fills for _, t, _ in call),
        )
    return out


@contextmanager
def counted():
    """Counts of the engine's homology calls and link listings in this process
    while the block runs (a pool's workers are not seen).

    Yields ``(calls, listed)``.  A call of ``homology._graph_groups`` or
    ``homology._matrix_groups`` belongs to the ``_Faces.link`` listing
    before it: after the link of ∅, the faces of K_J, it is a K_J settle,
    counted under "graph" or "eliminated"; after the link of a vertex, it
    computes that link's groups, "link_graph" or "link_eliminated".  The
    calls inside ``_Faces.sphere_dimension`` are the certificate's,
    "certificate_graph" or "certificate_eliminated", and its listings are
    not counted.  The other listings of a vertex's link are counted under
    "link_listings", and per (σ, within) in ``listed``.
    """
    calls: Counter = Counter()
    listed: Counter = Counter()
    where = [""]  # "", "link_" or "certificate_": whose call the next one is
    link = _Faces.link
    certify = _Faces.sphere_dimension

    def listing(self, sigma, within):
        if where[0] != "certificate_":
            where[0] = "link_" if sigma else ""
            if sigma:
                calls["link_listings"] += 1
                listed[(sigma, within)] += 1
        return link(self, sigma, within)

    def certificate(self):
        where[0] = "certificate_"
        try:
            return certify(self)
        finally:
            where[0] = ""

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Faces, "link", listing)
        patch.setattr(_Faces, "sphere_dimension", certificate)
        for name, route in (("_graph_groups", "graph"), ("_matrix_groups", "eliminated")):
            original = getattr(homology_module, name)

            def spy(*args, original=original, route=route):
                calls[where[0] + route] += 1
                return original(*args)

            patch.setattr(homology_module, name, spy)
        yield calls, listed


def _traces(k, vertices) -> list[frozenset]:
    """The maximal faces of K_J, J = ``vertices``, as sets."""
    traces = {frozenset(f) & frozenset(vertices) for f in k.maximal_faces}
    return [t for t in traces if not any(t < u for u in traces)]


def _has(k, face) -> bool:
    return any(face <= set(f) for f in k.maximal_faces)


def link(k, vertices) -> list[tuple[int, ...]]:
    """The maximal faces of v's link in K_J, J = ``vertices`` and v its lowest vertex."""
    v = vertices[0]
    return [tuple(sorted(f - {v})) for f in _traces(k, vertices) if v in f]


def route(k, vertices) -> str:
    """The walk's rule for the step into K_J, J = ``vertices`` (nonempty, sorted).

    v is the lowest vertex and J - v the parent: "reused" for a ghost v or
    an acyclic link of v, "point" for an empty link, "suspended" for an
    acyclic parent, and "computed" otherwise.
    """
    v, rest = vertices[0], vertices[1:]
    if not _has(k, {v}):
        return "reused"
    faces = link(k, vertices)
    if faces == [()]:
        return "point"
    if _reduced_homology(faces) == GradedGroups():
        return "reused"
    if _reduced_homology([tuple(sorted(f)) for f in _traces(k, rest)]) == GradedGroups():
        return "suspended"
    return "computed"
