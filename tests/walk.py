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

``counted`` is the one way the tests and ``bench/walk_bench.py --routes``
watch the engine.  While a block runs it records, in this process, each
homology call with its kind and result, the link listings, the ``_Faces``
tables built, the sphere certificates and surface tests, each join factor
as ``_factor_sum`` decided it, the tables summed in closed form, the
vertex sets numbered, the walks, and the process pools started with the
tasks mapped on them.  A pool's workers run in other processes, and what
they do is not seen.  ``factors_of`` reads the factors' decisions alone,
with no walk run.
"""

from __future__ import annotations

import concurrent.futures
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations

import pytest

import momentangle.homology as homology_module
import momentangle.moment_angle as moment_angle_module
from momentangle.homology import GradedGroups, _Faces, _facet_sphere, _linked, _masks
from momentangle.moment_angle import DEFAULT_MAX_VERTICES, _check_input, _gather, _walk
from momentangle.simplicial import SimplicialComplex
from complexes import full_subcomplex
from subset_oracle import _reduced_homology


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def faces_of(k) -> _Faces:
    """The engine's face lists of a ``SimplicialComplex``, from its maximal faces."""
    return _Faces(k.vertex_count, _masks(k.maximal_faces))


def certified_dimension(k) -> int | None:
    """d if ``_facet_sphere`` passes K as a d-sphere on all of its vertices, d one
    less than the size of its largest face, else None."""
    masks = _masks(k.maximal_faces)
    d = max(map(int.bit_count, masks), default=0) - 1
    return d if _facet_sphere((1 << k.vertex_count) - 1, masks, d, _linked(masks, k.vertex_count)) else None


def neighbour_masks(faces: _Faces) -> list[int]:
    """``linked`` of a face table, as the sum takes it: v and the vertices in a facet
    with v, read off ext[{v}] (0 for a ghost vertex)."""
    return [faces.ext.get(1 << v, 0) for v in range(faces.vertex_count)]


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


def _has_torsion(groups: tuple) -> bool:
    return any(torsion for _, (_, torsion) in groups)


def steps(faces, subsets) -> dict[int, Step]:
    """The walk's step into each of ``subsets`` and into each of their ancestors.

    The walk to J makes the homology calls of the walk to its parent and
    then the step's own, each a K_J settle or a link's, as ``counted``
    tells them apart.
    """
    todo = {0}
    for J in subsets:
        while J:
            todo.add(J)
            J &= J - 1
    walks = {}
    with counted() as trace:
        for J in sorted(todo):
            start = len(trace.results)
            groups = walk_groups(faces, J)
            walks[J] = (trace.results[start:], groups)
    out = {0: Step(walks[0][1], False, False, False)}
    for J in todo - {0}:
        results, groups = walks[J]
        own = results[len(walks[J & (J - 1)][0]) :]
        settles = [h for kind, h in own if kind in ("graph", "eliminated")]
        links = [h for kind, h in own if kind in ("link_graph", "link_eliminated")]
        out[J] = Step(
            groups,
            bool(settles),
            any(map(_has_torsion, settles)),
            any(map(_has_torsion, links)),
        )
    return out


@dataclass(frozen=True)
class Factor:
    """One join factor as ``_factor_sum`` decided it."""

    part: int  # its vertices, as a mask
    faces: _Faces | Counter  # the faces it was listed with, else the table it was summed to
    dim: int | None  # its sphere dimension, None for no sphere, a surface or graph among them
    bits: tuple | None  # bits[i] the vertex numbered i, None when it was not listed


@dataclass
class Trace:
    """What the engine did in this process while a ``counted`` block ran."""

    results: list = field(default_factory=list)  # (kind, groups) per homology call, in order
    listed: Counter = field(default_factory=Counter)  # (faces, σ, within) -> listings
    built: list = field(default_factory=list)  # the ``_Faces`` tables built, the certificate's included
    certified: list = field(default_factory=list)  # m per ``_facet_sphere`` call at d ≥ 3
    # (m, d, passed) per ``_facet_sphere`` call at d ≤ 2 and per ``_surface`` call, which
    # passes as a sphere test when it finds χ = 2
    tested: list = field(default_factory=list)
    surfaces: list = field(default_factory=list)  # (m, χ, orientable) per closed surface found
    factors: list = field(default_factory=list)  # a ``Factor`` per join factor
    numbered: list = field(default_factory=list)  # the vertex masks ``_order`` numbers
    summed: list = field(default_factory=list)  # (m, d) per ``_sphere_table`` table
    walks: list = field(default_factory=list)  # (faces, sphere_dim) per ``_walk`` call
    pools: list = field(default_factory=list)  # ``max_workers`` per process pool started
    maps: list = field(default_factory=list)  # the tasks given to each pool ``map``

    @property
    def calls(self) -> Counter:
        """The homology calls by kind, and the link listings as "link_listings"."""
        calls = Counter(kind for kind, _ in self.results)
        calls["link_listings"] = sum(self.listed.values())
        return calls


class Listing(list):
    """The layers of one ``_Faces.link`` listing, with the σ whose link they are."""

    __slots__ = ("sigma",)

    def __init__(self, layers, sigma):
        super().__init__(layers)
        self.sigma = sigma


@contextmanager
def counted():
    """Yields a ``Trace`` of what the engine does in this process while the
    block runs; a pool's workers are not seen.

    A call of ``homology._graph_groups`` or ``homology._matrix_groups``
    belongs to the ``_Faces.link`` listing that made the faces it is given:
    on the link of ∅, the faces of K_J, it is a K_J settle, of kind "graph"
    or "eliminated"; on the link of a nonempty face, it computes that
    link's groups, "link_graph" or "link_eliminated".  The calls inside
    the ``_facet_sphere`` spy on ``moment_angle`` are the certificate's,
    "certificate_graph" or "certificate_eliminated", and its listings are
    not recorded; the other listings of a nonempty face's link are, in
    ``listed``.  The spies wrap what each name holds when the block
    starts, so a behaviour switch set before it stays in force.
    """
    trace = Trace()
    certifying = [False]  # whether the calls made now are the certificate's
    init, link = _Faces.__init__, _Faces.link
    factor_sum, order, walk, sphere_table, facet_sphere, surface = (
        moment_angle_module._factor_sum,
        moment_angle_module._order,
        moment_angle_module._walk,
        moment_angle_module._sphere_table,
        moment_angle_module._facet_sphere,
        moment_angle_module._surface,
    )
    executor = concurrent.futures.ProcessPoolExecutor

    def building(self, m, facets):
        init(self, m, facets)
        trace.built.append(self)

    def listing(self, sigma, within):
        if sigma and not certifying[0]:
            trace.listed[(self, sigma, within)] += 1
        return Listing(link(self, sigma, within), sigma)

    numberings = []  # what ``_order`` returned, one per part in trace.numbered

    def deciding(part, facets, *args):
        numbered = len(numberings)
        table, sphere = factor_sum(part, facets, *args)
        listed = len(numberings) > numbered  # its faces are the table built last, once numbered
        trace.factors.append(Factor(
            part,
            trace.built[-1] if listed else table,
            max(map(int.bit_count, facets)) - 1 if sphere else None,
            tuple(numberings[numbered]) if listed else None,
        ))
        return table, sphere

    def numbering(part, linked):
        trace.numbered.append(part)
        numberings.append(order(part, linked))
        return numberings[-1]

    def summing(vertices, facets, d, linked, orientable):
        table = sphere_table(vertices, facets, d, linked, orientable)
        if table is not None:
            trace.summed.append((vertices.bit_count(), d))
        return table

    def testing(vertices, facets, d, linked):
        certifying[0] = True
        try:
            passed = facet_sphere(vertices, facets, d, linked)
        finally:
            certifying[0] = False
        if d > 2:
            trace.certified.append(vertices.bit_count())
        else:
            trace.tested.append((vertices.bit_count(), d, passed))
        return passed

    def surfacing(vertices, facets, linked):
        found = surface(vertices, facets, linked)
        m = vertices.bit_count()
        trace.tested.append((m, 2, found is not None and found[0] == 2))
        if found is not None:
            trace.surfaces.append((m, *found))
        return found

    def walking(faces, sphere_dim, *args):
        trace.walks.append((faces, sphere_dim))
        return walk(faces, sphere_dim, *args)

    class Pool(executor):
        def __init__(self, *args, **kwargs):
            trace.pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

        def map(self, fn, tasks, *args, **kwargs):
            trace.maps.append(len(tasks))
            return super().map(fn, tasks, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Faces, "__init__", building)
        patch.setattr(_Faces, "link", listing)
        for name, kind in (("_graph_groups", "graph"), ("_matrix_groups", "eliminated")):
            original = getattr(homology_module, name)

            def spy(present, original=original, kind=kind):
                groups = original(present)
                whose = "certificate_" if certifying[0] else "link_" if getattr(present, "sigma", 0) else ""
                trace.results.append((whose + kind, groups))
                return groups

            patch.setattr(homology_module, name, spy)
        patch.setattr(moment_angle_module, "_factor_sum", deciding)
        patch.setattr(moment_angle_module, "_order", numbering)
        patch.setattr(moment_angle_module, "_walk", walking)
        patch.setattr(moment_angle_module, "_sphere_table", summing)
        patch.setattr(moment_angle_module, "_facet_sphere", testing)
        patch.setattr(moment_angle_module, "_surface", surfacing)
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        yield trace


def factors_of(k) -> list[Factor]:
    """The join factors of K, or of a polytope's dual, as its serial sum decides them;
    ``_walk`` returns an empty table meanwhile, so no walk is run and only the
    decisions are read."""
    m, facets = _check_input(k, DEFAULT_MAX_VERTICES)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moment_angle_module, "_walk", lambda faces, sphere_dim, root, low: Counter())
        with counted() as trace:
            _gather(m, facets, 1)
    return trace.factors


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
