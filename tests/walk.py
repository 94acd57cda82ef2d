"""The subset walk one subset at a time, for tests that follow single subsets.

``_walk`` from the root J with no vertex left below it reaches J by adding
J's vertices from the top down and visits nothing else, so its table is
J's alone.  The walk to J repeats the walk to J's parent, J minus its
lowest vertex, and adds one step; what a spy sees in the walk to J beyond
what it saw in the walk to the parent is that step's own.

``route`` says which rule settles the step into J, from the maximal faces
of K and the definitions alone, and ``minimal_nonface_factors`` which join
factors the sum splits K into.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import pytest

import momentangle.homology as homology_module
import momentangle.moment_angle as moment_angle_module
from momentangle.homology import GradedGroups, _Faces, _masks
from momentangle.moment_angle import _walk


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
    size = subset.bit_count()
    groups: dict[int, list] = {}
    for (s, degree, a), n in _walk(faces, None, subset, 0).items():
        assert s == size
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
    computed: bool  # the step called ``_reduced_groups``
    torsion: bool  # an elimination in the step found torsion


def steps(faces, subsets) -> dict[int, Step]:
    """The walk's step into each of ``subsets`` and into each of their ancestors."""
    todo = {0}
    for J in subsets:
        while J:
            todo.add(J)
            J &= J - 1
    reduced, eliminated = [], []
    walks = {}
    with pytest.MonkeyPatch.context() as patch:
        for module, name, log in (
            (moment_angle_module, "_reduced_groups", reduced),
            (homology_module, "_rank_and_torsion", eliminated),
        ):
            original = getattr(module, name)

            def spy(*args, original=original, log=log):
                log.append(original(*args))
                return log[-1]

            patch.setattr(module, name, spy)
        for J in sorted(todo):
            reduced.clear()
            eliminated.clear()
            groups = walk_groups(faces, J)
            walks[J] = (len(reduced), list(eliminated), groups)
    out = {0: Step(walks[0][2], False, False)}
    for J in todo - {0}:
        calls, results, groups = walks[J]
        parent_calls, parent_results, _ = walks[J & (J - 1)]
        own = results[len(parent_results) :]
        out[J] = Step(groups, calls > parent_calls, any(t for _, t, _ in own))
    return out


def _traces(k, vertices) -> list[frozenset]:
    """The maximal faces of K_J, J = ``vertices``, as sets."""
    traces = {frozenset(f) & frozenset(vertices) for f in k.maximal_faces}
    return [t for t in traces if not any(t < u for u in traces)]


def _has(k, face) -> bool:
    return any(face <= set(f) for f in k.maximal_faces)


def route(k, vertices) -> str:
    """The walk's rule for the step into K_J, J = ``vertices`` (nonempty, sorted).

    v is the lowest vertex and J - v the parent: "reused" for a ghost v or
    a link of v that is a cone with a vertex, "point" for an empty link,
    "cone" for K_J a cone on v, and "computed" otherwise.
    """
    v, rest = vertices[0], frozenset(vertices[1:])
    if not _has(k, {v}):
        return "reused"
    link = [f - {v} for f in _traces(k, rest | {v}) if v in f]
    if link == [frozenset()]:
        return "point"
    if any(all(_has(k, f | {v, w}) for f in link) for w in rest):
        return "reused"
    if all(v in f for f in _traces(k, rest | {v})):
        return "cone"
    return "computed"
