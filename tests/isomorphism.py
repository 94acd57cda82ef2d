"""Isomorphism tests for simplicial complexes and simple polytopes.

Test helper: decides whether two small complexes (or the dual complexes of
two polytopes) differ only by a vertex relabelling.  Backtracking, meant for
the handful of vertices the tests use.
"""

from collections import Counter

from momentangle.polytopes import SimplePolytope
from momentangle.simplicial import SimplicialComplex


def _vertex_signature(k: SimplicialComplex) -> list[tuple[int, ...]]:
    # signature of v: sorted sizes of the maximal faces containing v
    sig: list[list[int]] = [[] for _ in range(k.vertex_count)]
    for f in k.maximal_faces:
        for v in f:
            sig[v].append(len(f))
    return [tuple(sorted(s)) for s in sig]


def _cofacial(k: SimplicialComplex) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(k.vertex_count)]
    for f in k.maximal_faces:
        for a in f:
            for b in f:
                if a != b:
                    adj[a].add(b)
    return adj


def are_isomorphic(k1: SimplicialComplex, k2: SimplicialComplex) -> bool:
    """Decide whether some vertex bijection carries k1's faces onto k2's.

    Backtracking over vertex assignments, pruned by per-vertex signatures
    (multiset of incident maximal-face sizes) and pairwise cofaciality.
    Intended for the small complexes this package works with, not for large
    instances.
    """
    if k1.vertex_count != k2.vertex_count:
        return False
    if len(k1.maximal_faces) != len(k2.maximal_faces):
        return False
    if Counter(len(f) for f in k1.maximal_faces) != Counter(
        len(f) for f in k2.maximal_faces
    ):
        return False
    sig1, sig2 = _vertex_signature(k1), _vertex_signature(k2)
    if Counter(sig1) != Counter(sig2):
        return False
    n = k1.vertex_count
    if n == 0:
        return True
    adj1, adj2 = _cofacial(k1), _cofacial(k2)
    # assign rarest-signature vertices first: fewer candidates, earlier cuts
    rarity = Counter(sig1)
    order = sorted(range(n), key=lambda v: (rarity[sig1[v]], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def faces_match() -> bool:
        image = {tuple(sorted(mapping[v] for v in f)) for f in k1.maximal_faces}
        return image == set(k2.maximal_faces)

    def extend(i: int) -> bool:
        if i == n:
            return faces_match()
        u = order[i]
        for w in range(n):
            if w in used or sig2[w] != sig1[u]:
                continue
            ok = True
            for v, x in mapping.items():
                if (v in adj1[u]) != (x in adj2[w]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[u]
            used.discard(w)
        return False

    return extend(0)


def are_combinatorially_isomorphic(p: SimplePolytope, q: SimplePolytope) -> bool:
    """True when some facet relabelling identifies the two incidence structures."""
    return p.dim == q.dim and are_isomorphic(p.dual_complex(), q.dual_complex())
