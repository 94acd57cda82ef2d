"""Exact integral homology of simplicial complexes via Smith normal form.

Everything here is arbitrary-precision integer arithmetic; no floats.  The
homology computed is *reduced*: the chain complex carries the augmentation
C_0 -> C_{-1} = Z, so a complex with any face at all has a degree -1 group of
rank 0, a nonempty disjoint union of c pieces has rank c-1 in degree 0, and
the two face-free complexes get rank 1 in degree -1 (the reduced homology of
the empty complex).

Finitely generated graded abelian groups are recorded degree by degree as a
free rank plus invariant factors d_1 | d_2 | ... | d_k with every d_i > 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping, Sequence

from .simplicial import SimplicialComplex


# -- integer matrices ------------------------------------------------------


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix that keeps its shape even when degenerate."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be >= 0")
        ents = tuple(tuple(int(x) for x in row) for row in self.entries)
        if len(ents) != self.rows or any(len(r) != self.cols for r in ents):
            raise ValueError(
                f"entry grid does not match declared shape {self.rows}x{self.cols}"
            )
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, tuple(tuple(row) for row in rows))


def _prime_powers(n: int) -> dict[int, int]:
    # trial division; the integers involved are invariant factors, all small
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(values: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisibility chain of ⊕ Z/v over the given values.

    Entries equal to 1 contribute nothing; nonpositive entries are an error.
    The result lists d_1 | d_2 | ... | d_k in increasing order, all > 1.

    >>> invariant_factors([4, 6])
    (2, 12)
    >>> invariant_factors([2, 2])
    (2, 2)
    """
    exps: dict[int, list[int]] = {}
    for v in values:
        v = int(v)
        if v <= 0:
            raise ValueError(f"torsion order must be positive, got {v}")
        if v == 1:
            continue
        for p, e in _prime_powers(v).items():
            exps.setdefault(p, []).append(e)
    if not exps:
        return ()
    for e in exps.values():
        e.sort(reverse=True)
    k = max(len(e) for e in exps.values())
    factors = [
        prod(p ** e[i] for p, e in exps.items() if i < len(e)) for i in range(k)
    ]
    return tuple(reversed(factors))


def smith_normal_form(matrix: IntegerMatrix) -> tuple[tuple[int, ...], int]:
    """Diagonal of the Smith normal form and the rank.

    Returns ``(d, r)`` with d_1 | d_2 | ... | d_r, all positive, r = rank.
    Pivots are chosen by smallest absolute value, ties broken by (row, col)
    scan order, so the elimination is deterministic.  Exact int arithmetic
    throughout.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    pivots: list[int] = []
    t = 0
    while t < m and t < n:
        best: tuple[int, int, int] | None = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, i, j = best
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        pivot = a[t][t]
        clean = True
        for r in range(t + 1, m):
            if a[r][t]:
                q = a[r][t] // pivot
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[t])]
                if a[r][t]:
                    clean = False  # remainder < |pivot| left; re-pick pivot
        for c in range(t + 1, n):
            if a[t][c]:
                q = a[t][c] // pivot
                if q:
                    for r in range(t, m):
                        a[r][c] -= q * a[r][t]
                if a[t][c]:
                    clean = False
        if not clean:
            continue
        pivots.append(abs(pivot))
        t += 1
    rank = len(pivots)
    chain = invariant_factors(pivots)
    return (1,) * (rank - len(chain)) + chain, rank


# -- graded abelian groups -------------------------------------------------


class GradedGroups:
    """A finitely generated abelian group per integer degree.

    Stored as ``degree -> (rank, torsion)`` with torsion in canonical
    invariant-factor form; zero groups are dropped, so two values compare
    equal exactly when the groups agree in every degree.
    """

    __slots__ = ("_groups",)

    def __init__(self, groups: Mapping[int, tuple[int, Sequence[int]]] = ()):
        norm: dict[int, tuple[int, tuple[int, ...]]] = {}
        for d, (rank, torsion) in dict(groups).items():
            d = int(d)
            rank = int(rank)
            if rank < 0:
                raise ValueError(f"rank at degree {d} must be >= 0, got {rank}")
            tors = invariant_factors(torsion)
            if rank or tors:
                norm[d] = (rank, tors)
        self._groups = norm

    @classmethod
    def zero(cls) -> "GradedGroups":
        return cls({})

    @classmethod
    def sphere(cls, d: int) -> "GradedGroups":
        """Reduced groups of S^d: a single Z in degree d."""
        return cls({d: (1, ())})

    @classmethod
    def from_ranks(cls, ranks: Mapping[int, int]) -> "GradedGroups":
        return cls({d: (r, ()) for d, r in ranks.items()})

    def rank(self, degree: int) -> int:
        return self._groups.get(degree, (0, ()))[0]

    def torsion(self, degree: int) -> tuple[int, ...]:
        return self._groups.get(degree, (0, ()))[1]

    def degrees(self) -> list[int]:
        return sorted(self._groups)

    @property
    def is_zero(self) -> bool:
        return not self._groups

    @property
    def max_degree(self) -> int:
        if not self._groups:
            raise ValueError("the zero graded group has no top degree")
        return max(self._groups)

    @property
    def min_degree(self) -> int:
        if not self._groups:
            raise ValueError("the zero graded group has no bottom degree")
        return min(self._groups)

    def has_torsion(self) -> bool:
        return any(t for _, t in self._groups.values())

    def direct_sum(self, *others: "GradedGroups") -> "GradedGroups":
        acc: dict[int, tuple[int, list[int]]] = {
            d: (r, list(t)) for d, (r, t) in self._groups.items()
        }
        for g in others:
            for d, (r, t) in g._groups.items():
                r0, t0 = acc.get(d, (0, []))
                acc[d] = (r0 + r, t0 + list(t))
        return GradedGroups(acc)

    def shifted(self, offset: int) -> "GradedGroups":
        return GradedGroups({d + offset: rt for d, rt in self._groups.items()})

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * r for d, (r, _) in self._groups.items())

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            str(d): {"rank": r, "torsion": list(t)}
            for d, (r, t) in sorted(self._groups.items())
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GradedGroups":
        groups = {}
        for key, val in data.items():
            groups[int(key)] = (int(val.get("rank", 0)), tuple(val.get("torsion", ())))
        return cls(groups)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedGroups):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self) -> int:
        return hash(frozenset(self._groups.items()))

    def __repr__(self) -> str:
        parts = []
        for d in self.degrees():
            r, t = self._groups[d]
            desc = []
            if r:
                desc.append(f"Z^{r}" if r > 1 else "Z")
            desc.extend(f"Z/{x}" for x in t)
            parts.append(f"{d}: " + "+".join(desc))
        return "GradedGroups({" + ", ".join(parts) + "})"


# -- boundary matrices and homology ---------------------------------------


def boundary_matrix(k: SimplicialComplex, d: int) -> IntegerMatrix:
    """Matrix of the boundary map C_d -> C_{d-1} in the augmented complex.

    Columns are the d-faces in lexicographic order, rows the (d-1)-faces,
    with degree -1 spanned by the empty face; so the d = 0 matrix is the
    augmentation row of ones.  Signs alternate along each face's vertices.
    """
    if d < 0:
        raise ValueError(f"boundary degree must be >= 0, got {d}")
    rows_f = k.faces_of_dimension(d - 1)
    cols_f = k.faces_of_dimension(d)
    index = {f: i for i, f in enumerate(rows_f)}
    grid = [[0] * len(cols_f) for _ in rows_f]
    for j, face in enumerate(cols_f):
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            grid[index[sub]][j] += -1 if pos % 2 else 1
    return IntegerMatrix(len(rows_f), len(cols_f), tuple(tuple(r) for r in grid))


def reduced_homology(k: SimplicialComplex) -> GradedGroups:
    """Reduced integral homology, degree -1 through dim K.

    Rank in degree d is (number of d-faces) - rank ∂_d - rank ∂_{d+1};
    torsion in degree d is the part of ∂_{d+1}'s invariant factors
    exceeding 1.  The two complexes with no nonempty face both give a single
    Z in degree -1.
    """
    if k.dim < 0:
        return GradedGroups({-1: (1, ())})
    top = k.dim
    counts = {-1: 1}
    counts.update({d: len(k.faces_of_dimension(d)) for d in range(top + 1)})
    bd_rank: dict[int, int] = {top + 1: 0}
    bd_torsion: dict[int, tuple[int, ...]] = {top + 1: ()}
    for d in range(top + 1):
        diagonal, rank = smith_normal_form(boundary_matrix(k, d))
        bd_rank[d] = rank
        bd_torsion[d] = tuple(x for x in diagonal if x > 1)
    groups: dict[int, tuple[int, tuple[int, ...]]] = {}
    for d in range(-1, top + 1):
        kernel = counts[d] - (bd_rank[d] if d >= 0 else 0)
        groups[d] = (kernel - bd_rank[d + 1], bd_torsion[d + 1])
    return GradedGroups(groups)
