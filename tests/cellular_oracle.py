"""Independent Betti-number oracle for moment-angle spaces, tiny m only.

The package under test computes H*(Z_K) as a sum of subcomplex homologies.
This oracle takes a completely different route: it builds the cellular chain
complex of Z_K inside (D^2)^m directly and row-reduces over the rationals.

Each coordinate disk carries three cells: the point 1 (dim 0), the boundary
circle (dim 1), the disk itself (dim 2).  A cell of Z_K is a choice of
disk-cell for the coordinates in a face sigma of K, circle-cells for a
subset omega of the remaining coordinates, and point-cells elsewhere; its
dimension is 2|sigma| + |omega|.  The boundary operator is Leibniz over the
factors with d(disk) = circle, d(circle) = 0, so

    d(sigma, omega) = sum over i in sigma of
                      (-1)^{#(omega below i)} (sigma - i, omega + i),

which stays inside the complex because faces of sigma are faces of K.

Ranks of the boundary maps are computed by exact Gaussian elimination on
Fractions, with no code shared with the package's Smith normal form.
Torsion is not computed directly.  ``cellular_betti_mod_p`` instead gives
the dimensions of H^*(Z_K; F_p) from ranks over the prime field F_p, by
elimination on sparse columns mod p; by universal coefficients these see
every p-primary torsion factor of the integral cohomology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Cell = tuple[tuple[int, ...], tuple[int, ...]]


def _cells_by_dimension(k) -> dict[int, list[Cell]]:
    m = k.vertex_count
    cells: dict[int, list[Cell]] = {}
    # every face of K, the empty one included, from its maximal faces
    faces = {s for f in k.maximal_faces for r in range(len(f) + 1) for s in combinations(f, r)}
    for sigma in faces:
        rest = [v for v in range(m) if v not in sigma]
        for size in range(len(rest) + 1):
            for omega in combinations(rest, size):
                dim = 2 * len(sigma) + len(omega)
                cells.setdefault(dim, []).append((sigma, omega))
    for dim in cells:
        cells[dim].sort()
    return cells


def _boundary(cell: Cell) -> list[tuple[int, Cell]]:
    sigma, omega = cell
    out = []
    for i in sigma:
        sign = -1 if sum(1 for j in omega if j < i) % 2 else 1
        new_sigma = tuple(v for v in sigma if v != i)
        new_omega = tuple(sorted(omega + (i,)))
        out.append((sign, (new_sigma, new_omega)))
    return out


def _rank_over_q(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        target = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                target = r
                break
        if target is None:
            continue
        rows[pivot_row], rows[target] = rows[target], rows[pivot_row]
        lead = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def _rank_mod_p(columns: list[dict[int, int]], p: int) -> int:
    """Rank over F_p of the matrix with these sparse integer columns.

    Each column is reduced against the earlier pivots by its largest row
    until it vanishes or its largest row is new; the new pivots count the
    rank.  Arithmetic is on ints mod p, inverses by Fermat.
    """
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        col = {r: v % p for r, v in column.items() if v % p}
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = col
                break
            other = pivots[low]
            f = col[low] * pow(other[low], p - 2, p) % p
            for r, v in other.items():
                x = (col.get(r, 0) - f * v) % p
                if x:
                    col[r] = x
                else:
                    col.pop(r, None)
    return len(pivots)


def cellular_betti_mod_p(k, p: int) -> dict[int, int]:
    """Dimensions of H^*(Z_K; F_p) from its cellular chain complex, by degree."""
    cells = _cells_by_dimension(k)
    top = max(cells)
    index = {dim: {c: i for i, c in enumerate(cs)} for dim, cs in cells.items()}
    ranks = {0: 0, top + 1: 0}
    for dim in range(1, top + 1):
        columns = []
        for cell in cells.get(dim, ()):
            col: dict[int, int] = {}
            for sign, image in _boundary(cell):
                row = index[dim - 1][image]
                col[row] = col.get(row, 0) + sign
            columns.append(col)
        ranks[dim] = _rank_mod_p(columns, p)
    dims = {}
    for dim in range(top + 1):
        b = len(cells.get(dim, ())) - ranks[dim] - ranks[dim + 1]
        if b:
            dims[dim] = b
    return dims


def cellular_betti(k) -> dict[int, int]:
    """Betti numbers of Z_K from its cellular chain complex, keyed by degree."""
    cells = _cells_by_dimension(k)
    top = max(cells)
    index = {dim: {c: i for i, c in enumerate(cs)} for dim, cs in cells.items()}

    matrices: dict[int, list[list[Fraction]]] = {}
    for dim in range(1, top + 1):
        lower = cells.get(dim - 1, [])
        grid = [
            [Fraction(0)] * len(cells.get(dim, ())) for _ in range(len(lower))
        ]
        for col, cell in enumerate(cells.get(dim, ())):
            for sign, image in _boundary(cell):
                grid[index[dim - 1][image]][col] += sign
        matrices[dim] = grid

    # chain complex sanity: composing successive boundaries gives zero
    for dim in range(2, top + 1):
        for cell in cells.get(dim, ()):
            acc: dict[Cell, int] = {}
            for sign, image in _boundary(cell):
                for sign2, image2 in _boundary(image):
                    acc[image2] = acc.get(image2, 0) + sign * sign2
            assert all(v == 0 for v in acc.values()), "oracle boundary^2 != 0"

    ranks = {dim: _rank_over_q(matrices[dim]) for dim in matrices}
    ranks[0] = 0
    ranks[top + 1] = 0
    betti = {}
    for dim in range(top + 1):
        b = len(cells.get(dim, ())) - ranks.get(dim, 0) - ranks.get(dim + 1, 0)
        if b:
            betti[dim] = b
    return betti
